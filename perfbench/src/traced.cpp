#include "traced.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/bootstrap.h"
#include "core/bounds.h"
#include "core/hypothesis.h"
#include "core/sanitize.h"
#include "core/stationarity.h"
#include "hostclock.h"
#include "inference/discretizer.h"
#include "inference/mmhd.h"
#include "inference/model_selection.h"
#include "timesync/skew.h"
#include "util/error.h"

namespace perfbench {

using namespace dcl;

Spans::Scope::Scope(Spans& spans, const char* name) : spans_(spans) {
  Span s;
  s.name = name;
  s.parent = spans_.open_;
  s.trace = spans_.trace_;
  index_ = static_cast<int>(spans_.spans_.size());
  spans_.open_ = index_;
  s.t0 = now_s();
  spans_.spans_.push_back(s);
}

Spans::Scope::~Scope() {
  Span& s = spans_.spans_[static_cast<std::size_t>(index_)];
  s.t1 = now_s();
  spans_.open_ = s.parent;
}

std::vector<double> Spans::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].t1 - spans_[i].t0;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
  return self;
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double base = spans_.empty() ? 0.0 : spans_.front().t0;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%d}}\n",
                 i == 0 ? "" : ",", s.name, (s.t0 - base) * 1e6,
                 (s.t1 - s.t0) * 1e6, s.trace);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

namespace {

class IterationCounter : public inference::EmObserver {
 public:
  void on_iteration(int, int, double, double) override { ++iterations; }
  std::uint64_t iterations = 0;
};

// Identifier's fit_usable.
bool fit_usable(const inference::FitResult& fit) {
  if (!std::isfinite(fit.log_likelihood)) return false;
  if (fit.virtual_delay_pmf.empty()) return false;
  double mass = 0.0;
  for (double p : fit.virtual_delay_pmf) {
    if (!std::isfinite(p) || p < 0.0) return false;
    mass += p;
  }
  return mass > 0.0;
}

// Identifier's fit_with_retry for the MMHD, with the iterations of every
// attempt counted through the observer.
bool fit_with_retry(int symbols, const std::vector<int>& seq,
                    inference::EmOptions em, int retries,
                    inference::FitResult* result,
                    std::vector<util::Pmf>* per_loss,
                    std::vector<std::string>* warnings, int* retries_used,
                    IterationCounter* counter) {
  em.observer = counter;
  for (int attempt = 0; attempt <= retries; ++attempt) {
    if (attempt > 0) {
      em.seed = em.seed * 0x9E3779B97F4A7C15ull +
                static_cast<std::uint64_t>(attempt);
      if (retries_used != nullptr) *retries_used = attempt;
    }
    std::string failure;
    try {
      inference::Mmhd model(em.hidden_states, symbols);
      *result = model.fit(seq, em);
      if (per_loss != nullptr) *per_loss = model.per_loss_posteriors(seq);
      if (fit_usable(*result)) {
        if (attempt > 0) {
          std::ostringstream os;
          os << "em fit recovered after " << attempt << " re-seeded retr"
             << (attempt == 1 ? "y" : "ies");
          warnings->push_back(os.str());
        }
        return true;
      }
      failure = "unusable fit (non-finite likelihood or empty posterior)";
    } catch (const util::Error& e) {
      failure = e.what();
    }
    std::ostringstream os;
    os << "em fit attempt " << attempt + 1 << " failed: " << failure;
    warnings->push_back(os.str());
  }
  return false;
}

// Identifier::identify.
core::IdentificationResult identify(const inference::ObservationSequence& obs,
                                    const core::IdentifierConfig& cfg,
                                    Spans& spans, LayerCounts& counts) {
  DCL_REQUIRE_INPUT(obs.size() >= 2, "need at least two probes");
  core::IdentificationResult r;
  r.probes = obs.size();
  r.losses = inference::loss_count(obs);
  r.loss_rate = inference::loss_rate(obs);
  if (r.losses == 0) return r;
  r.has_losses = true;

  inference::DiscretizerConfig dc;
  dc.symbols = cfg.symbols;
  dc.propagation_delay = cfg.propagation_delay;
  std::vector<int> seq;
  std::unique_ptr<inference::Discretizer> disc;
  {
    Spans::Scope s(spans, "discretize");
    disc = std::make_unique<inference::Discretizer>(
        inference::Discretizer::from_observations(obs, dc));
    seq = disc->discretize(obs);
  }
  r.bin_width_s = disc->bin_width();
  r.delay_floor_s = disc->delay_floor();

  inference::EmOptions em = cfg.em;
  em.hidden_states = cfg.hidden_states;
  r.model_used = core::ModelKind::kMmhd;
  if (cfg.auto_hidden_max > 0) {
    Spans::Scope s(spans, "em_select");
    IterationCounter counter;
    inference::EmOptions sel_em = em;
    sel_em.observer = &counter;
    try {
      const auto sel = inference::select_mmhd_hidden_states(
          seq, cfg.symbols, cfg.auto_hidden_max, sel_em);
      em.hidden_states = sel.best_hidden_states;
      for (const auto& score : sel.scores)
        counts.select_raced_out += score.raced_out ? 1 : 0;
    } catch (const util::Error& e) {
      r.degraded = true;
      r.warnings.push_back(
          std::string("model selection failed, keeping configured N: ") +
          e.what());
    }
    counts.select_iterations += counter.iterations;
  }
  r.hidden_states_used = em.hidden_states;
  const bool want_bootstrap = cfg.bootstrap_replicates > 0;
  std::vector<util::Pmf> per_loss;
  bool fit_ok;
  {
    Spans::Scope s(spans, "em_coarse");
    IterationCounter counter;
    fit_ok = fit_with_retry(cfg.symbols, seq, em, cfg.em_retries, &r.fit,
                            want_bootstrap ? &per_loss : nullptr,
                            &r.warnings, &r.em_retries_used, &counter);
    counts.coarse_iterations += counter.iterations;
    counts.coarse_steps += counter.iterations * seq.size();
  }
  counts.coarse_retries += static_cast<std::uint64_t>(r.em_retries_used);
  if (r.em_retries_used > 0) r.degraded = true;
  if (!fit_ok) {
    r.degraded = true;
    r.fit_failed = true;
    r.warnings.push_back("coarse fit failed after retries: no verdict");
    return r;
  }
  if (!r.fit.converged) ++counts.coarse_nonconverged;
  r.virtual_pmf = r.fit.virtual_delay_pmf;
  r.virtual_cdf = util::pmf_to_cdf(r.virtual_pmf);

  {
    Spans::Scope s(spans, "hypothesis");
    r.sdcl = core::sdcl_test(r.virtual_cdf, cfg.sdcl_mass_epsilon);
    r.wdcl = core::wdcl_test(r.virtual_cdf, cfg.eps_l, cfg.eps_d);
  }
  {
    Spans::Scope s(spans, "bounds");
    r.coarse_bound = core::max_delay_bound(r.virtual_cdf, *disc, cfg.eps_l);
  }

  if (want_bootstrap) {
    Spans::Scope s(spans, "bootstrap");
    core::BootstrapConfig bc;
    bc.replicates = cfg.bootstrap_replicates;
    bc.eps_l = cfg.eps_l;
    bc.eps_d = cfg.eps_d;
    bc.seed = cfg.em.seed + 0x5bd1e995;
    bc.threads = cfg.em.threads;
    try {
      r.bootstrap = core::bootstrap_wdcl(per_loss, bc);
      counts.bootstrap_replicates +=
          static_cast<std::uint64_t>(r.bootstrap.replicates);
    } catch (const util::Error& e) {
      r.degraded = true;
      r.warnings.push_back(std::string("bootstrap failed: ") + e.what());
    }
  }

  if (cfg.compute_fine_bound) {
    try {
      inference::DiscretizerConfig fdc;
      fdc.symbols = cfg.bound_symbols;
      fdc.propagation_delay = cfg.propagation_delay;
      std::vector<int> fine_seq;
      std::unique_ptr<inference::Discretizer> fine_disc;
      {
        Spans::Scope s(spans, "discretize");
        fine_disc = std::make_unique<inference::Discretizer>(
            inference::Discretizer::from_observations(obs, fdc));
        fine_seq = fine_disc->discretize(obs);
      }
      inference::EmOptions fem = cfg.em;
      fem.hidden_states = cfg.bound_hidden_states;
      inference::FitResult fine_fit;
      bool fine_ok;
      {
        Spans::Scope s(spans, "em_fine");
        IterationCounter counter;
        fine_ok = fit_with_retry(cfg.bound_symbols, fine_seq, fem,
                                 cfg.em_retries, &fine_fit, nullptr,
                                 &r.warnings, nullptr, &counter);
        counts.fine_iterations += counter.iterations;
        counts.fine_steps += counter.iterations * fine_seq.size();
      }
      if (fine_ok) {
        if (!fine_fit.converged) ++counts.fine_nonconverged;
        r.fine_pmf = fine_fit.virtual_delay_pmf;
        r.fine_bin_width_s = fine_disc->bin_width();
        Spans::Scope s(spans, "bounds");
        r.fine_bound = core::component_heuristic_bound(r.fine_pmf, *fine_disc,
                                                       cfg.component);
        r.fine_valid = r.fine_bound.valid;
      } else {
        r.degraded = true;
        r.warnings.push_back(
            "fine bound unavailable: fine-grid fit failed after retries");
      }
    } catch (const util::Error& e) {
      r.degraded = true;
      r.warnings.push_back(std::string("fine bound failed: ") + e.what());
    }
  }
  if (!r.warnings.empty()) r.degraded = true;
  return r;
}

void finalize(core::PipelineResult* out) {
  if (!out->warnings.empty()) out->degraded = true;
}

core::PipelineResult run_pipeline(const trace::Trace& input,
                                  const core::PipelineConfig& cfg,
                                  Spans& spans, LayerCounts& counts) {
  core::PipelineResult out;
  trace::Trace sanitized;
  {
    Spans::Scope s(spans, "sanitize");
    sanitized = core::sanitize_trace(input, &out.sanitization,
                                     cfg.sanitize_config);
  }
  counts.sanitize_dropped += out.sanitization.dropped();
  counts.sanitize_repaired += out.sanitization.reordered;
  out.warnings.insert(out.warnings.end(), out.sanitization.warnings.begin(),
                      out.sanitization.warnings.end());
  if (sanitized.records.size() < 2) {
    out.warnings.push_back(
        "trace unusable: fewer than 2 records after sanitization");
    finalize(&out);
    return out;
  }
  inference::ObservationSequence obs_seq;
  std::vector<double> send_times;
  {
    Spans::Scope s(spans, "trace");
    out.trace_gaps = sanitized.gaps();
    obs_seq = sanitized.observations();
    send_times = sanitized.send_times();
  }
  if (cfg.correct_clock_skew) {
    Spans::Scope s(spans, "timesync");
    obs_seq = timesync::correct_observations(obs_seq, send_times, &out.skew);
  }
  if (cfg.correct_clock_skew && !out.skew.valid) {
    ++counts.timesync_skipped;
    out.warnings.push_back(std::string("clock-skew correction skipped: ") +
                           timesync::to_string(out.skew.skip_reason));
  }
  out.window_begin = 0;
  out.window_end = obs_seq.size();
  {
    Spans::Scope s(spans, "stationarity");
    out.stationarity = core::stationarity(obs_seq);
  }
  out.identification = identify(obs_seq, cfg.identifier, spans, counts);
  out.answered = !out.identification.fit_failed;
  out.warnings.insert(out.warnings.end(),
                      out.identification.warnings.begin(),
                      out.identification.warnings.end());
  out.degraded = out.degraded || out.identification.degraded;
  finalize(&out);
  return out;
}

}  // namespace

core::PipelineResult traced_analyze(const trace::Trace& input,
                                    const core::PipelineConfig& cfg,
                                    Spans& spans, LayerCounts& counts) {
  if (!cfg.sanitize || cfg.deadline_s > 0.0 || cfg.stationary_window > 0 ||
      cfg.identifier.model != core::ModelKind::kMmhd ||
      cfg.identifier.bootstrap_refit || cfg.identifier.deadline.armed())
    throw std::logic_error("traced_analyze: unsupported configuration");
  // analyze_trace's graceful boundary: a data-dependent throw becomes a
  // degraded no-answer result.
  try {
    return run_pipeline(input, cfg, spans, counts);
  } catch (const util::Error& e) {
    core::PipelineResult out;
    out.warnings.push_back(std::string("analysis aborted (") +
                           util::to_string(e.code()) + "): " + e.what());
    finalize(&out);
    return out;
  }
}

}  // namespace perfbench
