#include "core/identifier.h"

#include <cmath>
#include <memory>
#include <sstream>

#include "inference/hmm.h"
#include "inference/mmhd.h"
#include "inference/model_selection.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/error.h"

namespace dcl::core {

namespace {

// `keep_model` (optional) receives the fitted MMHD so callers can run
// model-dependent follow-ups (refit bootstrap) without refitting.
inference::FitResult fit_model(
    ModelKind kind, int symbols, const std::vector<int>& seq,
    inference::EmOptions em, std::vector<util::Pmf>* per_loss = nullptr,
    std::unique_ptr<inference::Mmhd>* keep_model = nullptr) {
  if (kind == ModelKind::kMmhd) {
    auto model = std::make_unique<inference::Mmhd>(em.hidden_states, symbols);
    auto fit = model->fit(seq, em);
    if (per_loss != nullptr) *per_loss = model->per_loss_posteriors(seq);
    if (keep_model != nullptr) *keep_model = std::move(model);
    return fit;
  }
  inference::Hmm model(em.hidden_states, symbols);
  return model.fit(seq, em);
}

// A fit is usable when the likelihood is a real number and the posterior
// PMF carries positive, finite mass — anything else (NaN log likelihood
// from an all-degenerate restart, a zeroed or NaN posterior) would poison
// every downstream test.
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

// Bounded retry around fit_model: a divergent/NaN fit (or a throwing one)
// is retried with a re-seeded restart schedule up to `retries` times.
// Returns false when every attempt failed; `result` then holds the last
// attempt (possibly unusable) and `out_warnings` says what happened.
bool fit_with_retry(ModelKind kind, int symbols, const std::vector<int>& seq,
                    inference::EmOptions em, int retries,
                    inference::FitResult* result,
                    std::vector<util::Pmf>* per_loss,
                    std::unique_ptr<inference::Mmhd>* keep_model,
                    std::vector<std::string>* out_warnings,
                    int* retries_used) {
  for (int attempt = 0; attempt <= retries; ++attempt) {
    if (attempt > 0) {
      // Fresh restart schedule: the original seed's restarts all landed in
      // a degenerate basin, so draw from a decorrelated stream.
      em.seed = em.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(attempt);
      if (retries_used != nullptr) *retries_used = attempt;
      obs::Registry::global().counter("em.retries").add(1);
    }
    std::string failure;
    try {
      *result = fit_model(kind, symbols, seq, em, per_loss, keep_model);
      if (fit_usable(*result)) {
        if (attempt > 0 && out_warnings != nullptr) {
          std::ostringstream os;
          os << "em fit recovered after " << attempt << " re-seeded retr"
             << (attempt == 1 ? "y" : "ies");
          out_warnings->push_back(os.str());
        }
        return true;
      }
      failure = "unusable fit (non-finite likelihood or empty posterior)";
    } catch (const util::Error& e) {
      failure = e.what();
    }
    if (out_warnings != nullptr) {
      std::ostringstream os;
      os << "em fit attempt " << attempt + 1 << " failed: " << failure;
      out_warnings->push_back(os.str());
    }
  }
  obs::Registry::global().counter("em.fit_failures").add(1);
  return false;
}

// Decision-only structure race for ModelKind::kAuto: an HMM and an MMHD
// (same N, same EM options) advance on shared successive-halving rungs,
// and the race ends as soon as one structure's best reachable BIC — from
// its likelihood upper bound — falls provably behind the other's realized
// BIC, or both fits finish. Only the *decision* is kept; the pipeline then
// fits the winner through the normal retry machinery, so the race costs a
// few warm-up rungs, not a second full fit. The rung loop is a fixed
// MMHD-then-HMM scan on the calling thread over thread-invariant StagedFit
// values, so the decision is bitwise identical for any em.threads.
ModelKind race_model_kind(int symbols, const std::vector<int>& seq,
                          inference::EmOptions em) {
  // The race is silent: observer callbacks replay from the pipeline's real
  // fit of the winner, not from the throwaway decision fits.
  em.observer = nullptr;
  // kAuto always races, even when restart racing is off.
  if (em.race_warmup <= 0) em.race_warmup = 4;

  // BIC penalties over the observed-support alphabet m_obs (see
  // model_selection.cpp for why unobserved symbols are pinned). The MMHD
  // expands the chain over s = N * m_obs states; the HMM keeps N hidden
  // states with per-state emission rows.
  std::vector<char> seen(static_cast<std::size_t>(symbols), 0);
  for (int o : seq)
    if (o != inference::Discretizer::kLossSymbol)
      seen[static_cast<std::size_t>(o - 1)] = 1;
  std::size_t m_obs = 0;
  for (char c : seen) m_obs += c ? 1 : 0;
  if (m_obs == 0) m_obs = static_cast<std::size_t>(symbols);
  const double log_t = std::log(static_cast<double>(seq.size()));
  const auto n = static_cast<std::size_t>(em.hidden_states);
  const std::size_t s = n * m_obs;
  const double pen_mmhd =
      static_cast<double>((s - 1) + s * (s - 1) + m_obs) * log_t;
  const double pen_hmm =
      static_cast<double>((n - 1) + n * (n - 1) + n * (m_obs - 1) + m_obs) *
      log_t;

  inference::Mmhd mmhd(em.hidden_states, symbols);
  inference::Hmm hmm(em.hidden_states, symbols);
  inference::Mmhd::StagedFit mf(mmhd, seq, em);
  inference::Hmm::StagedFit hf(hmm, seq, em);
  auto& reg = obs::Registry::global();
  bool mmhd_out = false;
  bool hmm_out = false;
  int target = std::min(em.race_warmup, em.max_iterations);
  while (true) {
    mf.advance(target);
    hf.advance(target);
    const double mmhd_bic = -2.0 * mf.best_ll() + pen_mmhd;
    const double hmm_bic = -2.0 * hf.best_ll() + pen_hmm;
    const double leader = std::min(mmhd_bic, hmm_bic);
    if (!mf.finished() &&
        -2.0 * mf.ll_upper_bound(em.race_overtake) + pen_mmhd > leader) {
      mmhd_out = true;
    } else if (!hf.finished() &&
               -2.0 * hf.ll_upper_bound(em.race_overtake) + pen_hmm >
                   leader) {
      hmm_out = true;
    }
    reg.counter("identifier.auto_model.race_rungs").add(1);
    if (mmhd_out || hmm_out) break;
    if (target >= em.max_iterations) break;
    if (mf.finished() && hf.finished()) break;
    // Two candidates stay live until the break above.
    target = inference::race_next_target(em, target, 2, 2);
  }
  const double mmhd_bic = -2.0 * mf.best_ll() + pen_mmhd;
  const double hmm_bic = -2.0 * hf.best_ll() + pen_hmm;
  mf.finish();
  hf.finish();
  ModelKind pick;
  if (mmhd_out) {
    pick = ModelKind::kHmm;
  } else if (hmm_out) {
    pick = ModelKind::kMmhd;
  } else {
    // Both ran out their budget: strict '<' so a tie keeps the paper
    // default MMHD.
    pick = hmm_bic < mmhd_bic ? ModelKind::kHmm : ModelKind::kMmhd;
  }
  reg.counter(pick == ModelKind::kMmhd ? "identifier.auto_model.mmhd_wins"
                                       : "identifier.auto_model.hmm_wins")
      .add(1);
  obs::trace::instant("identify.auto_model",
                      pick == ModelKind::kHmm ? 1.0 : 0.0);
  return pick;
}

void note_skip(IdentificationResult* r, const char* stage) {
  r->degraded = true;
  r->warnings.push_back(std::string(stage) +
                        " skipped: deadline exceeded (partial result)");
  obs::Registry::global().counter("pipeline.deadline_skips").add(1);
}

}  // namespace

Identifier::Identifier(const IdentifierConfig& cfg) : cfg_(cfg) {
  DCL_ENSURE(cfg_.symbols >= 2);
  DCL_ENSURE(cfg_.hidden_states >= 1);
  DCL_ENSURE(cfg_.bound_symbols >= cfg_.symbols);
  DCL_ENSURE(cfg_.em_retries >= 0);
}

IdentificationResult Identifier::identify(
    const inference::ObservationSequence& obs) const {
  DCL_STAGE("identify");
  DCL_REQUIRE_INPUT(obs.size() >= 2, "need at least two probes");
  IdentificationResult r;
  r.probes = obs.size();
  r.losses = inference::loss_count(obs);
  r.loss_rate = inference::loss_rate(obs);
  if (r.losses == 0) return r;  // nothing to identify without losses
  r.has_losses = true;

  // Coarse grid: hypothesis tests.
  inference::DiscretizerConfig dc;
  dc.symbols = cfg_.symbols;
  dc.propagation_delay = cfg_.propagation_delay;
  const auto disc = [&] {
    DCL_STAGE("discretize");
    return inference::Discretizer::from_observations(obs, dc);
  }();
  r.bin_width_s = disc.bin_width();
  r.delay_floor_s = disc.delay_floor();
  const auto seq = disc.discretize(obs);

  inference::EmOptions em = cfg_.em;
  em.hidden_states = cfg_.hidden_states;
  // Resolve kAuto to a concrete structure up front: every later gate
  // (model selection, bootstrap, fits) keys off the resolved kind.
  ModelKind kind = cfg_.model;
  if (kind == ModelKind::kAuto) {
    if (cfg_.deadline.expired()) {
      note_skip(&r, "model race");
      kind = ModelKind::kMmhd;
    } else {
      DCL_STAGE("model_race");
      try {
        kind = race_model_kind(cfg_.symbols, seq, em);
      } catch (const util::Error& e) {
        r.degraded = true;
        r.warnings.push_back(
            std::string("model race failed, using MMHD: ") + e.what());
        kind = ModelKind::kMmhd;
      }
    }
  }
  r.model_used = kind;
  if (cfg_.auto_hidden_max > 0 && kind == ModelKind::kMmhd) {
    if (cfg_.deadline.expired()) {
      note_skip(&r, "model selection");
    } else {
      DCL_STAGE("model_selection");
      try {
        const auto sel = inference::select_mmhd_hidden_states(
            seq, cfg_.symbols, cfg_.auto_hidden_max, em);
        em.hidden_states = sel.best_hidden_states;
      } catch (const util::Error& e) {
        r.degraded = true;
        r.warnings.push_back(
            std::string("model selection failed, keeping configured N: ") +
            e.what());
      }
    }
  }
  r.hidden_states_used = em.hidden_states;
  const bool want_bootstrap =
      cfg_.bootstrap_replicates > 0 && kind == ModelKind::kMmhd;
  std::vector<util::Pmf> per_loss;
  std::unique_ptr<inference::Mmhd> coarse_model;
  bool fit_ok;
  {
    DCL_STAGE("coarse_fit");
    fit_ok = fit_with_retry(
        kind, cfg_.symbols, seq, em, cfg_.em_retries, &r.fit,
        want_bootstrap && !cfg_.bootstrap_refit ? &per_loss : nullptr,
        want_bootstrap && cfg_.bootstrap_refit ? &coarse_model : nullptr,
        &r.warnings, &r.em_retries_used);
  }
  if (r.em_retries_used > 0) r.degraded = true;
  if (!fit_ok) {
    // Worst rung of the ladder: no usable posterior. Hand back what we
    // know (probes, losses, bin width) with the tests defaulted.
    r.degraded = true;
    r.fit_failed = true;
    r.warnings.push_back("coarse fit failed after retries: no verdict");
    return r;
  }
  r.virtual_pmf = r.fit.virtual_delay_pmf;
  r.virtual_cdf = util::pmf_to_cdf(r.virtual_pmf);

  {
    DCL_STAGE("hypothesis_tests");
    r.sdcl = sdcl_test(r.virtual_cdf, cfg_.sdcl_mass_epsilon);
    r.wdcl = wdcl_test(r.virtual_cdf, cfg_.eps_l, cfg_.eps_d);
    r.coarse_bound = max_delay_bound(r.virtual_cdf, disc, cfg_.eps_l);
  }

  if (want_bootstrap) {
    if (cfg_.deadline.expired()) {
      note_skip(&r, "bootstrap");
    } else {
      DCL_STAGE("bootstrap");
      BootstrapConfig bc;
      bc.replicates = cfg_.bootstrap_replicates;
      bc.eps_l = cfg_.eps_l;
      bc.eps_d = cfg_.eps_d;
      bc.seed = cfg_.em.seed + 0x5bd1e995;
      bc.threads = cfg_.em.threads;
      try {
        r.bootstrap = cfg_.bootstrap_refit
                          ? bootstrap_wdcl_refit(seq, *coarse_model, em, bc)
                          : bootstrap_wdcl(per_loss, bc);
      } catch (const util::Error& e) {
        r.degraded = true;
        r.warnings.push_back(std::string("bootstrap failed: ") + e.what());
      }
    }
  }

  // Fine grid: tighter delay bound via the connected-component heuristic.
  if (cfg_.compute_fine_bound) {
    if (cfg_.deadline.expired()) {
      note_skip(&r, "fine bound");
    } else {
      DCL_STAGE("fine_bound");
      try {
        inference::DiscretizerConfig fdc;
        fdc.symbols = cfg_.bound_symbols;
        fdc.propagation_delay = cfg_.propagation_delay;
        const auto fine_disc =
            inference::Discretizer::from_observations(obs, fdc);
        const auto fine_seq = fine_disc.discretize(obs);
        inference::EmOptions fem = cfg_.em;
        fem.hidden_states = cfg_.bound_hidden_states;
        inference::FitResult fine_fit;
        const bool fine_ok = fit_with_retry(
            kind, cfg_.bound_symbols, fine_seq, fem, cfg_.em_retries,
            &fine_fit, nullptr, nullptr, &r.warnings, nullptr);
        if (fine_ok) {
          r.fine_pmf = fine_fit.virtual_delay_pmf;
          r.fine_bin_width_s = fine_disc.bin_width();
          r.fine_bound =
              component_heuristic_bound(r.fine_pmf, fine_disc, cfg_.component);
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
  }
  // Invariant consumed by dclid and dclsoak: a degraded result always
  // explains itself, and any warning marks the result degraded.
  if (!r.warnings.empty()) r.degraded = true;
  return r;
}

}  // namespace dcl::core
