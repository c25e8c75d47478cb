// Shared helpers for the benchmark/reproduction harness. Each bench binary
// regenerates one table or figure of the paper and prints the same rows or
// series the paper reports.
//
// REPRO_SCALE (float env var, default 1.0) scales simulation durations and
// repetition counts: 0.2 gives a quick smoke run, 2.0 a higher-fidelity
// one. Random seeds are fixed so every run at a given scale is identical.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/identifier.h"
#include "core/loss_pair.h"
#include "inference/discretizer.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "scenarios/chain.h"
#include "util/stats.h"

namespace dcl::bench {

inline double repro_scale() {
  const char* s = std::getenv("REPRO_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return v > 0.0 ? v : 1.0;
}

// Duration scaled by REPRO_SCALE with a floor so EM still has losses to
// work with.
inline double scaled_duration(double base_s, double min_s = 120.0) {
  const double d = base_s * repro_scale();
  return d < min_s ? min_s : d;
}

inline int scaled_reps(int base, int min_reps = 5) {
  const int r = static_cast<int>(base * repro_scale());
  return r < min_reps ? min_reps : r;
}

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

// One PMF series line: "<label>: p1 p2 ... pM".
inline void print_pmf(const std::string& label, const util::Pmf& pmf) {
  std::printf("%-22s", (label + ":").c_str());
  for (double p : pmf) std::printf(" %6.3f", p);
  std::printf("\n");
}

// Everything the table benches need from one simulated chain run.
struct ChainRun {
  inference::ObservationSequence obs;
  double loss_rate = 0.0;
  std::array<std::uint64_t, 3> probe_losses{};
  std::array<double, 3> link_loss_rates{};
  util::Pmf gt_pmf;        // ground truth on the identifier's coarse grid
  util::Pmf gt_fine_pmf;   // ... and on the fine (bound) grid
  double gt_min_virtual_q = 0.0;  // min virtual queuing delay of lost probes
  double gt_max_virtual_q = 0.0;  // max
  // Per router link: [min, max] virtual queuing delay of the probes lost
  // *at that link* ({0, 0} when it lost none). This is the right target
  // for a dominant link's Q_k estimate — the all-losses interval would be
  // stretched downward by the secondary link's small virtual delays.
  std::array<std::pair<double, double>, 3> gt_q_range_by_link{};
  std::array<double, 3> qmax{};   // nominal buffer/bandwidth per link
  core::IdentificationResult id;
  core::LossPairEstimate loss_pair;
  util::Pmf observed_pmf;  // received-delay histogram on the coarse grid
};

inline ChainRun run_chain(const scenarios::ChainConfig& cfg,
                          const core::IdentifierConfig& icfg) {
  scenarios::ChainScenario sc(cfg);
  sc.run();
  ChainRun r;
  r.obs = sc.observations();
  r.loss_rate = inference::loss_rate(r.obs);
  r.probe_losses = sc.probe_losses_by_link();
  for (int i = 0; i < 3; ++i) {
    r.link_loss_rates[static_cast<std::size_t>(i)] = sc.link_loss_rate(i);
    r.qmax[static_cast<std::size_t>(i)] = sc.true_qmax(i);
  }

  core::Identifier identifier(icfg);
  r.id = identifier.identify(r.obs);

  inference::DiscretizerConfig dc;
  dc.symbols = icfg.symbols;
  const auto disc = inference::Discretizer::from_observations(r.obs, dc);
  const auto gt_owds = sc.ground_truth_virtual_owds();
  r.gt_pmf = disc.pmf_of_owds(gt_owds);
  std::vector<double> received;
  for (const auto& o : r.obs)
    if (!o.lost) received.push_back(o.delay);
  r.observed_pmf = disc.pmf_of_owds(received);

  inference::DiscretizerConfig fdc;
  fdc.symbols = icfg.bound_symbols;
  const auto fdisc = inference::Discretizer::from_observations(r.obs, fdc);
  r.gt_fine_pmf = fdisc.pmf_of_owds(gt_owds);

  // Loss-pair baseline: a separate run of the same workload probed with
  // back-to-back pairs (the paper's methodology — the two probing methods
  // carry the same load and are not run concurrently).
  scenarios::ChainConfig pair_cfg = cfg;
  pair_cfg.probe_mode = scenarios::ChainConfig::ProbeMode::kPairs;
  scenarios::ChainScenario pair_sc(pair_cfg);
  pair_sc.run();
  r.loss_pair = core::loss_pair_estimate(pair_sc.loss_pair_owds(), fdisc);

  if (!gt_owds.empty()) {
    double lo = gt_owds.front(), hi = gt_owds.front();
    for (double d : gt_owds) {
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    r.gt_min_virtual_q = lo - disc.delay_floor();
    r.gt_max_virtual_q = hi - disc.delay_floor();
  }
  for (int link = 0; link < 3; ++link) {
    const auto owds = sc.ground_truth_virtual_owds_at(link);
    if (owds.empty()) continue;
    double lo = owds.front(), hi = owds.front();
    for (double d : owds) {
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    r.gt_q_range_by_link[static_cast<std::size_t>(link)] = {
        lo - disc.delay_floor(), hi - disc.delay_floor()};
  }
  return r;
}

// Integer env knob with a floor of `min_value` (unset or unparsable gives
// `fallback`). Used for the measurement controls below so CI can trade
// benchmark fidelity against wall time without a rebuild.
inline int env_int(const char* name, int fallback, int min_value = 0) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  const int v = std::atoi(s);
  return v < min_value ? min_value : v;
}

// Median-of-N wall-clock measurement with warmup. The warmup runs touch
// every cache line and page the measured runs will, and the median with a
// reported spread separates a real kernel speedup from scheduler noise —
// a lone best-of run cannot tell the two apart on a busy container.
struct TimingStats {
  double median_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  double spread_ms = 0.0;  // max - min across the measured samples
  std::vector<double> samples_ms;
};

template <typename Fn>
double time_once_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

inline TimingStats summarize_ms(std::vector<double> samples_ms) {
  TimingStats st;
  st.samples_ms = std::move(samples_ms);
  std::vector<double> sorted = st.samples_ms;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  st.median_ms = n % 2 == 1 ? sorted[n / 2]
                            : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  st.min_ms = sorted.front();
  st.max_ms = sorted.back();
  st.spread_ms = st.max_ms - st.min_ms;
  return st;
}

template <typename Fn>
TimingStats time_median_ms(Fn&& fn, int samples, int warmup) {
  if (samples < 1) samples = 1;
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) ms.push_back(time_once_ms(fn));
  return summarize_ms(std::move(ms));
}

// time_median_ms for two functions whose time ratio is gated, sampled in
// alternation: a slow spell of a shared host then lands on both, where
// back-to-back blocks of samples let it skew the ratio.
template <typename FnA, typename FnB>
std::pair<TimingStats, TimingStats> time_median_pair_ms(FnA&& a, FnB&& b,
                                                        int samples,
                                                        int warmup) {
  if (samples < 1) samples = 1;
  for (int i = 0; i < warmup; ++i) {
    a();
    b();
  }
  std::vector<double> ms_a, ms_b;
  for (int i = 0; i < samples; ++i) {
    ms_a.push_back(time_once_ms(a));
    ms_b.push_back(time_once_ms(b));
  }
  return {summarize_ms(std::move(ms_a)), summarize_ms(std::move(ms_b))};
}

// Opt-in flight recording for any bench binary: when DCL_BENCH_TRACE=FILE
// is set, the whole process run is recorded and exported as Chrome trace
// JSON (with the run manifest) when the guard goes out of scope. Unset,
// the guard is inert and the bench pays nothing.
class BenchTraceGuard {
 public:
  explicit BenchTraceGuard(std::string bench) : bench_(std::move(bench)) {
    const char* p = std::getenv("DCL_BENCH_TRACE");
    if (p == nullptr || *p == '\0') return;
    path_ = p;
    obs::trace::TraceSession::instance().start(1u << 18);
    obs::trace::set_thread_name("main");
  }
  ~BenchTraceGuard() {
    if (path_.empty()) return;
    auto& session = obs::trace::TraceSession::instance();
    session.stop();
    const auto man = obs::manifest(bench_);
    if (!session.write_chrome_json(path_, &man))
      std::fprintf(stderr, "%s: cannot write trace %s\n", bench_.c_str(),
                   path_.c_str());
  }
  BenchTraceGuard(const BenchTraceGuard&) = delete;
  BenchTraceGuard& operator=(const BenchTraceGuard&) = delete;

 private:
  std::string bench_;
  std::string path_;
};

// Opt-in CPU profiling for any bench binary, symmetric with
// BenchTraceGuard: DCL_BENCH_PROFILE=FILE samples the whole process run
// (DCL_BENCH_PROFILE_HZ overrides the 99 Hz default) and writes the
// profile — flamegraph.pl collapsed stacks for .collapsed/.folded/.txt,
// speedscope JSON otherwise — when the guard goes out of scope. Unset,
// the guard is inert.
class BenchProfileGuard {
 public:
  explicit BenchProfileGuard(std::string bench) : bench_(std::move(bench)) {
    const char* p = std::getenv("DCL_BENCH_PROFILE");
    if (p == nullptr || *p == '\0') return;
    path_ = p;
    obs::prof::Options opts;
    opts.hz = env_int("DCL_BENCH_PROFILE_HZ", opts.hz, 1);
    if (!obs::prof::start(opts)) {
      std::fprintf(stderr, "%s: profiler unavailable; DCL_BENCH_PROFILE "
                   "ignored\n", bench_.c_str());
      path_.clear();
    }
  }
  ~BenchProfileGuard() {
    if (path_.empty()) return;
    obs::prof::stop();
    const auto man = obs::manifest(bench_);
    if (!obs::prof::write_profile(path_, &man))
      std::fprintf(stderr, "%s: cannot write profile %s\n", bench_.c_str(),
                   path_.c_str());
  }
  BenchProfileGuard(const BenchProfileGuard&) = delete;
  BenchProfileGuard& operator=(const BenchProfileGuard&) = delete;

 private:
  std::string bench_;
  std::string path_;
};

}  // namespace dcl::bench
