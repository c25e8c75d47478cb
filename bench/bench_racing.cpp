// Restart-racing benchmark: wall time of an 8-restart MMHD fit under the
// two restart-budget policies — full (every restart runs all iterations)
// and raced (the successive-halving schedule of --race-warmup) — at one
// thread, so the speedup measures schedule savings, not parallelism.
// Each timing is the median of DCL_RACING_SAMPLES runs after
// DCL_RACING_WARMUP warmup runs (bench/common.h).
//
// Racing must not change the answer, only the cost: the benchmark runs
// the SDCL/WDCL hypothesis tests on each policy's virtual-delay posterior
// and fails (exit 1) on any verdict disagreement, so the perf numbers are
// only ever reported for policy-equivalent fits.
//
// The selection block races model structures the same way:
// select_mmhd_hidden_states over N = 1..4 on the same sequence, 4
// restarts of the same fixed depth, unraced (race_warmup 0) against raced
// (race_warmup 5), sampled in alternation. It fails (exit 1) when the
// raced selection picks another N or eliminates no candidate — counts, so
// the gate does not depend on the host's speed.
//
// Writes a single-line JSON record to the first non-flag argument
// (default "BENCH_racing.json") with racing_speedup_vs_full.
// `--min-racing-speedup X` exits nonzero when that speedup falls below X —
// the hook for the check.sh racing regression gate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench/common.h"
#include "core/hypothesis.h"
#include "inference/discretizer.h"
#include "inference/mmhd.h"
#include "inference/model_selection.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dcl {
namespace {

constexpr int kTLen = 20000;
constexpr int kSymbols = 10;
constexpr int kHidden = 2;
constexpr int kRestarts = 8;
// Deep enough that trailing restarts have real budget left to save:
// racing's progressive rungs pay off when elimination decisions compound
// over many remaining iterations.
constexpr int kIterations = 60;
constexpr double kEpsL = 0.06;
constexpr double kEpsD = 0.0;
// Hidden-state selection block: candidates N = 1..kSelectMaxHidden, each
// with kSelectRestarts restarts of kIterations fixed-depth iterations.
constexpr int kSelectMaxHidden = 4;
constexpr int kSelectRestarts = 4;
constexpr int kSelectRaceWarmup = 5;

// Same congested-path shape as bench_em_scaling: sticky symbols, losses
// concentrated at the top symbol.
std::vector<int> synth_sequence(std::size_t t_len, int symbols,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> seq;
  seq.reserve(t_len);
  int state = 1;
  for (std::size_t t = 0; t < t_len; ++t) {
    if (rng.uniform() < 0.2)
      state = static_cast<int>(rng.uniform_int(1, symbols));
    const double loss_p = state == symbols ? 0.2 : 0.002;
    seq.push_back(rng.bernoulli(loss_p) ? inference::Discretizer::kLossSymbol
                                        : state);
  }
  seq.front() = 1;
  seq.back() = 1;
  return seq;
}

inference::EmOptions options(bool raced) {
  inference::EmOptions em;
  em.hidden_states = kHidden;
  em.restarts = kRestarts;
  em.max_iterations = kIterations;
  em.tolerance = 0.0;  // fixed depth: the policies differ only in schedule
  em.seed = 42;
  em.threads = 1;
  if (raced) em.race_warmup = 5;
  return em;
}

struct PolicyRun {
  bench::TimingStats wall;
  double log_likelihood = 0.0;
  int pruned_restarts = 0;
  int race_rungs = 0;
  bool sdcl = false;
  bool wdcl = false;
};

PolicyRun run_policy(const char* name, const std::vector<int>& seq,
                     const inference::EmOptions& em, int samples,
                     int warmup) {
  PolicyRun out;
  util::Pmf pmf;
  out.wall = bench::time_median_ms(
      [&] {
        inference::Mmhd model(kHidden, kSymbols);
        const auto fit = model.fit(seq, em);
        out.log_likelihood = fit.log_likelihood;
        out.pruned_restarts = fit.pruned_restarts;
        out.race_rungs = fit.race_rungs;
        pmf = fit.virtual_delay_pmf;
      },
      samples, warmup);
  const auto cdf = util::pmf_to_cdf(pmf);
  out.sdcl = core::sdcl_test(cdf).accepted;
  out.wdcl = core::wdcl_test(cdf, kEpsL, kEpsD).accepted;
  std::printf(
      "%-7s %8.1f ms  (spread %5.1f, ll %.6f, pruned %d, rungs %d, "
      "sdcl=%d wdcl=%d)\n",
      name, out.wall.median_ms, out.wall.spread_ms, out.log_likelihood,
      out.pruned_restarts, out.race_rungs, out.sdcl ? 1 : 0,
      out.wdcl ? 1 : 0);
  return out;
}

std::string json_policy(const PolicyRun& r) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "{\"median_ms\":%.3f,\"spread_ms\":%.3f,\"log_likelihood\":%.6f,"
      "\"pruned_restarts\":%d,\"race_rungs\":%d,\"sdcl\":%s,\"wdcl\":%s}",
      r.wall.median_ms, r.wall.spread_ms, r.log_likelihood,
      r.pruned_restarts, r.race_rungs, r.sdcl ? "true" : "false",
      r.wdcl ? "true" : "false");
  return buf;
}

struct SelectionRun {
  bench::TimingStats wall;
  int best_hidden_states = 0;
  int raced_out = 0;
};

inference::ModelSelectionResult run_selection(const std::vector<int>& seq,
                                              int race_warmup) {
  inference::EmOptions em;
  em.restarts = kSelectRestarts;
  em.max_iterations = kIterations;
  em.tolerance = 0.0;  // fixed depth, as for the restart policies
  em.seed = 42;
  em.threads = 1;
  em.race_warmup = race_warmup;
  return inference::select_mmhd_hidden_states(seq, kSymbols,
                                              kSelectMaxHidden, em);
}

void record(SelectionRun& out, const inference::ModelSelectionResult& r) {
  out.best_hidden_states = r.best_hidden_states;
  out.raced_out = 0;
  for (const auto& score : r.scores) out.raced_out += score.raced_out ? 1 : 0;
}

std::string json_selection(const SelectionRun& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"median_ms\":%.3f,\"spread_ms\":%.3f,"
                "\"best_hidden_states\":%d,\"raced_out\":%d}",
                r.wall.median_ms, r.wall.spread_ms, r.best_hidden_states,
                r.raced_out);
  return buf;
}

}  // namespace
}  // namespace dcl

int main(int argc, char** argv) {
  using namespace dcl;
  bench::BenchTraceGuard trace_guard("bench_racing");
  bench::BenchProfileGuard profile_guard("bench_racing");
  std::string out_path = "BENCH_racing.json";
  double min_racing_speedup = 0.0;
  int samples = bench::env_int("DCL_RACING_SAMPLES", 3, 1);
  int warmup = bench::env_int("DCL_RACING_WARMUP", 1, 0);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-racing-speedup") == 0 && i + 1 < argc) {
      min_racing_speedup = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      samples = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--warmup") == 0 && i + 1 < argc) {
      warmup = std::max(0, std::atoi(argv[++i]));
    } else {
      out_path = argv[i];
    }
  }
  const auto seq =
      synth_sequence(static_cast<std::size_t>(kTLen), kSymbols, 42);
  const std::size_t hw = util::ThreadPool::hardware_threads();

  std::printf(
      "restart racing: T=%d M=%d N=%d restarts=%d iterations=%d 1t "
      "(%zu hw threads, median of %d after %d warmup)\n",
      kTLen, kSymbols, kHidden, kRestarts, kIterations, hw, samples, warmup);
  const auto full = run_policy("full", seq, options(false), samples, warmup);
  const auto raced = run_policy("raced", seq, options(true), samples, warmup);

  // Verdict parity before any speedup is reported: a racing schedule that
  // flips the SDCL/WDCL answer is a correctness bug, not a perf win.
  if (raced.sdcl != full.sdcl || raced.wdcl != full.wdcl) {
    std::fprintf(stderr,
                 "FAIL: verdicts diverge across policies (full %d/%d, "
                 "raced %d/%d)\n",
                 full.sdcl, full.wdcl, raced.sdcl, raced.wdcl);
    return 1;
  }

  const double vs_full = full.wall.median_ms / raced.wall.median_ms;
  std::printf("racing speedup: %.2fx vs full\n", vs_full);

  SelectionRun unraced_sel, raced_sel;
  std::tie(unraced_sel.wall, raced_sel.wall) = bench::time_median_pair_ms(
      [&] { record(unraced_sel, run_selection(seq, 0)); },
      [&] { record(raced_sel, run_selection(seq, kSelectRaceWarmup)); },
      samples, warmup);
  std::printf(
      "selection N=1..%d restarts=%d: unraced %8.1f ms (N=%d), raced "
      "%8.1f ms (N=%d, raced out %d)\n",
      kSelectMaxHidden, kSelectRestarts, unraced_sel.wall.median_ms,
      unraced_sel.best_hidden_states, raced_sel.wall.median_ms,
      raced_sel.best_hidden_states, raced_sel.raced_out);
  // Same gate shape as verdict parity: a structure race that picks another
  // N is a correctness bug, and one that never eliminates saves nothing.
  if (raced_sel.best_hidden_states != unraced_sel.best_hidden_states) {
    std::fprintf(stderr,
                 "FAIL: raced selection chose N=%d, unraced N=%d\n",
                 raced_sel.best_hidden_states,
                 unraced_sel.best_hidden_states);
    return 1;
  }
  if (raced_sel.raced_out == 0) {
    std::fprintf(stderr,
                 "FAIL: raced selection eliminated no candidate\n");
    return 1;
  }

  char head[256];
  std::snprintf(head, sizeof(head),
                "{\"bench\":\"racing\",\"t_len\":%d,\"symbols\":%d,"
                "\"hidden_states\":%d,\"restarts\":%d,\"iterations\":%d,"
                "\"threads\":1,\"hardware_threads\":%zu,\"samples\":%d,"
                "\"warmup\":%d,",
                kTLen, kSymbols, kHidden, kRestarts, kIterations, hw,
                samples, warmup);
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "\"racing_speedup_vs_full\":%.3f,\"verdict_parity\":true}",
                vs_full);
  const std::string line = std::string(head) + "\"manifest\":" +
                           obs::manifest("racing").to_json() + "," +
                           "\"full\":" + json_policy(full) + "," +
                           "\"raced\":" + json_policy(raced) + "," +
                           "\"selection\":{\"max_hidden_states\":" +
                           std::to_string(kSelectMaxHidden) +
                           ",\"restarts\":" +
                           std::to_string(kSelectRestarts) +
                           ",\"race_warmup\":" +
                           std::to_string(kSelectRaceWarmup) +
                           ",\"unraced\":" + json_selection(unraced_sel) +
                           ",\"raced\":" + json_selection(raced_sel) + "}," +
                           tail;
  std::ofstream out(out_path);
  DCL_ENSURE_MSG(out.good(), "cannot open benchmark output file");
  out << line << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (min_racing_speedup > 0.0 && vs_full < min_racing_speedup) {
    std::fprintf(stderr, "FAIL: racing speedup %.2fx below required %.2fx\n",
                 vs_full, min_racing_speedup);
    return 1;
  }
  if (min_racing_speedup > 0.0)
    std::printf("racing speedup %.2fx >= %.2fx required\n", vs_full,
                min_racing_speedup);
  return 0;
}
