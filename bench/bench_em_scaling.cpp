// EM scaling benchmark: wall time of HMM and MMHD fits on the two engines
// — the per-call reference ("naive", EmOptions::cache_emissions = false)
// and the vectorized kernels ("kernel", the default) — plus the threaded
// restart engine at 1/2/4/8 workers on the kernel path. The "mmhd_select"
// block times the largest hidden-state candidate of model selection
// (N = 4, M = 10, the main sequence) and the "mmhd_fine" block the
// fine-bound fit's shape (one hidden state, M = 50) on two sequences — a
// congested one (~5% loss) and a loss-heavy one (~50% loss in runs of up
// to ~150) — each with both engines at one thread. The "mmhd_survey"
// block times dclfleet-sized fits (T = 1,200, half the declared symbols
// never observed, as the discretizer leaves them on every benchmark trace)
// at the coarse shape (N = 2, M = 10) and the fine one (N = 1, M = 50),
// where the fixed per-iteration cost weighs most; its rows are recorded,
// not gated. Each timing is the
// median of DCL_EM_SCALING_SAMPLES runs after DCL_EM_SCALING_WARMUP warmup
// runs (bench/common.h), with the min–max spread recorded so the JSON
// shows whether a speedup clears the run-to-run noise; the naive and
// one-thread kernel samples that the kernel-speedup gates compare are
// taken in alternation. Fit results are asserted identical across thread
// counts (bitwise by construction), making the benchmark double as a
// smoke test.
//
// Kernel rows whose thread count exceeds the machine's hardware
// concurrency are flagged "oversubscribed" in both the stdout summary and
// the JSON (and speedup_4t carries the same flag): on a small container a
// 4- or 8-thread row measures scheduler contention, not parallel scaling,
// so no gate should ever key off an oversubscribed row.
//
// Writes a single-line JSON record to the first non-flag argument
// (default "BENCH_em_scaling.json") and mirrors a human-readable summary
// to stdout. `--min-kernel-speedup X` exits nonzero when either model's
// single-thread kernel-over-naive speedup (kernel_vs_naive_1t; or the
// selection candidate's, or either fine shape's) falls below X — the hook
// the check.sh perf smoke stage uses.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench/common.h"
#include "inference/discretizer.h"
#include "inference/hmm.h"
#include "inference/mmhd.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dcl {
namespace {

constexpr int kTLen = 20000;
constexpr int kSymbols = 10;
constexpr int kRestarts = 8;
constexpr int kIterations = 15;
// The fine-bound fit: IdentifierConfig::bound_symbols, bound_hidden_states.
// One restart: the per-call reference engine needs ~2 s per fit on the
// loss-heavy shape.
constexpr int kFineSymbols = 50;
constexpr int kFineHiddenStates = 1;
constexpr int kFineRestarts = 1;
// The largest candidate of the careful model selection (--select-N 4).
constexpr int kSelectHiddenStates = 4;
// A survey path (dclfleet --synth-probes 1200): the coarse fit and the
// fine-bound fit, each over a declared alphabet twice the observed one.
constexpr int kSurveyLen = 1200;
constexpr int kSurveyHiddenStates = 2;

// Same congested-path shape as bench_micro: sticky symbols, losses
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

// Fine-grid delay symbols: a sticky random walk over all kFineSymbols
// (queuing delay drifts rather than jumps at the fine resolution).
// Congested: losses near the top of the walk, ~5% overall, mostly short
// runs. Loss-heavy: alternating received stretches and loss runs of
// 1..150, ~50% lost — the shape of a trace whose sanitized remainder is
// mostly losses.
std::vector<int> fine_sequence(std::size_t t_len, bool loss_heavy,
                               std::uint64_t seed,
                               int symbols = kFineSymbols) {
  util::Rng rng(seed);
  std::vector<int> seq;
  seq.reserve(t_len);
  int state = symbols / 2;
  while (seq.size() < t_len) {
    if (rng.uniform() < 0.3)
      state = std::clamp(state + static_cast<int>(rng.uniform_int(-3, 3)), 1,
                         symbols);
    if (loss_heavy && rng.uniform() < 1.0 / 75.0) {
      const auto run = static_cast<std::size_t>(rng.uniform_int(1, 150));
      for (std::size_t k = 0; k < run && seq.size() < t_len; ++k)
        seq.push_back(inference::Discretizer::kLossSymbol);
      continue;
    }
    const double loss_p =
        !loss_heavy && state > symbols - 8 ? 0.45 : 0.002;
    seq.push_back(rng.bernoulli(loss_p) ? inference::Discretizer::kLossSymbol
                                        : state);
  }
  seq.front() = symbols / 2;
  seq.back() = symbols / 2;
  return seq;
}

// The two engines (em_options.h): naive recomputes emissions per
// (t, state); kernel is the SoA vectorized path.
enum class Engine { kNaive, kKernel };

inference::EmOptions options(int threads, Engine engine,
                             int hidden_states = 2) {
  inference::EmOptions em;
  em.hidden_states = hidden_states;
  em.restarts = kRestarts;
  em.max_iterations = kIterations;
  em.tolerance = 0.0;  // fixed iteration count: measures raw E+M cost
  em.seed = 42;
  em.threads = threads;
  em.cache_emissions = engine == Engine::kKernel;
  return em;
}

struct FitTiming {
  bench::TimingStats wall;
  double log_likelihood = 0.0;
  int iterations = 0;  // EM iterations of the winning restart, per run
  int restarts = 0;    // restarts that ran to completion (none raced here)
};

// One fit of `Model` per call, recording its outcome into `out`.
template <typename Model>
auto fit_once(const std::vector<int>& seq, int hidden_states, int symbols,
              const inference::EmOptions& em, FitTiming& out) {
  return [&seq, hidden_states, symbols, em, &out] {
    Model model(hidden_states, symbols);
    const auto fit = model.fit(seq, em);
    out.log_likelihood = fit.log_likelihood;
    out.iterations = fit.iterations;
    out.restarts = em.restarts - fit.pruned_restarts;
  };
}

template <typename Model>
FitTiming time_fit(const std::vector<int>& seq, int hidden_states,
                   const inference::EmOptions& em, int samples, int warmup) {
  FitTiming out;
  out.wall = bench::time_median_ms(
      fit_once<Model>(seq, hidden_states, kSymbols, em, out), samples,
      warmup);
  return out;
}

struct ModelScaling {
  int hidden_states = 0;
  FitTiming naive_1t;
  std::vector<int> threads;
  std::vector<FitTiming> kernel;     // kernel engine per thread count
  double kernel_vs_naive_1t = 0.0;   // naive 1t / kernel 1t
  double speedup_4t = 0.0;           // kernel 1t / kernel 4t
};

void print_row(const char* name, int n, const char* engine, int threads,
               const FitTiming& t) {
  const bool over =
      static_cast<std::size_t>(threads) > util::ThreadPool::hardware_threads();
  std::printf(
      "%-5s N=%d  %-6s %dt  %8.1f ms  (spread %5.1f, %d iters, ll %.6f)%s\n",
      name, n, engine, threads, t.wall.median_ms, t.wall.spread_ms,
      t.iterations, t.log_likelihood, over ? "  [oversubscribed]" : "");
}

template <typename Model>
ModelScaling run_model(const char* name, const std::vector<int>& seq,
                       int hidden_states, int samples, int warmup) {
  ModelScaling out;
  out.hidden_states = hidden_states;
  out.threads = {1, 2, 4, 8};

  // Naive and one-thread kernel alternate sample by sample: their ratio
  // is gated (see bench::time_median_pair_ms).
  out.kernel.resize(out.threads.size());
  std::tie(out.naive_1t.wall, out.kernel[0].wall) = bench::time_median_pair_ms(
      fit_once<Model>(seq, hidden_states, kSymbols,
                      options(1, Engine::kNaive), out.naive_1t),
      fit_once<Model>(seq, hidden_states, kSymbols,
                      options(1, Engine::kKernel), out.kernel[0]),
      samples, warmup);
  print_row(name, hidden_states, "naive", 1, out.naive_1t);

  for (std::size_t i = 0; i < out.threads.size(); ++i) {
    if (i > 0)
      out.kernel[i] = time_fit<Model>(seq, hidden_states,
                                      options(out.threads[i], Engine::kKernel),
                                      samples, warmup);
    print_row(name, hidden_states, "kernel", out.threads[i], out.kernel[i]);
    // The engine guarantees bitwise identity across thread counts; hold it
    // to that here so a future regression fails the benchmark loudly.
    DCL_ENSURE_MSG(
        out.kernel[i].log_likelihood == out.kernel[0].log_likelihood,
        "fit log likelihood differs across thread counts");
  }
  // The engines agree to floating-point accuracy, not bitwise; a loose
  // relative check still catches a broken engine before it pollutes the
  // timing series.
  const double ll_ref = out.naive_1t.log_likelihood;
  DCL_ENSURE_MSG(std::abs(out.kernel[0].log_likelihood - ll_ref) <=
                     1e-6 * std::abs(ll_ref),
                 "fit log likelihood differs across engines");

  out.kernel_vs_naive_1t =
      out.naive_1t.wall.median_ms / out.kernel[0].wall.median_ms;
  out.speedup_4t = out.kernel[0].wall.median_ms / out.kernel[2].wall.median_ms;
  std::printf("%-5s N=%d  kernel/naive %5.2fx   4-thread %5.2fx\n", name,
              hidden_states, out.kernel_vs_naive_1t, out.speedup_4t);
  return out;
}

// One single-thread row: both engines at one thread on one sequence.
struct ShapeRow {
  const char* name = "";
  int hidden_states = 0;
  double loss_frac = 0.0;
  std::size_t longest_run = 0;
  FitTiming naive_1t, kernel_1t;
  double kernel_vs_naive_1t = 0.0;  // naive 1t / kernel 1t
};

// `minima` gates on the fastest samples rather than the medians (see the
// fine rows below).
ShapeRow run_shape(const char* label, const char* name,
                   const std::vector<int>& seq, int hidden_states,
                   int symbols, int restarts, bool minima, int samples,
                   int warmup) {
  ShapeRow out;
  out.name = name;
  out.hidden_states = hidden_states;
  std::size_t losses = 0, run = 0;
  for (int o : seq) {
    run = o == inference::Discretizer::kLossSymbol ? run + 1 : 0;
    losses += run > 0 ? 1 : 0;
    out.longest_run = std::max(out.longest_run, run);
  }
  out.loss_frac = static_cast<double>(losses) / static_cast<double>(seq.size());
  const auto fit = [&](Engine engine, FitTiming& t) {
    auto em = options(1, engine, hidden_states);
    em.restarts = restarts;
    return fit_once<inference::Mmhd>(seq, hidden_states, symbols, em, t);
  };
  // Naive and kernel alternate sample by sample: their ratio is gated.
  std::tie(out.naive_1t.wall, out.kernel_1t.wall) = bench::time_median_pair_ms(
      fit(Engine::kNaive, out.naive_1t), fit(Engine::kKernel, out.kernel_1t),
      samples, warmup);
  print_row(label, hidden_states, "naive", 1, out.naive_1t);
  print_row(label, hidden_states, "kernel", 1, out.kernel_1t);
  const double ll_ref = out.naive_1t.log_likelihood;
  DCL_ENSURE_MSG(std::abs(out.kernel_1t.log_likelihood - ll_ref) <=
                     1e-6 * std::abs(ll_ref),
                 "fit log likelihood differs across engines");
  out.kernel_vs_naive_1t =
      minima ? out.naive_1t.wall.min_ms / out.kernel_1t.wall.min_ms
             : out.naive_1t.wall.median_ms / out.kernel_1t.wall.median_ms;
  std::printf("%-5s N=%d  loss %.3f (longest run %zu)  kernel/naive %5.2fx\n",
              label, hidden_states, out.loss_frac, out.longest_run,
              out.kernel_vs_naive_1t);
  return out;
}

// The selection candidate runs the main sequence with every restart, like
// the mmhd row; its kernel takes tens of milliseconds, so medians gate.
ShapeRow run_select(const std::vector<int>& seq, int samples, int warmup) {
  return run_shape("select", "mmhd_select", seq, kSelectHiddenStates,
                   kSymbols, kRestarts, false, samples, warmup);
}

// One fine-fit shape. Its ratio is fastest against fastest: this kernel
// runs a few milliseconds, and on a shared host such short samples fall
// into two speed modes up to 1.5x apart, which swings a ratio of medians
// by +-25% from run to run; the minima of the alternating samples keep it
// within +-5%.
ShapeRow run_fine(const char* name, const std::vector<int>& seq, int samples,
                  int warmup) {
  char label[32];
  std::snprintf(label, sizeof(label), "fine:%s", name);
  return run_shape(label, name, seq, kFineHiddenStates, kFineSymbols,
                   kFineRestarts, true, samples, warmup);
}

// One survey-sized shape: fits of a few milliseconds, so minima compare,
// as for the fine rows.
ShapeRow run_survey(const char* name, const std::vector<int>& seq,
                    int hidden_states, int symbols, int restarts, int samples,
                    int warmup) {
  char label[32];
  std::snprintf(label, sizeof(label), "survey:%s", name);
  return run_shape(label, name, seq, hidden_states, symbols, restarts, true,
                   samples, warmup);
}

std::string json_timing(const FitTiming& t) {
  char buf[256];
  std::string samples = "[";
  for (std::size_t i = 0; i < t.wall.samples_ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", i > 0 ? "," : "",
                  t.wall.samples_ms[i]);
    samples += buf;
  }
  samples += "]";
  std::snprintf(buf, sizeof(buf),
                "{\"median_ms\":%.3f,\"spread_ms\":%.3f,\"samples_ms\":%s,"
                "\"iterations\":%d,\"restarts\":%d,\"log_likelihood\":%.6f}",
                t.wall.median_ms, t.wall.spread_ms, samples.c_str(),
                t.iterations, t.restarts, t.log_likelihood);
  return buf;
}

std::string json_block(const char* name, const ModelScaling& s) {
  const std::size_t hw = util::ThreadPool::hardware_threads();
  char buf[256];
  std::string kernel = "{";
  for (std::size_t i = 0; i < s.threads.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%d\":", i > 0 ? "," : "",
                  s.threads[i]);
    kernel += buf;
    std::string row = json_timing(s.kernel[i]);
    // Per-row oversubscription flag so downstream gates can (and must)
    // skip rows where threads exceed the machine's real core count.
    row.pop_back();  // drop the closing brace, re-added after the flag
    std::snprintf(buf, sizeof(buf), ",\"oversubscribed\":%s}",
                  static_cast<std::size_t>(s.threads[i]) > hw ? "true"
                                                              : "false");
    kernel += row;
    kernel += buf;
  }
  kernel += "}";
  std::string out = "\"";
  out += name;
  std::snprintf(buf, sizeof(buf), "\":{\"hidden_states\":%d,",
                s.hidden_states);
  out += buf;
  out += "\"naive_1t\":" + json_timing(s.naive_1t) + ",";
  out += "\"kernel\":" + kernel + ",";
  std::snprintf(buf, sizeof(buf),
                "\"kernel_vs_naive_1t\":%.3f,"
                "\"speedup_4t\":%.3f,\"speedup_4t_oversubscribed\":%s}",
                s.kernel_vs_naive_1t, s.speedup_4t, hw < 4 ? "true" : "false");
  out += buf;
  return out;
}

std::string json_shape_body(const ShapeRow& f) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "\"loss_frac\":%.4f,\"longest_run\":%zu,",
                f.loss_frac, f.longest_run);
  std::string out = buf;
  out += "\"naive_1t\":" + json_timing(f.naive_1t) + ",";
  out += "\"kernel_1t\":" + json_timing(f.kernel_1t) + ",";
  std::snprintf(buf, sizeof(buf), "\"kernel_vs_naive_1t\":%.3f",
                f.kernel_vs_naive_1t);
  return out + buf;
}

std::string json_select(const ShapeRow& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"mmhd_select\":{\"hidden_states\":%d,\"symbols\":%d,"
                "\"restarts\":%d,",
                s.hidden_states, kSymbols, kRestarts);
  return buf + json_shape_body(s) + "}";
}

std::string json_fine(const std::vector<ShapeRow>& shapes) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"mmhd_fine\":{\"hidden_states\":%d,\"symbols\":%d,"
                "\"restarts\":%d",
                kFineHiddenStates, kFineSymbols, kFineRestarts);
  std::string out = buf;
  for (const ShapeRow& f : shapes)
    out += std::string(",\"") + f.name + "\":{" + json_shape_body(f) + "}";
  out += "}";
  return out;
}

std::string json_survey(const ShapeRow& coarse, const ShapeRow& fine) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"mmhd_survey\":{\"t_len\":%d,\"gated\":false,"
                "\"coarse\":{\"hidden_states\":%d,\"symbols\":%d,"
                "\"observed_symbols\":%d,\"restarts\":%d,",
                kSurveyLen, coarse.hidden_states, kSymbols, kSymbols / 2,
                kRestarts);
  std::string out = buf + json_shape_body(coarse) + "},";
  std::snprintf(buf, sizeof(buf),
                "\"fine\":{\"hidden_states\":%d,\"symbols\":%d,"
                "\"observed_symbols\":%d,\"restarts\":%d,",
                fine.hidden_states, kFineSymbols, kFineSymbols / 2,
                kFineRestarts);
  return out + buf + json_shape_body(fine) + "}}";
}

}  // namespace
}  // namespace dcl

int main(int argc, char** argv) {
  using namespace dcl;
  bench::BenchTraceGuard trace_guard("bench_em_scaling");
  bench::BenchProfileGuard profile_guard("bench_em_scaling");
  std::string out_path = "BENCH_em_scaling.json";
  double min_kernel_speedup = 0.0;
  // Flags override the environment knobs so callers that must produce
  // comparable series (scripts/bench_baseline.sh) can pin the sample
  // count explicitly instead of inheriting whatever the shell exports.
  int samples = bench::env_int("DCL_EM_SCALING_SAMPLES", 3, 1);
  int warmup = bench::env_int("DCL_EM_SCALING_WARMUP", 1, 0);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-kernel-speedup") == 0 && i + 1 < argc) {
      min_kernel_speedup = std::atof(argv[++i]);
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

  // ThreadPool::hardware_threads() never reports 0 (hardware_concurrency()
  // may), so the recorded count is the one the restart engine actually
  // resolves against when deciding thread splits.
  const std::size_t hw = util::ThreadPool::hardware_threads();
  std::printf(
      "EM scaling: T=%d M=%d restarts=%d iterations=%d "
      "(%zu hw threads, median of %d after %d warmup)\n",
      kTLen, kSymbols, kRestarts, kIterations, hw, samples, warmup);
  const auto hmm = run_model<inference::Hmm>("hmm", seq, 3, samples, warmup);
  const auto mmhd =
      run_model<inference::Mmhd>("mmhd", seq, 2, samples, warmup);
  const ShapeRow select = run_select(seq, samples, warmup);
  const std::vector<ShapeRow> fine = {
      run_fine("congested",
               fine_sequence(static_cast<std::size_t>(kTLen), false, 43),
               samples, warmup),
      run_fine("loss_heavy",
               fine_sequence(static_cast<std::size_t>(kTLen), true, 44),
               samples, warmup)};
  // Survey rows: the observed symbols are the lower half of the declared
  // alphabet.
  const auto survey_len = static_cast<std::size_t>(kSurveyLen);
  const ShapeRow survey_coarse = run_survey(
      "coarse", synth_sequence(survey_len, kSymbols / 2, 45),
      kSurveyHiddenStates, kSymbols, kRestarts, samples, warmup);
  const ShapeRow survey_fine = run_survey(
      "fine", fine_sequence(survey_len, false, 46, kFineSymbols / 2),
      kFineHiddenStates, kFineSymbols, kFineRestarts, samples, warmup);

  char head[320];
  std::snprintf(head, sizeof(head),
                "{\"bench\":\"em_scaling\",\"t_len\":%d,\"symbols\":%d,"
                "\"restarts\":%d,\"iterations\":%d,\"hardware_threads\":%zu,"
                "\"samples\":%d,\"warmup\":%d,",
                kTLen, kSymbols, kRestarts, kIterations, hw, samples, warmup);
  const std::string line = std::string(head) + "\"manifest\":" +
                           obs::manifest("em_scaling").to_json() + "," +
                           json_block("hmm", hmm) + "," +
                           json_block("mmhd", mmhd) + "," +
                           json_select(select) + "," + json_fine(fine) + "," +
                           json_survey(survey_coarse, survey_fine) + "}";
  std::ofstream out(out_path);
  DCL_ENSURE_MSG(out.good(), "cannot open benchmark output file");
  out << line << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (min_kernel_speedup > 0.0) {
    double worst = std::min({hmm.kernel_vs_naive_1t, mmhd.kernel_vs_naive_1t,
                             select.kernel_vs_naive_1t});
    for (const ShapeRow& f : fine)
      worst = std::min(worst, f.kernel_vs_naive_1t);
    if (worst < min_kernel_speedup) {
      std::fprintf(stderr, "FAIL: kernel speedup %.2fx below required %.2fx\n",
                   worst, min_kernel_speedup);
      return 1;
    }
    std::printf("kernel speedup %.2fx >= %.2fx required\n", worst,
                min_kernel_speedup);
  }
  return 0;
}
