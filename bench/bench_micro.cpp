// Microbenchmarks (google-benchmark): EM iteration throughput for HMM and
// MMHD across sequence lengths and state counts, simulator event
// throughput, discretization, and clock-skew estimation. Not part of the
// paper — these quantify the implementation itself.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench/common.h"
#include "inference/discretizer.h"
#include "inference/hmm.h"
#include "inference/mmhd.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "scenarios/presets.h"
#include "sim/droptail.h"
#include "sim/network.h"
#include "timesync/skew.h"
#include "util/rng.h"

namespace dcl {
namespace {

// Warmup + median-of-N for the EM fit benchmarks: a minimum warmup window
// pages in the working set before timing starts, and repetition
// aggregates (mean/median/stddev) report the spread, so a kernel speedup
// is only believed when it clears the run-to-run noise. DCL_BENCH_REPS
// and DCL_BENCH_WARMUP_S override without a rebuild.
void apply_fit_stats(benchmark::internal::Benchmark* b) {
  const char* reps_s = std::getenv("DCL_BENCH_REPS");
  const int reps = reps_s != nullptr ? std::atoi(reps_s) : 3;
  const char* warm_s = std::getenv("DCL_BENCH_WARMUP_S");
  const double warm = warm_s != nullptr ? std::atof(warm_s) : 0.25;
  if (warm > 0.0) b->MinWarmUpTime(warm);
  if (reps > 1) b->Repetitions(reps)->ReportAggregatesOnly(true);
}

// Synthetic observation sequence resembling a congested path: sticky
// symbols, losses concentrated at the top symbol.
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

void BM_MmhdFit(benchmark::State& state) {
  const auto t_len = static_cast<std::size_t>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const auto seq = synth_sequence(t_len, 10, 42);
  inference::EmOptions eo;
  eo.hidden_states = n;
  eo.max_iterations = 10;  // fixed iteration count: measures raw E+M cost
  eo.tolerance = 0.0;
  for (auto _ : state) {
    inference::Mmhd model(n, 10);
    auto fit = model.fit(seq, eo);
    benchmark::DoNotOptimize(fit.log_likelihood);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(t_len) * 10 *
                          state.iterations());
}
BENCHMARK(BM_MmhdFit)
    ->Args({5000, 1})
    ->Args({5000, 2})
    ->Args({5000, 4})
    ->Args({20000, 2})
    ->Apply(apply_fit_stats)
    ->Unit(benchmark::kMillisecond);

void BM_HmmFit(benchmark::State& state) {
  const auto t_len = static_cast<std::size_t>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const auto seq = synth_sequence(t_len, 10, 43);
  inference::EmOptions eo;
  eo.hidden_states = n;
  eo.max_iterations = 10;
  eo.tolerance = 0.0;
  for (auto _ : state) {
    inference::Hmm model(n, 10);
    auto fit = model.fit(seq, eo);
    benchmark::DoNotOptimize(fit.log_likelihood);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(t_len) * 10 *
                          state.iterations());
}
BENCHMARK(BM_HmmFit)
    ->Args({5000, 2})
    ->Args({5000, 4})
    ->Args({20000, 2})
    ->Apply(apply_fit_stats)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Network net;
    const auto a = net.add_node();
    const auto b = net.add_node();
    net.add_link(a, b, 1e9, 0.001, std::make_unique<sim::DropTailQueue>(1 << 20));
    net.compute_routes();
    // Pre-inject a packet train; the link service chain dominates.
    net.sim().schedule_at(0.0, [&net, a, b]() {
      for (int i = 0; i < 20000; ++i) {
        sim::Packet p;
        p.src = a;
        p.dst = b;
        p.flow = 1;
        p.size_bytes = 1000;
        net.inject(p);
      }
    });
    state.ResumeTiming();
    net.sim().run();
    benchmark::DoNotOptimize(net.sim().events_processed());
    state.SetItemsProcessed(
        state.items_processed() +
        static_cast<std::int64_t>(net.sim().events_processed()));
  }
}
BENCHMARK(BM_SimulatorEventThroughput)->Unit(benchmark::kMillisecond);

void BM_ChainScenarioSecond(benchmark::State& state) {
  // Cost of one simulated second of the paper's SDCL workload.
  for (auto _ : state) {
    auto cfg = scenarios::presets::sdcl_chain(1e6, 7, 20.0, 5.0);
    scenarios::ChainScenario sc(cfg);
    sc.run();
    benchmark::DoNotOptimize(sc.observations().size());
  }
  state.SetItemsProcessed(20 * state.iterations());  // simulated seconds
}
BENCHMARK(BM_ChainScenarioSecond)->Unit(benchmark::kMillisecond);

void BM_Discretize(benchmark::State& state) {
  util::Rng rng(7);
  inference::ObservationSequence obs;
  for (int i = 0; i < 100000; ++i)
    obs.push_back(inference::Observation::received(0.02 + rng.uniform(0, 0.2)));
  inference::DiscretizerConfig dc;
  const auto disc = inference::Discretizer::from_observations(obs, dc);
  for (auto _ : state) {
    auto seq = disc.discretize(obs);
    benchmark::DoNotOptimize(seq.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(obs.size()) *
                          state.iterations());
}
BENCHMARK(BM_Discretize)->Unit(benchmark::kMillisecond);

void BM_SkewEstimate(benchmark::State& state) {
  util::Rng rng(9);
  std::vector<double> t, m;
  for (int i = 0; i < 50000; ++i) {
    t.push_back(i * 0.02);
    m.push_back(0.05 + rng.exponential(0.01) + 1e-4 * i * 0.02);
  }
  for (auto _ : state) {
    auto est = timesync::estimate_skew(t, m);
    benchmark::DoNotOptimize(est.skew);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(t.size()) *
                          state.iterations());
}
BENCHMARK(BM_SkewEstimate)->Unit(benchmark::kMillisecond);

// Flight-recorder overhead, the obs/trace.h contract: disabled, an emit is
// one relaxed load and a branch (sub-nanosecond); enabled, a TLS lookup, a
// clock read, and five relaxed stores into the thread's own ring.
void BM_TraceEventDisabled(benchmark::State& state) {
  const bool was = obs::trace::enabled();
  obs::trace::set_enabled(false);
  for (auto _ : state) obs::trace::counter("bench.trace", 1.0);
  obs::trace::set_enabled(was);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEventDisabled);

// Profiler tag-stack overhead, the obs/prof.h contract: with the sampler
// off (the permanent state of every production run that never profiles),
// a DCL_STAGE still pushes/pops its stage tag — one TLS pointer store, an
// int bump, and two compile-time signal fences. check.sh gates this
// against its baseline.
void BM_ProfTagDisabled(benchmark::State& state) {
  for (auto _ : state) {
    obs::prof::push_tag("bench.stage");
    benchmark::ClobberMemory();
    obs::prof::pop_tag();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfTagDisabled);

// A whole DCL_STAGE with metrics, tracing and the sampler off: the tag
// push/pop above plus the two inline enable checks. Its budget is a
// disabled trace emit plus a tag push; check.sh gates it against its
// baseline.
void BM_StageDisabled(benchmark::State& state) {
  const bool metrics_was = obs::enabled();
  const bool trace_was = obs::trace::enabled();
  obs::set_enabled(false);
  obs::trace::set_enabled(false);
  for (auto _ : state) {
    DCL_STAGE("bench.stage");
    benchmark::ClobberMemory();
  }
  obs::set_enabled(metrics_was);
  obs::trace::set_enabled(trace_was);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageDisabled);

void BM_TraceEventEnabled(benchmark::State& state) {
  // Reuse an active session (DCL_BENCH_TRACE) or run a private one.
  const bool was_active = obs::trace::enabled();
  auto& session = obs::trace::TraceSession::instance();
  if (!was_active) session.start(1u << 12);
  for (auto _ : state) obs::trace::counter("bench.trace", 1.0);
  if (!was_active) session.stop();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEventEnabled);

// Windowed-metrics overhead, the obs/window.h contract: a windowed record
// is the cumulative histogram record plus one epoch-slot find (relaxed
// load, usually hit) and one bucket store — budgeted at <= ~2x the plain
// record. The pair below is the guard: scripts/check.sh compares them.
void BM_HistogramRecordCumulative(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("bench.lat");
  double x = 1e-6;
  for (auto _ : state) {
    h.record(x);
    x = x < 1.0 ? x * 1.0000001 : 1e-6;  // vary the bucket a little
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecordCumulative);

void BM_HistogramRecordWindowed(benchmark::State& state) {
  obs::Registry reg;
  obs::window::WindowedHistogram& h = reg.windowed_histogram("bench.lat");
  double x = 1e-6;
  for (auto _ : state) {
    h.record(x);
    x = x < 1.0 ? x * 1.0000001 : 1e-6;
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecordWindowed);

}  // namespace
}  // namespace dcl

int main(int argc, char** argv) {
  // DCL_BENCH_TRACE=FILE flight-records the whole benchmark run;
  // DCL_BENCH_PROFILE=FILE samples it with the CPU profiler.
  dcl::bench::BenchTraceGuard trace_guard("bench_micro");
  dcl::bench::BenchProfileGuard profile_guard("bench_micro");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
