// dcl::fleet — the fleet-scale batch engine: N traces, one process.
//
// Runs the full analyze_trace pipeline over a manifest of traces with two
// levels of parallelism: an *outer* across-trace worker pool (a dynamic
// work queue over util::ThreadPool, so a slow trace never serializes the
// traces behind it) and the *inner* per-fit EM thread budget each
// pipeline run already has (EmOptions::threads). The two classic modes —
// many single-threaded fits in parallel (trace count >= cores) vs few
// multi-threaded fits (trace count < cores) — are picked automatically
// from the trace count and ThreadPool::hardware_threads(), with explicit
// per-level overrides for operators who know better.
//
// Determinism contract (DESIGN.md §5.9): the fleet result is bitwise
// identical to N sequential analyze_trace calls for ANY outer x inner
// split. Three mechanisms carry that:
//   * per-trace forked RNG streams — trace i's seed is drawn from one
//     deterministic chain seeded by the base config seed, precomputed in
//     index order before any dispatch;
//   * index-addressed result slots — workers write only their own trace's
//     outcome, no shared accumulation;
//   * the existing per-fit guarantee that EmOptions::threads never
//     changes a fit result.
//
// Failure isolation (the PR 5 taxonomy): a trace that cannot be read, or
// whose strict-mode analysis throws, becomes a typed kFailed outcome
// (ErrorCode string preserved) without sinking the fleet; a trace whose
// pipeline degraded-but-answered is kDegraded. The per-trace tri-state
// mirrors dclid's exit-code ladder (0/1/2) at fleet granularity.
//
// Observability: the run feeds the global registry — windowed counters
// fleet.traces_done / _ok / _degraded / _failed, the fleet.progress
// gauge, and per trace the fleet.trace stage (span.fleet.trace wall time
// while metrics are on) — so a live `dclfleet --serve` exposes throughput
// and progress on /metrics and /statusz mid-run, and every trace is a
// flight-recorder scope when tracing is on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "trace/trace_io.h"

namespace dcl::fleet {

// Which of the two threading shapes a plan uses. kManySingle is the
// throughput shape (outer-wide, inner=1); kFewMulti the latency shape
// (few traces, each fit multi-threaded).
enum class ThreadingMode { kManySingle, kFewMulti };

const char* to_string(ThreadingMode m);

// Resolved two-level split: `outer` concurrent traces, `inner` EM worker
// threads inside each fit.
struct ThreadPlan {
  int outer = 1;
  int inner = 1;
  ThreadingMode mode = ThreadingMode::kManySingle;
  bool auto_selected = true;  // false when either level was overridden
};

// Mode-selection rule (pure, unit-testable):
//   * explicit overrides (requested > 0) win per level; a level left at 0
//     is derived from the other so the product tracks hardware_threads;
//   * auto (both 0): traces >= hardware threads -> many-single (outer =
//     hw, inner = 1); traces < hardware threads -> few-multi (outer =
//     trace count, inner = hw / outer).
// `outer` is always clamped to [1, max(traces, 1)], `inner` floored at 1.
ThreadPlan plan_threads(std::size_t traces, unsigned hardware_threads,
                        int outer_requested, int inner_requested);

// One unit of fleet work: a trace on disk (path) or already in memory
// (preloaded; used by the synthetic benches and tests). `id` labels the
// outcome in reports and JSON-lines output.
struct TraceJob {
  std::string id;
  std::string path;  // read via trace::read_trace_file when non-empty
  std::shared_ptr<const trace::Trace> preloaded;  // wins over path
};

// Per-trace exit-status tri-state, mirroring dclid's 0/1/2 ladder.
enum class TraceStatus {
  kOk,        // clean answer
  kDegraded,  // pipeline degraded (repairs / skips / no verdict), reported
  kFailed,    // trace unreadable or analysis threw: typed error, no result
};

const char* to_string(TraceStatus s);

struct TraceOutcome {
  std::size_t index = 0;  // position in the job list
  std::string id;
  TraceStatus status = TraceStatus::kFailed;
  // Non-empty iff kFailed: "<error_code>: message" from the util::Error
  // taxonomy ("io", "invalid_input", ...).
  std::string error;
  std::uint64_t seed = 0;  // per-trace forked seed the analysis used
  std::size_t probes = 0;  // records read (0 when the read itself failed)
  double wall_s = 0.0;     // read + analyze wall time for this trace
  // false for outcomes this run did NOT execute: checkpoint replays
  // (FleetConfig::completed) and traces skipped by cancellation. dclfleet
  // journals only executed outcomes, so a resumed run never re-appends
  // frames it replayed (DESIGN.md §5.12).
  bool executed = true;
  // Valid unless status == kFailed.
  core::PipelineResult result;
};

struct FleetConfig {
  // Per-trace pipeline template. `pipeline.identifier.em.seed` is the
  // fleet's base seed: each trace analyzes with its own stream forked
  // from it (disable with fork_seeds = false to run every trace at the
  // literal base seed). `pipeline.identifier.em.threads` is overwritten
  // by the plan's inner budget.
  core::PipelineConfig pipeline;
  int outer_threads = 0;  // concurrent traces; 0 = auto
  int inner_threads = 0;  // EM threads per fit; 0 = auto
  bool fork_seeds = true;

  // --- durable execution (DESIGN.md §5.12) --------------------------------

  // Bounded retry of *transient* per-trace failures (kIo, kResourceLimit)
  // with exponential backoff + jitter, seeded from the trace's forked
  // seed. Permanent failures (kInvalidInput, kInternal, kDegenerateModel)
  // never retry. 0 (default) keeps the single-attempt behavior bit-exact.
  int trace_retries = 0;
  double retry_base_s = 0.05;
  double retry_max_s = 2.0;

  // Watchdog: when > 0, a monitor thread flags any trace executing longer
  // than this and the engine marks it kFailed("resource_limit: trace
  // timeout...") at the join — without killing the worker mid-fit, so the
  // fleet's memory stays intact. 0 disables.
  double trace_timeout_s = 0.0;

  // Cooperative cancellation (SIGTERM drain): when set and it becomes
  // true, workers finish the traces they already claimed and every
  // not-yet-claimed trace becomes a non-executed "cancelled" outcome.
  // parallel_dynamic claims indices in order, so the completed prefix
  // stays contiguous-per-worker and a later --resume completes the rest.
  const std::atomic<bool>* cancel = nullptr;

  // Checkpointed outcomes replayed instead of executed (journal resume):
  // each is delivered through on_done (executed = false) and lands in the
  // report, and its index is skipped by the dispatch loop.
  std::vector<TraceOutcome> completed;
};

struct FleetReport {
  ThreadPlan plan;
  std::vector<TraceOutcome> traces;  // index order, one per job
  std::size_t ok = 0;
  std::size_t degraded = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;  // skipped by cfg.cancel before starting
  std::size_t replayed = 0;   // satisfied from cfg.completed, not executed
  double wall_s = 0.0;        // whole-fleet wall time
  double paths_per_sec = 0.0;  // traces.size() / wall_s
};

// Completion callback, invoked once per trace as outcomes land —
// *completion* order, serialized by an internal mutex (so implementations
// need no locking of their own). Used by dclfleet for ordered streaming
// output; must not call back into the engine.
using ProgressFn = std::function<void(const TraceOutcome&)>;

// Runs the fleet to completion and returns every outcome in index order.
// Never throws for per-trace failures (they land as kFailed outcomes);
// throws util::Error only for engine-level misuse (empty job list).
FleetReport run_fleet(const std::vector<TraceJob>& jobs,
                      const FleetConfig& cfg,
                      const ProgressFn& on_done = nullptr);

}  // namespace dcl::fleet
