#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "faults/faults.h"
#include "obs/obs.h"
#include "obs/window.h"
#include "util/backoff.h"
#include "util/crash.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dcl::fleet {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Transient vs permanent (DESIGN.md §5.12): I/O and resource-limit
// failures may clear on a retry (NFS hiccup, deadline pressure from a
// neighboring fit); input and model errors are properties of the trace
// and retrying re-fails identically.
bool transient_error(util::ErrorCode code) {
  return code == util::ErrorCode::kIo ||
         code == util::ErrorCode::kResourceLimit;
}

}  // namespace

const char* to_string(ThreadingMode m) {
  switch (m) {
    case ThreadingMode::kManySingle: return "many-single";
    case ThreadingMode::kFewMulti: return "few-multi";
  }
  return "unknown";
}

const char* to_string(TraceStatus s) {
  switch (s) {
    case TraceStatus::kOk: return "ok";
    case TraceStatus::kDegraded: return "degraded";
    case TraceStatus::kFailed: return "failed";
  }
  return "unknown";
}

ThreadPlan plan_threads(std::size_t traces, unsigned hardware_threads,
                        int outer_requested, int inner_requested) {
  const int hw = static_cast<int>(std::max(1u, hardware_threads));
  const int max_outer =
      static_cast<int>(std::max<std::size_t>(1, std::min<std::size_t>(
                                                    traces, 1u << 20)));
  ThreadPlan plan;
  plan.auto_selected = outer_requested <= 0 && inner_requested <= 0;

  if (outer_requested > 0 && inner_requested > 0) {
    plan.outer = std::min(outer_requested, max_outer);
    plan.inner = inner_requested;
  } else if (outer_requested > 0) {
    // Outer pinned: give each fit the leftover share of the machine.
    plan.outer = std::min(outer_requested, max_outer);
    plan.inner = std::max(1, hw / std::max(1, outer_requested));
  } else if (inner_requested > 0) {
    // Inner pinned: as many concurrent traces as the machine still fits.
    plan.inner = inner_requested;
    plan.outer = std::min(std::max(1, hw / inner_requested), max_outer);
  } else if (traces >= static_cast<std::size_t>(hw)) {
    // N >> cores: the throughput shape — every core runs its own
    // single-threaded fit, zero intra-fit coordination.
    plan.outer = std::min(hw, max_outer);
    plan.inner = 1;
  } else {
    // N < cores: the latency shape — all traces at once, each fit taking
    // an equal share of the spare cores.
    plan.outer = max_outer;
    plan.inner = std::max(1, hw / plan.outer);
  }
  plan.mode = plan.inner > 1 ? ThreadingMode::kFewMulti
                             : ThreadingMode::kManySingle;
  return plan;
}

FleetReport run_fleet(const std::vector<TraceJob>& jobs,
                      const FleetConfig& cfg, const ProgressFn& on_done) {
  DCL_REQUIRE_INPUT(!jobs.empty(), "fleet: empty job list");

  FleetReport report;
  report.plan = plan_threads(jobs.size(), util::ThreadPool::hardware_threads(),
                             cfg.outer_threads, cfg.inner_threads);
  report.traces.resize(jobs.size());

  // Per-trace forked seeds, precomputed in index order before dispatch so
  // the stream a trace sees depends only on (base seed, index) — never on
  // scheduling. With fork_seeds off every trace runs the base seed.
  const std::uint64_t base_seed = cfg.pipeline.identifier.em.seed;
  std::vector<std::uint64_t> seeds(jobs.size(), base_seed);
  if (cfg.fork_seeds) {
    util::Rng chain(base_seed);
    for (auto& s : seeds) s = chain.engine()();
  }

  auto& reg = obs::Registry::global();
  reg.counter("fleet.traces_total").set(jobs.size());
  reg.gauge("fleet.progress").set(0.0);
  auto& done_ctr = reg.windowed_counter("fleet.traces_done");
  auto& ok_ctr = reg.windowed_counter("fleet.traces_ok");
  auto& degraded_ctr = reg.windowed_counter("fleet.traces_degraded");
  auto& failed_ctr = reg.windowed_counter("fleet.traces_failed");

  std::mutex done_mu;  // serializes on_done and the progress gauge
  std::atomic<std::size_t> done{0};

  // --- checkpoint replay (journal resume, §5.12) --------------------------
  // Replayed outcomes land in the report and flow through on_done (index
  // order, executed = false) *before* any dispatch, so downstream ordered
  // emitters see the identical sequence an uninterrupted run produced.
  std::vector<bool> is_replayed(jobs.size(), false);
  if (!cfg.completed.empty()) {
    auto& replayed_ctr = reg.windowed_counter("fleet.traces_replayed");
    std::vector<const TraceOutcome*> replay;
    replay.reserve(cfg.completed.size());
    for (const auto& c : cfg.completed) {
      if (c.index >= jobs.size() || is_replayed[c.index]) continue;
      is_replayed[c.index] = true;
      replay.push_back(&c);
    }
    std::sort(replay.begin(), replay.end(),
              [](const TraceOutcome* a, const TraceOutcome* b) {
                return a->index < b->index;
              });
    for (const TraceOutcome* c : replay) {
      TraceOutcome& out = report.traces[c->index];
      out = *c;
      out.executed = false;
      // Replays keep the authoritative id from the job list: journal
      // entries truncate long ids at their fixed frame capacity.
      out.id = jobs[c->index].id;
      out.seed = seeds[c->index];
      replayed_ctr.add(1);
      ++report.replayed;
      const std::size_t n_done =
          done.fetch_add(1, std::memory_order_relaxed) + 1;
      reg.gauge("fleet.progress")
          .set(static_cast<double>(n_done) / static_cast<double>(jobs.size()));
      if (on_done) on_done(out);
    }
  }

  std::vector<std::size_t> todo;
  todo.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (!is_replayed[i]) todo.push_back(i);

  // --- watchdog state (§5.12) ---------------------------------------------
  // The monitor thread polls the in-flight registry and flags, never
  // kills: the flagged trace finishes (or the process is killed by the
  // operator) and the engine rewrites its outcome at the join. gauge
  // fleet.stuck_trace_age_s exposes the oldest in-flight age either way.
  std::unique_ptr<std::atomic<bool>[]> timed_out;
  if (cfg.trace_timeout_s > 0.0) {
    timed_out.reset(new std::atomic<bool>[jobs.size()]);
    for (std::size_t i = 0; i < jobs.size(); ++i)
      timed_out[i].store(false, std::memory_order_relaxed);
  }
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog;
  if (timed_out) {
    auto& flagged_ctr = reg.windowed_counter("fleet.watchdog_flagged");
    watchdog = std::thread([&, timeout_s = cfg.trace_timeout_s] {
      auto& age_gauge = reg.gauge("fleet.stuck_trace_age_s");
      while (!watchdog_stop.load(std::memory_order_acquire)) {
        util::crash::Inflight snap[util::crash::kInflightSlots];
        const int n = util::crash::inflight_snapshot(
            snap, util::crash::kInflightSlots);
        const std::uint64_t now = now_ns();
        double oldest_s = 0.0;
        for (int k = 0; k < n; ++k) {
          const double age_s =
              now > snap[k].start_ns
                  ? static_cast<double>(now - snap[k].start_ns) * 1e-9
                  : 0.0;
          oldest_s = std::max(oldest_s, age_s);
          if (age_s > timeout_s && snap[k].index < jobs.size() &&
              !timed_out[snap[k].index].exchange(
                  true, std::memory_order_acq_rel)) {
            flagged_ctr.add(1);
            obs::trace::instant("fleet.watchdog_flagged",
                                static_cast<double>(snap[k].index));
          }
        }
        age_gauge.set(oldest_s);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      age_gauge.set(0.0);
    });
  }

  auto& retries_ctr = reg.windowed_counter("fleet.retries");
  auto& exhausted_ctr = reg.windowed_counter("fleet.retry_exhausted");
  auto& cancelled_ctr = reg.windowed_counter("fleet.traces_cancelled");

  auto process = [&](std::size_t i) {
    TraceOutcome& out = report.traces[i];
    out.index = i;
    out.id = jobs[i].id;
    out.seed = seeds[i];

    // Drain check: a cancelled trace was never started — it is not an
    // error, not delivered to on_done (output must stay a clean prefix),
    // and a later --resume will execute it.
    if (cfg.cancel != nullptr && cfg.cancel->load(std::memory_order_acquire)) {
      out.status = TraceStatus::kFailed;
      out.error = "cancelled: drained before start (resume to complete)";
      out.executed = false;
      cancelled_ctr.add(1);
      return;
    }

    {
      // The per-trace stage, timed into span.fleet.trace over exactly the
      // span out.wall_s measures.
      DCL_STAGE_V("fleet.trace", i);
      const double t0 = now_s();

      core::PipelineConfig pcfg = cfg.pipeline;
      pcfg.identifier.em.seed = seeds[i];
      pcfg.identifier.em.threads = report.plan.inner;
      // The observer hook buffers per-restart events and replays them on
      // the fit's calling thread — here an outer worker, concurrent with
      // its siblings. A caller-supplied observer would need locking it was
      // never promised to need, so the fleet runs fits unobserved.
      pcfg.identifier.em.observer = nullptr;

      const int max_attempts = std::max(0, cfg.trace_retries) + 1;
      util::Backoff backoff(cfg.retry_base_s, cfg.retry_max_s, seeds[i]);
      const int slot = util::crash::inflight_claim(i, now_ns());

      for (int attempt = 0; attempt < max_attempts; ++attempt) {
        try {
          faults::proc::on_trace_start(i);
          const trace::Trace* active = jobs[i].preloaded.get();
          trace::Trace loaded;
          if (active == nullptr) {
            loaded = trace::read_trace_file(jobs[i].path);
            active = &loaded;
          }
          out.probes = active->records.size();
          out.result = core::analyze_trace(*active, pcfg);
          out.status = out.result.degraded ? TraceStatus::kDegraded
                                           : TraceStatus::kOk;
          out.error.clear();  // an earlier attempt's error is superseded
          break;
        } catch (const util::Error& e) {
          // Unreadable file, or a strict-mode (sanitize=false) analysis
          // throw: typed, isolated, the fleet moves on.
          out.status = TraceStatus::kFailed;
          out.error = std::string(util::to_string(e.code())) + ": " + e.what();
          obs::trace::instant("fleet.trace_failed", static_cast<double>(i));
          const bool retryable = transient_error(e.code()) &&
                                 attempt + 1 < max_attempts &&
                                 (cfg.cancel == nullptr ||
                                  !cfg.cancel->load(std::memory_order_acquire));
          if (!retryable) {
            if (transient_error(e.code()) && cfg.trace_retries > 0)
              exhausted_ctr.add(1);
            break;
          }
          retries_ctr.add(1);
          obs::trace::instant("fleet.trace_retry", static_cast<double>(i));
          std::this_thread::sleep_for(
              std::chrono::duration<double>(backoff.next_s()));
        } catch (const std::exception& e) {
          out.status = TraceStatus::kFailed;
          out.error = std::string("internal: ") + e.what();
          obs::trace::instant("fleet.trace_failed", static_cast<double>(i));
          break;
        }
      }
      if (slot >= 0) util::crash::inflight_release(slot);
      out.wall_s = now_s() - t0;
    }

    // A watchdog flag overrides whatever the late-finishing attempt
    // produced: the operator asked for a bound, the bound was blown.
    if (timed_out && timed_out[i].load(std::memory_order_acquire)) {
      out.status = TraceStatus::kFailed;
      out.error = "resource_limit: trace timeout (watchdog, > " +
                  std::to_string(cfg.trace_timeout_s) + " s)";
    }

    done_ctr.add(1);
    switch (out.status) {
      case TraceStatus::kOk: ok_ctr.add(1); break;
      case TraceStatus::kDegraded: degraded_ctr.add(1); break;
      case TraceStatus::kFailed: failed_ctr.add(1); break;
    }
    const std::size_t n_done = done.fetch_add(1, std::memory_order_relaxed) + 1;
    {
      std::lock_guard<std::mutex> lock(done_mu);
      reg.gauge("fleet.progress")
          .set(static_cast<double>(n_done) /
               static_cast<double>(jobs.size()));
      if (on_done) on_done(out);
    }
  };

  const double fleet_t0 = now_s();
  {
    DCL_STAGE("fleet.run");
    if (report.plan.outer <= 1) {
      for (const std::size_t i : todo) process(i);
    } else if (!todo.empty()) {
      util::ThreadPool pool(static_cast<std::size_t>(report.plan.outer));
      util::parallel_dynamic(&pool, todo.size(),
                             [&](std::size_t k) { process(todo[k]); });
    }
  }
  if (watchdog.joinable()) {
    watchdog_stop.store(true, std::memory_order_release);
    watchdog.join();
  }
  report.wall_s = now_s() - fleet_t0;
  report.paths_per_sec =
      report.wall_s > 0.0
          ? static_cast<double>(jobs.size()) / report.wall_s
          : 0.0;

  for (std::size_t i = 0; i < report.traces.size(); ++i) {
    const TraceOutcome& t = report.traces[i];
    if (!t.executed && !is_replayed[i]) {
      // Cancelled before start: not a real failure, tallied separately.
      // Replays keep their checkpointed status in the tri-state tallies.
      ++report.cancelled;
      continue;
    }
    switch (t.status) {
      case TraceStatus::kOk: ++report.ok; break;
      case TraceStatus::kDegraded: ++report.degraded; break;
      case TraceStatus::kFailed: ++report.failed; break;
    }
  }
  return report;
}

}  // namespace dcl::fleet
