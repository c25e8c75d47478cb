// dcl::fleet — the batch engine's three contracts:
//   * plan_threads: the auto many-single / few-multi selection rule and
//     the override/clamp semantics (pure function, exact expectations);
//   * determinism: run_fleet verdicts are bitwise identical to the
//     sequential reference for every outer x inner split in the matrix
//     outer in {1,2,4} x inner in {1,2};
//   * failure isolation: one corrupt trace in a 20-trace fleet becomes a
//     typed kFailed outcome and the other 19 still answer.
// Plus manifest discovery (directory glob order, manifest parsing,
// relative-path resolution, typed errors) and the fleet.* observability
// counters the /statusz progress view reads.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <atomic>

#include "core/pipeline.h"
#include "faults/faults.h"
#include "fleet/fleet.h"
#include "fleet/journal.h"
#include "fleet/manifest.h"
#include "fleet/synth.h"
#include "obs/obs.h"
#include "obs/window.h"
#include "trace/trace_io.h"
#include "util/error.h"
#include "util/rng.h"

namespace dcl::fleet {
namespace {

// ---------------------------------------------------------------- plan --

TEST(PlanThreads, AutoPicksManySingleWhenTracesCoverTheMachine) {
  const auto p = plan_threads(32, 8, 0, 0);
  EXPECT_EQ(p.outer, 8);
  EXPECT_EQ(p.inner, 1);
  EXPECT_EQ(p.mode, ThreadingMode::kManySingle);
  EXPECT_TRUE(p.auto_selected);
}

TEST(PlanThreads, AutoPicksFewMultiWhenMachineOutsizesFleet) {
  const auto p = plan_threads(2, 8, 0, 0);
  EXPECT_EQ(p.outer, 2);
  EXPECT_EQ(p.inner, 4);
  EXPECT_EQ(p.mode, ThreadingMode::kFewMulti);
  EXPECT_TRUE(p.auto_selected);
}

TEST(PlanThreads, AutoFewMultiRoundsInnerDown) {
  // 3 traces on 8 cores: inner = 8/3 = 2, leaving two cores idle rather
  // than oversubscribing.
  const auto p = plan_threads(3, 8, 0, 0);
  EXPECT_EQ(p.outer, 3);
  EXPECT_EQ(p.inner, 2);
  EXPECT_EQ(p.mode, ThreadingMode::kFewMulti);
}

TEST(PlanThreads, AutoExactFitBoundary) {
  // traces == hw sits on the many-single side.
  const auto p = plan_threads(8, 8, 0, 0);
  EXPECT_EQ(p.outer, 8);
  EXPECT_EQ(p.inner, 1);
  EXPECT_EQ(p.mode, ThreadingMode::kManySingle);
}

TEST(PlanThreads, SingleCoreAlwaysSerial) {
  const auto p = plan_threads(100, 1, 0, 0);
  EXPECT_EQ(p.outer, 1);
  EXPECT_EQ(p.inner, 1);
  EXPECT_EQ(p.mode, ThreadingMode::kManySingle);
}

TEST(PlanThreads, ExplicitOverridesWin) {
  const auto p = plan_threads(100, 8, 3, 2);
  EXPECT_EQ(p.outer, 3);
  EXPECT_EQ(p.inner, 2);
  EXPECT_FALSE(p.auto_selected);
}

TEST(PlanThreads, OuterPinnedDerivesInnerFromLeftoverShare) {
  const auto p = plan_threads(100, 8, 2, 0);
  EXPECT_EQ(p.outer, 2);
  EXPECT_EQ(p.inner, 4);
  EXPECT_FALSE(p.auto_selected);
}

TEST(PlanThreads, InnerPinnedDerivesOuterFromLeftoverShare) {
  const auto p = plan_threads(100, 8, 0, 2);
  EXPECT_EQ(p.outer, 4);
  EXPECT_EQ(p.inner, 2);
  EXPECT_FALSE(p.auto_selected);
}

TEST(PlanThreads, OuterClampedToFleetSize) {
  const auto p = plan_threads(2, 8, 16, 1);
  EXPECT_EQ(p.outer, 2);
}

TEST(PlanThreads, ZeroHardwareThreadsTreatedAsOne) {
  const auto p = plan_threads(10, 0, 0, 0);
  EXPECT_EQ(p.outer, 1);
  EXPECT_EQ(p.inner, 1);
}

// -------------------------------------------------------- determinism --

// Everything a verdict line carries, full precision. Two fleets agree iff
// their field strings agree, so EXPECT_EQ on the strings is a bitwise
// comparison with a readable failure message.
std::string outcome_fields(const TraceOutcome& o) {
  const auto& id = o.result.identification;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu|%s|%s|%llu|%zu|%d|%zu|%.17g|%d%d|%d|%.17g|%.17g|%d|%zu",
                o.index, o.id.c_str(), to_string(o.status),
                static_cast<unsigned long long>(o.seed), o.probes,
                o.result.answered ? 1 : 0, id.losses, id.loss_rate,
                id.sdcl.accepted ? 1 : 0, id.wdcl.accepted ? 1 : 0,
                id.wdcl.i_star, id.wdcl.f_at_2istar, id.coarse_bound.seconds,
                o.result.degraded ? 1 : 0, o.result.warnings.size());
  std::string s = buf;
  if (!o.error.empty()) s += "|" + o.error;
  return s;
}

std::vector<TraceJob> small_mesh(std::size_t paths) {
  MeshConfig mesh;
  mesh.paths = paths;
  mesh.probes_per_path = 300;
  mesh.seed = 7;
  return synth_mesh(mesh);
}

core::PipelineConfig fast_pipeline() {
  core::PipelineConfig cfg;
  cfg.identifier.em.seed = 7;
  cfg.identifier.em.restarts = 1;
  return cfg;
}

TEST(FleetDeterminism, BitwiseIdenticalAcrossThreadSplits) {
  const auto jobs = small_mesh(12);

  FleetConfig ref_cfg;
  ref_cfg.pipeline = fast_pipeline();
  ref_cfg.outer_threads = 1;
  ref_cfg.inner_threads = 1;
  const auto ref = run_fleet(jobs, ref_cfg);
  ASSERT_EQ(ref.traces.size(), jobs.size());
  ASSERT_EQ(ref.failed, 0u);

  for (int outer : {1, 2, 4}) {
    for (int inner : {1, 2}) {
      FleetConfig cfg;
      cfg.pipeline = fast_pipeline();
      cfg.outer_threads = outer;
      cfg.inner_threads = inner;
      const auto got = run_fleet(jobs, cfg);
      ASSERT_EQ(got.traces.size(), ref.traces.size());
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(outcome_fields(got.traces[i]), outcome_fields(ref.traces[i]))
            << "outer=" << outer << " inner=" << inner << " trace " << i;
      }
      EXPECT_EQ(got.ok, ref.ok);
      EXPECT_EQ(got.degraded, ref.degraded);
      EXPECT_EQ(got.failed, ref.failed);
    }
  }
}

TEST(FleetDeterminism, SeedsForkInIndexOrderFromBase) {
  const auto jobs = small_mesh(5);
  FleetConfig cfg;
  cfg.pipeline = fast_pipeline();
  cfg.pipeline.identifier.em.seed = 99;
  cfg.outer_threads = 2;
  const auto report = run_fleet(jobs, cfg);

  util::Rng chain(99);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(report.traces[i].seed, chain.engine()()) << "trace " << i;
    EXPECT_EQ(report.traces[i].index, i);
    EXPECT_EQ(report.traces[i].id, jobs[i].id);
  }
}

TEST(Fleet, EmptyJobListIsTypedInvalidInput) {
  FleetConfig cfg;
  try {
    run_fleet({}, cfg);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidInput);
  }
}

// -------------------------------------------------- failure isolation --

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/fleet_test_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    // Tests only create regular files directly inside the directory.
    std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(FleetFailureIsolation, OneCorruptTraceInTwentyDoesNotSinkTheFleet) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());

  MeshConfig mesh;
  mesh.paths = 20;
  mesh.probes_per_path = 300;
  mesh.seed = 11;
  for (std::size_t i = 0; i < 20; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "/trace_%02zu.csv", i);
    const std::string path = dir.path() + name;
    if (i == 7) {
      std::ofstream(path) << "this,is,not\na probe trace\n";
    } else {
      trace::write_trace_file(path, synth_path_trace(mesh, i));
    }
  }

  const auto jobs = discover_jobs(dir.path());
  ASSERT_EQ(jobs.size(), 20u);

  FleetConfig cfg;
  cfg.pipeline = fast_pipeline();
  cfg.outer_threads = 4;
  const auto report = run_fleet(jobs, cfg);

  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.ok + report.degraded, 19u);
  EXPECT_EQ(report.traces[7].status, TraceStatus::kFailed);
  // The taxonomy code survives into the outcome ("<code>: message").
  EXPECT_NE(report.traces[7].error.find(':'), std::string::npos);
  EXPECT_TRUE(report.traces[7].result.warnings.empty());
  for (std::size_t i = 0; i < 20; ++i) {
    if (i == 7) continue;
    EXPECT_NE(report.traces[i].status, TraceStatus::kFailed) << "trace " << i;
    EXPECT_TRUE(report.traces[i].error.empty()) << "trace " << i;
  }
}

TEST(FleetFailureIsolation, MissingManifestEntryFailsOnlyThatTrace) {
  TempDir dir;
  MeshConfig mesh;
  mesh.paths = 2;
  mesh.probes_per_path = 300;
  trace::write_trace_file(dir.path() + "/a.csv", synth_path_trace(mesh, 0));
  std::ofstream(dir.path() + "/fleet.list")
      << "# one good, one missing\na.csv\nno_such_trace.csv\n";

  const auto jobs = discover_jobs(dir.path() + "/fleet.list");
  ASSERT_EQ(jobs.size(), 2u);
  FleetConfig cfg;
  cfg.pipeline = fast_pipeline();
  const auto report = run_fleet(jobs, cfg);
  EXPECT_NE(report.traces[0].status, TraceStatus::kFailed);
  EXPECT_EQ(report.traces[1].status, TraceStatus::kFailed);
  EXPECT_EQ(report.traces[1].error.rfind("io:", 0), 0u)
      << report.traces[1].error;
}

// ----------------------------------------------------------- manifest --

TEST(Manifest, DirectoryGlobSortsByPath) {
  TempDir dir;
  MeshConfig mesh;
  mesh.paths = 3;
  mesh.probes_per_path = 300;
  trace::write_trace_file(dir.path() + "/b.csv", synth_path_trace(mesh, 0));
  trace::write_trace_file(dir.path() + "/a.csv", synth_path_trace(mesh, 1));
  std::ofstream(dir.path() + "/notes.txt") << "ignored\n";

  const auto jobs = discover_jobs(dir.path());
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, "a.csv");
  EXPECT_EQ(jobs[1].id, "b.csv");
}

TEST(Manifest, SingleCsvIsAFleetOfOne) {
  TempDir dir;
  MeshConfig mesh;
  mesh.paths = 1;
  mesh.probes_per_path = 300;
  const std::string path = dir.path() + "/one.csv";
  trace::write_trace_file(path, synth_path_trace(mesh, 0));
  const auto jobs = discover_jobs(path);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].path, path);
}

TEST(Manifest, ManifestSkipsCommentsAndResolvesRelativePaths) {
  TempDir dir;
  std::ofstream(dir.path() + "/fleet.list")
      << "# comment\n\n  \nx.csv\n/abs/y.csv\n";
  const auto jobs = discover_jobs(dir.path() + "/fleet.list");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].path, dir.path() + "/x.csv");
  EXPECT_EQ(jobs[1].path, "/abs/y.csv");
  EXPECT_EQ(jobs[0].id, "x.csv");
}

TEST(Manifest, MissingInputIsTypedIoError) {
  try {
    discover_jobs("/no/such/fleet/input");
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kIo);
  }
}

TEST(Manifest, EmptyDirectoryIsTypedInvalidInput) {
  TempDir dir;
  try {
    discover_jobs(dir.path());
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidInput);
  }
}

// -------------------------------------------------------------- obs ----

TEST(FleetObs, ProgressCountersTallyTheRun) {
  auto& reg = obs::Registry::global();
  const auto done0 = reg.windowed_counter("fleet.traces_done").total().value();
  const auto ok0 = reg.windowed_counter("fleet.traces_ok").total().value();

  const auto jobs = small_mesh(4);
  FleetConfig cfg;
  cfg.pipeline = fast_pipeline();
  cfg.outer_threads = 2;
  const auto report = run_fleet(jobs, cfg);

  EXPECT_EQ(reg.windowed_counter("fleet.traces_done").total().value() - done0,
            4u);
  EXPECT_EQ(reg.windowed_counter("fleet.traces_ok").total().value() - ok0,
            report.ok);
  EXPECT_EQ(reg.counter("fleet.traces_total").value(), 4u);
  EXPECT_DOUBLE_EQ(reg.gauge("fleet.progress").value(), 1.0);
}

TEST(FleetObs, ProgressCallbackSeesEveryOutcomeOnce) {
  const auto jobs = small_mesh(6);
  FleetConfig cfg;
  cfg.pipeline = fast_pipeline();
  cfg.outer_threads = 3;
  std::vector<int> seen(jobs.size(), 0);
  const auto report = run_fleet(jobs, cfg, [&](const TraceOutcome& o) {
    // Serialized by the engine: no lock needed here.
    seen[o.index] += 1;
  });
  (void)report;
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], 1) << "trace " << i;
}

// --------------------------------------------- durable execution (§5.12) --

// The kill-resume identity at engine level: interrupt a run after k
// outcomes (simulated by taking the first k checkpointed entries through
// the journal round-trip into cfg.completed), resume, and the combined
// outcomes must match the uninterrupted reference bitwise — for both a
// serial and a parallel outer split.
TEST(FleetResume, ReplayedPrefixProducesIdenticalOutcomes) {
  const auto jobs = small_mesh(8);
  FleetConfig ref_cfg;
  ref_cfg.pipeline = fast_pipeline();
  ref_cfg.outer_threads = 1;
  ref_cfg.inner_threads = 1;
  const auto ref = run_fleet(jobs, ref_cfg);

  for (int outer : {1, 4}) {
    for (std::size_t k : {std::size_t{0}, std::size_t{3}, jobs.size()}) {
      FleetConfig cfg;
      cfg.pipeline = fast_pipeline();
      cfg.outer_threads = outer;
      cfg.inner_threads = 1;
      for (std::size_t i = 0; i < k; ++i) {
        // Full journal round-trip: outcome -> frame bytes -> entry ->
        // replayed outcome, exactly what dclfleet --resume does.
        const std::string bytes =
            journal::encode_entry(journal::entry_from_outcome(ref.traces[i]));
        const auto rep = journal::parse(bytes);
        ASSERT_EQ(rep.entries.size(), 1u);
        cfg.completed.push_back(journal::outcome_from_entry(rep.entries[0]));
      }
      std::vector<std::size_t> delivered;
      const auto got = run_fleet(jobs, cfg, [&](const TraceOutcome& o) {
        delivered.push_back(o.index);
      });
      ASSERT_EQ(got.traces.size(), ref.traces.size());
      EXPECT_EQ(got.replayed, k);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(outcome_fields(got.traces[i]), outcome_fields(ref.traces[i]))
            << "outer=" << outer << " k=" << k << " trace " << i;
        if (i < k) {
          EXPECT_FALSE(got.traces[i].executed);
        }
      }
      // Every trace, replayed or executed, reaches on_done exactly once,
      // and the replayed prefix arrives first, in index order.
      ASSERT_EQ(delivered.size(), jobs.size());
      for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(delivered[i], i);
    }
  }
}

TEST(FleetRetry, TransientFailureRetriesToSuccess) {
  const auto jobs = small_mesh(4);
  faults::proc::arm_flaky_at_trace(2, 2);  // first two executions raise kIo
  FleetConfig cfg;
  cfg.pipeline = fast_pipeline();
  cfg.outer_threads = 1;
  cfg.trace_retries = 3;
  cfg.retry_base_s = 0.001;
  cfg.retry_max_s = 0.002;
  const auto report = run_fleet(jobs, cfg);
  faults::proc::disarm();
  EXPECT_NE(report.traces[2].status, TraceStatus::kFailed)
      << report.traces[2].error;
  EXPECT_TRUE(report.traces[2].error.empty());
  EXPECT_EQ(report.failed, 0u);
}

TEST(FleetRetry, ExhaustedRetriesKeepTypedError) {
  const auto jobs = small_mesh(3);
  faults::proc::arm_flaky_at_trace(1, 10);  // more failures than budget
  auto& reg = obs::Registry::global();
  const auto exhausted0 =
      reg.windowed_counter("fleet.retry_exhausted").total().value();
  FleetConfig cfg;
  cfg.pipeline = fast_pipeline();
  cfg.outer_threads = 1;
  cfg.trace_retries = 2;
  cfg.retry_base_s = 0.001;
  cfg.retry_max_s = 0.002;
  const auto report = run_fleet(jobs, cfg);
  faults::proc::disarm();
  EXPECT_EQ(report.traces[1].status, TraceStatus::kFailed);
  EXPECT_EQ(report.traces[1].error.rfind("io:", 0), 0u)
      << report.traces[1].error;
  EXPECT_EQ(
      reg.windowed_counter("fleet.retry_exhausted").total().value() -
          exhausted0,
      1u);
}

TEST(FleetRetry, PermanentFailureNeverRetries) {
  TempDir dir;
  std::ofstream(dir.path() + "/bad.csv") << "not,a,trace\n";
  auto jobs = small_mesh(2);
  TraceJob bad;
  bad.id = "bad.csv";
  bad.path = dir.path() + "/bad.csv";
  jobs.push_back(bad);

  auto& reg = obs::Registry::global();
  const auto retries0 = reg.windowed_counter("fleet.retries").total().value();
  FleetConfig cfg;
  cfg.pipeline = fast_pipeline();
  cfg.outer_threads = 1;
  cfg.trace_retries = 3;
  cfg.retry_base_s = 0.001;
  const auto report = run_fleet(jobs, cfg);
  EXPECT_EQ(report.traces[2].status, TraceStatus::kFailed);
  // invalid_input is permanent: no retry was burned on it.
  EXPECT_EQ(reg.windowed_counter("fleet.retries").total().value(), retries0);
}

TEST(FleetWatchdog, HungTraceBecomesTimeoutFailure) {
  const auto jobs = small_mesh(3);
  faults::proc::arm_hang_at_trace(1, 0.8);
  FleetConfig cfg;
  cfg.pipeline = fast_pipeline();
  cfg.outer_threads = 2;
  cfg.trace_timeout_s = 0.2;
  const auto report = run_fleet(jobs, cfg);
  faults::proc::disarm();
  EXPECT_EQ(report.traces[1].status, TraceStatus::kFailed);
  EXPECT_NE(report.traces[1].error.find("timeout"), std::string::npos)
      << report.traces[1].error;
  // The hang did not sink its neighbors.
  EXPECT_NE(report.traces[0].status, TraceStatus::kFailed);
  EXPECT_NE(report.traces[2].status, TraceStatus::kFailed);
}

TEST(FleetCancel, CancelledTracesFormASuffixAndSkipOnDone) {
  const auto jobs = small_mesh(6);
  std::atomic<bool> cancel{false};
  FleetConfig cfg;
  cfg.pipeline = fast_pipeline();
  cfg.outer_threads = 1;  // serial: cancellation point is deterministic
  cfg.cancel = &cancel;
  std::vector<std::size_t> delivered;
  const auto report = run_fleet(jobs, cfg, [&](const TraceOutcome& o) {
    delivered.push_back(o.index);
    if (delivered.size() == 2) cancel.store(true);
  });
  // Two executed, the rest cancelled without reaching on_done.
  EXPECT_EQ(delivered.size(), 2u);
  EXPECT_EQ(report.cancelled, 4u);
  EXPECT_EQ(report.ok + report.degraded + report.failed, 2u);
  for (std::size_t i = 2; i < jobs.size(); ++i) {
    EXPECT_FALSE(report.traces[i].executed) << "trace " << i;
    EXPECT_EQ(report.traces[i].status, TraceStatus::kFailed);
    EXPECT_NE(report.traces[i].error.find("cancelled"), std::string::npos);
  }
}

}  // namespace
}  // namespace dcl::fleet
