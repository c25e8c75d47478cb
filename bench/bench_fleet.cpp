// Fleet throughput benchmark: paths/sec of the dcl::fleet batch engine on
// an emulated probe mesh (fleet/synth.h) at 1/2/4/8 outer threads with
// single-threaded fits — the many-single shape the engine auto-selects for
// large fleets. A plain sequential analyze_trace loop over the same mesh
// is timed alongside as the reference; `efficiency` (fleet at outer=1 /
// plain loop) isolates the engine's queueing + collection overhead from
// machine speed, which makes it the machine-portable number the check.sh
// perf gate compares against the BENCH_baseline.jsonl series.
//
// The "journal" block times the fleet at outer=1 with and without a
// checkpoint journal (samples alternate between the two): the journal-on
// run appends every outcome to an fsync'd journal in a fresh temporary
// directory from the completion callback, as `dclfleet --journal` does, so
// `overhead_frac` is the cost of durable execution on this mesh.
//
// Every configuration's verdicts are digested (util::Error on mismatch):
// the fleet result must be bitwise identical to the sequential loop for
// every outer count, journal on or off, so the benchmark doubles as the
// determinism smoke.
//
// Writes a single-line JSON record to the first non-flag argument
// (default "BENCH_fleet.json"). `--min-efficiency X` exits nonzero when
// the fleet-vs-loop efficiency falls below X — an absolute sanity floor
// for CI; the relative regression gate lives in scripts/check.sh.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/pipeline.h"
#include "fleet/fleet.h"
#include "fleet/journal.h"
#include "fleet/synth.h"
#include "obs/manifest.h"
#include "util/error.h"
#include "util/rng.h"

namespace dcl {
namespace {

// One line per verdict, full double precision (%.17g round-trips), so two
// digests match iff every verdict field is bitwise identical.
std::string outcomes_digest(const std::vector<fleet::TraceOutcome>& outcomes) {
  std::string all;
  all.reserve(outcomes.size() * 96);
  char buf[256];
  for (const auto& o : outcomes) {
    const auto& id = o.result.identification;
    std::snprintf(buf, sizeof(buf),
                  "%zu|%s|%llu|%zu|%s|%d|%zu|%.17g|%d%d|%d|%.17g|%.17g|%d|%zu\n",
                  o.index, fleet::to_string(o.status),
                  static_cast<unsigned long long>(o.seed), o.probes,
                  o.error.c_str(), o.result.answered ? 1 : 0, id.losses,
                  id.loss_rate, id.sdcl.accepted ? 1 : 0,
                  id.wdcl.accepted ? 1 : 0, id.wdcl.i_star, id.wdcl.f_at_2istar,
                  id.coarse_bound.seconds, o.result.degraded ? 1 : 0,
                  o.result.warnings.size());
    all += buf;
  }
  return obs::digest_hex(all);
}

struct RunStats {
  double wall_s = 0.0;  // median over samples
  double paths_per_sec = 0.0;
  std::string digest;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The reference the fleet must match: N analyze_trace calls in index
// order, seeds forked exactly as run_fleet forks them.
RunStats run_sequential(const std::vector<fleet::TraceJob>& jobs,
                        const core::PipelineConfig& base, int samples) {
  RunStats out;
  std::vector<double> walls;
  std::vector<fleet::TraceOutcome> outcomes(jobs.size());
  for (int s = 0; s < samples; ++s) {
    util::Rng chain(base.identifier.em.seed);
    std::vector<std::uint64_t> seeds(jobs.size());
    for (auto& sd : seeds) sd = chain.engine()();
    const double t0 = now_s();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      core::PipelineConfig cfg = base;
      cfg.identifier.em.seed = seeds[i];
      cfg.identifier.em.threads = 1;
      auto& o = outcomes[i];
      o.index = i;
      o.id = jobs[i].id;
      o.seed = seeds[i];
      o.probes = jobs[i].preloaded->records.size();
      o.result = core::analyze_trace(*jobs[i].preloaded, cfg);
      o.status = o.result.degraded ? fleet::TraceStatus::kDegraded
                                   : fleet::TraceStatus::kOk;
    }
    walls.push_back(now_s() - t0);
  }
  std::sort(walls.begin(), walls.end());
  out.wall_s = walls[walls.size() / 2];
  out.paths_per_sec = static_cast<double>(jobs.size()) / out.wall_s;
  out.digest = outcomes_digest(outcomes);
  return out;
}

RunStats run_fleet_at(const std::vector<fleet::TraceJob>& jobs,
                      const core::PipelineConfig& base, int outer,
                      int samples) {
  RunStats out;
  std::vector<double> walls;
  for (int s = 0; s < samples; ++s) {
    fleet::FleetConfig cfg;
    cfg.pipeline = base;
    cfg.outer_threads = outer;
    cfg.inner_threads = 1;
    const auto report = fleet::run_fleet(jobs, cfg);
    DCL_ENSURE_MSG(report.failed == 0, "synthetic mesh trace failed");
    walls.push_back(report.wall_s);
    out.digest = outcomes_digest(report.traces);
  }
  std::sort(walls.begin(), walls.end());
  out.wall_s = walls[walls.size() / 2];
  out.paths_per_sec = static_cast<double>(jobs.size()) / out.wall_s;
  return out;
}

struct JournalStats {
  RunStats off, on;
  double overhead_frac = 0.0;  // 1 - on / off paths per second
};

// outer=1 without and with an fsync'd checkpoint journal, alternating
// sample by sample so both sides see the same host conditions.
JournalStats run_journal_pair(const std::vector<fleet::TraceJob>& jobs,
                              const core::PipelineConfig& base, int samples) {
  namespace fs = std::filesystem;
  std::string tmpl = (fs::temp_directory_path() / "dcl_bench_journal.XXXXXX")
                         .string();
  DCL_ENSURE_MSG(mkdtemp(tmpl.data()) != nullptr,
                 "cannot create a temporary journal directory");
  const fs::path dir(tmpl);
  const std::string path = (dir / "fleet.journal").string();

  fleet::FleetConfig cfg;
  cfg.pipeline = base;
  cfg.outer_threads = 1;
  cfg.inner_threads = 1;
  fleet::journal::Header header;
  header.base_seed = base.identifier.em.seed;
  header.jobs = jobs.size();

  JournalStats out;
  std::vector<double> off_walls, on_walls;
  for (int s = 0; s < samples; ++s) {
    double t0 = now_s();
    const auto plain = fleet::run_fleet(jobs, cfg);
    off_walls.push_back(now_s() - t0);
    out.off.digest = outcomes_digest(plain.traces);

    t0 = now_s();
    fleet::journal::Writer writer;
    writer.create(path, header);
    const auto journaled = fleet::run_fleet(
        jobs, cfg, [&writer](const fleet::TraceOutcome& o) {
          if (o.executed)
            writer.append(fleet::journal::entry_from_outcome(o));
        });
    writer.close();
    on_walls.push_back(now_s() - t0);
    out.on.digest = outcomes_digest(journaled.traces);
    DCL_ENSURE_MSG(fleet::journal::read_file(path).entries.size() ==
                       jobs.size(),
                   "journal lost an outcome");
  }
  fs::remove_all(dir);
  const auto finish = [&jobs](std::vector<double>& walls, RunStats& r) {
    std::sort(walls.begin(), walls.end());
    r.wall_s = walls[walls.size() / 2];
    r.paths_per_sec = static_cast<double>(jobs.size()) / r.wall_s;
  };
  finish(off_walls, out.off);
  finish(on_walls, out.on);
  out.overhead_frac = 1.0 - out.on.paths_per_sec / out.off.paths_per_sec;
  return out;
}

}  // namespace
}  // namespace dcl

int main(int argc, char** argv) {
  using namespace dcl;
  bench::BenchTraceGuard trace_guard("bench_fleet");
  bench::BenchProfileGuard profile_guard("bench_fleet");
  std::string out_path = "BENCH_fleet.json";
  long paths = 1000;
  long probes = 300;
  int samples = 1;
  double min_efficiency = 0.0;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() { return i + 1 < argc ? argv[++i] : ""; };
    if (std::strcmp(argv[i], "--paths") == 0) paths = std::atol(next());
    else if (std::strcmp(argv[i], "--probes") == 0) probes = std::atol(next());
    else if (std::strcmp(argv[i], "--samples") == 0)
      samples = std::max(1, std::atoi(next()));
    else if (std::strcmp(argv[i], "--min-efficiency") == 0)
      min_efficiency = std::atof(next());
    else if (std::strcmp(argv[i], "--seed") == 0)
      seed = static_cast<std::uint64_t>(std::atoll(next()));
    else out_path = argv[i];
  }
  DCL_ENSURE_MSG(paths >= 1 && probes >= 100, "bad --paths/--probes");

  fleet::MeshConfig mesh;
  mesh.paths = static_cast<std::size_t>(paths);
  mesh.probes_per_path = static_cast<std::size_t>(probes);
  mesh.seed = seed;
  const auto jobs = fleet::synth_mesh(mesh);

  core::PipelineConfig base;
  base.identifier.em.seed = seed;
  base.identifier.em.restarts = 1;

  std::printf(
      "fleet throughput: %ld paths x %ld probes, restarts=1 "
      "(%u hw threads, median of %d)\n",
      paths, probes, std::thread::hardware_concurrency(), samples);

  const auto seq = run_sequential(jobs, base, samples);
  std::printf("  sequential loop      %8.2f s  %8.1f paths/s\n", seq.wall_s,
              seq.paths_per_sec);

  const std::vector<int> outers = {1, 2, 4, 8};
  std::vector<RunStats> fleet_runs;
  for (int outer : outers) {
    fleet_runs.push_back(run_fleet_at(jobs, base, outer, samples));
    const auto& r = fleet_runs.back();
    std::printf("  fleet outer=%d        %8.2f s  %8.1f paths/s  (%.2fx)\n",
                outer, r.wall_s, r.paths_per_sec,
                r.paths_per_sec / seq.paths_per_sec);
    // The acceptance bar: the fleet result is the sequential result, for
    // every outer width. A digest mismatch is a determinism regression.
    DCL_ENSURE_MSG(r.digest == seq.digest,
                   "fleet verdicts differ from the sequential reference");
  }

  const auto journal = run_journal_pair(jobs, base, samples);
  std::printf("  journal off (outer=1) %7.2f s  %8.1f paths/s\n"
              "  journal on  (outer=1) %7.2f s  %8.1f paths/s  "
              "(overhead %.1f%%)\n",
              journal.off.wall_s, journal.off.paths_per_sec,
              journal.on.wall_s, journal.on.paths_per_sec,
              100.0 * journal.overhead_frac);
  DCL_ENSURE_MSG(journal.off.digest == seq.digest &&
                     journal.on.digest == seq.digest,
                 "journaled fleet verdicts differ from the sequential "
                 "reference");

  const double efficiency = fleet_runs[0].paths_per_sec / seq.paths_per_sec;
  std::printf("  efficiency (outer=1 / loop): %.3f   digest %s\n", efficiency,
              seq.digest.c_str());

  char buf[256];
  std::string outer_json = "{";
  for (std::size_t i = 0; i < outers.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%d\":{\"wall_s\":%.3f,\"paths_per_sec\":%.2f}",
                  i > 0 ? "," : "", outers[i], fleet_runs[i].wall_s,
                  fleet_runs[i].paths_per_sec);
    outer_json += buf;
  }
  outer_json += "}";
  std::snprintf(buf, sizeof(buf),
                "{\"bench\":\"fleet\",\"paths\":%ld,\"probes\":%ld,"
                "\"restarts\":1,\"hardware_threads\":%u,\"samples\":%d,",
                paths, probes, std::thread::hardware_concurrency(), samples);
  std::string line = buf;
  line += "\"manifest\":" + obs::manifest("fleet").to_json() + ",";
  std::snprintf(buf, sizeof(buf),
                "\"seq\":{\"wall_s\":%.3f,\"paths_per_sec\":%.2f},",
                seq.wall_s, seq.paths_per_sec);
  line += buf;
  line += "\"outer\":" + outer_json + ",";
  std::snprintf(buf, sizeof(buf),
                "\"journal\":{\"outer\":1,\"fsync\":true,"
                "\"off\":{\"wall_s\":%.3f,\"paths_per_sec\":%.2f},"
                "\"on\":{\"wall_s\":%.3f,\"paths_per_sec\":%.2f},"
                "\"overhead_frac\":%.4f},",
                journal.off.wall_s, journal.off.paths_per_sec,
                journal.on.wall_s, journal.on.paths_per_sec,
                journal.overhead_frac);
  line += buf;
  std::snprintf(buf, sizeof(buf), "\"efficiency\":%.4f,\"digest\":\"%s\"}",
                efficiency, seq.digest.c_str());
  line += buf;

  std::ofstream out(out_path);
  DCL_ENSURE_MSG(out.good(), "cannot open benchmark output file");
  out << line << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (min_efficiency > 0.0 && efficiency < min_efficiency) {
    std::fprintf(stderr, "FAIL: fleet efficiency %.3f below required %.3f\n",
                 efficiency, min_efficiency);
    return 1;
  }
  return 0;
}
