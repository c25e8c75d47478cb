// dclsoak — continuous robustness gate: randomized measurement-pathology
// schedules over the scenario presets, asserting the identification
// pipeline never crashes and degrades honestly.
//
// For every (schedule, preset) pair the driver corrupts the preset's clean
// probe trace with dcl::faults, runs core::analyze_trace (sanitization on),
// and checks the graceful-degradation contract:
//
//   * no exception escapes the pipeline boundary (any escape is a failed
//     soak, and pipeline.internal_errors must stay 0);
//   * every degraded result carries a non-empty warning set, and every
//     non-clean sanitization is reflected in the dcl::obs counters;
//   * the WDCL verdict flips relative to the clean baseline on at most
//     --max-flip-frac of the answered runs (faults should degrade the
//     answer's confidence, not routinely invert it);
//   * a serialize → corrupt-bytes → parse round trip either parses or
//     raises a typed invalid-input/io error (never anything else).
//
// Usage:
//   dclsoak [--schedules N] [--seed S] [--duration SEC]
//           [--presets sdcl,wdcl,nodcl] [--max-flip-frac X]
//           [--metrics-json FILE] [--serve ADDR] [--verbose]
//   dclsoak --kill-resume N [--dclfleet PATH] [--seed S]
//
// --kill-resume is the durable-execution soak (DESIGN.md §5.12): N
// seed-pinned crash/resume cycles against the real dclfleet binary. Each
// cycle SIGKILLs a journaled synthetic fleet run at a random trace (the
// dcl::faults::proc DCL_CRASH_AT_TRACE hook), optionally stomps garbage
// on the journal tail (the torn-write model), resumes with --resume, and
// asserts
//   * the resumed output is byte-identical to an uninterrupted reference
//     run (with and without a journal — journaling must not perturb it);
//   * the healed journal holds exactly one outcome frame per trace index
//     (no duplicate work, no frames lost to the torn tail);
//   * a redundant second --resume is a no-op: nothing re-executes, the
//     journal does not grow, the output does not change.
//
// With --serve the embedded ops server (obs/serve.h) runs for the whole
// soak — scraping /metrics mid-soak shows live windowed rates of
// pipeline.runs / pipeline.degraded and the recent-errors ring filling.
//
// Exit code 0 when every assertion holds, 1 otherwise.
#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cli_core.h"
#include "core/pipeline.h"
#include "faults/faults.h"
#include "fleet/journal.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "obs/window.h"
#include "trace/trace_io.h"
#include "util/error.h"

namespace {

struct Options {
  int schedules = 50;
  std::uint64_t seed = 1;
  double duration_s = 60.0;
  double max_flip_frac = 0.5;
  std::vector<std::string> presets = {"sdcl", "wdcl", "nodcl"};
  std::string metrics_json;
  std::string serve_addr;
  bool verbose = false;
  int kill_resume = 0;  // > 0 switches to the crash/resume soak
  std::string dclfleet = "./build/cli/dclfleet";
};

int fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "dclsoak: FAIL: %s: %s\n", what, detail.c_str());
  return 1;
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Runs `cmd` through the shell; returns the exit code, with death-by-signal
// mapped to the shell convention 128+sig (SIGKILL -> 137).
int shell(const std::string& cmd) {
  const int st = std::system(cmd.c_str());
  if (st < 0) return -1;
  if (WIFEXITED(st)) return WEXITSTATUS(st);
  if (WIFSIGNALED(st)) return 128 + WTERMSIG(st);
  return -1;
}

// The durable-execution soak: N crash/resume cycles against the real
// dclfleet binary (see the file header). Exit 0 when every cycle holds
// the byte-identity + journal-integrity contract.
int run_kill_resume(const Options& opt) {
  namespace journal = dcl::fleet::journal;
  const std::size_t traces = 24;

  char tmpl[] = "/tmp/dclsoak_killresume_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr)
    return fail("kill-resume: cannot create scratch dir", tmpl);
  const std::string dir = tmpl;

  const std::string base =
      opt.dclfleet + " --synth " + std::to_string(traces) +
      " --synth-probes 600 --seed " + std::to_string(opt.seed) +
      " --outer-threads 4";

  // Uninterrupted reference: no journal at all. Every resumed cycle must
  // reproduce these bytes exactly.
  const std::string ref_path = dir + "/ref.jsonl";
  int rc = shell(base + " --out " + ref_path + " 2>/dev/null");
  if (rc != 0 && rc != 1)
    return fail("kill-resume: reference run failed",
                "exit " + std::to_string(rc) + " (is --dclfleet right? " +
                    opt.dclfleet + ")");
  const std::string ref = slurp_file(ref_path);
  if (ref.empty()) return fail("kill-resume: reference output empty", ref_path);

  std::mt19937_64 rng(opt.seed ^ 0xC4A5BDEADULL);
  for (int cycle = 0; cycle < opt.kill_resume; ++cycle) {
    const std::string tag = dir + "/cycle" + std::to_string(cycle);
    const std::string out = tag + ".jsonl";
    const std::string jr = tag + ".journal";
    const std::size_t crash_at = rng() % traces;

    // Crash: SIGKILL mid-fleet via the faults::proc hook.
    rc = shell("DCL_CRASH_AT_TRACE=" + std::to_string(crash_at) + " " + base +
               " --journal " + jr + " --out " + out + " 2>/dev/null");
    if (rc != 137)
      return fail("kill-resume: crashed run did not die with SIGKILL",
                  "cycle " + std::to_string(cycle) + ": exit " +
                      std::to_string(rc));

    // Torn-write model: half the cycles stomp garbage on the journal tail;
    // --resume must heal it (typed warning, truncate, continue).
    if (rng() % 2 == 0) {
      std::ofstream torn(jr, std::ios::binary | std::ios::app);
      torn << "DJL1\x02garbage-torn-tail";
    }

    rc = shell(base + " --journal " + jr + " --out " + out +
               " --resume 2>/dev/null");
    if (rc != 0 && rc != 1)
      return fail("kill-resume: resume failed",
                  "cycle " + std::to_string(cycle) + ": exit " +
                      std::to_string(rc));
    const std::string got = slurp_file(out);
    if (got != ref)
      return fail("kill-resume: resumed output is not byte-identical",
                  "cycle " + std::to_string(cycle) + " (crash at trace " +
                      std::to_string(crash_at) + "): " + out + " vs " +
                      ref_path);

    // Journal integrity: exactly one outcome frame per index, clean tail.
    const journal::Replay rep = journal::read_file(jr);
    if (!rep.warning.empty())
      return fail("kill-resume: healed journal still has a corrupt tail",
                  rep.warning);
    std::map<std::uint64_t, int> per_index;
    for (const auto& e : rep.entries) ++per_index[e.index];
    if (per_index.size() != traces)
      return fail("kill-resume: journal index coverage wrong",
                  std::to_string(per_index.size()) + " distinct of " +
                      std::to_string(traces));
    for (const auto& [idx, n] : per_index)
      if (n != 1)
        return fail("kill-resume: duplicate outcome frames for index",
                    std::to_string(idx) + " x" + std::to_string(n));

    // Redundant resume: everything is checkpointed, so nothing may
    // execute, the journal may not grow, and the output may not change.
    struct ::stat before{};
    if (::stat(jr.c_str(), &before) != 0)
      return fail("kill-resume: cannot stat journal", jr);
    rc = shell(base + " --journal " + jr + " --out " + out +
               " --resume 2>/dev/null");
    if (rc != 0 && rc != 1)
      return fail("kill-resume: redundant resume failed",
                  "exit " + std::to_string(rc));
    struct ::stat after{};
    if (::stat(jr.c_str(), &after) != 0 || after.st_size != before.st_size)
      return fail("kill-resume: journal grew on a redundant resume",
                  std::to_string(before.st_size) + " -> " +
                      std::to_string(after.st_size) + " bytes");
    if (slurp_file(out) != ref)
      return fail("kill-resume: redundant resume changed the output", out);

    if (opt.verbose)
      std::fprintf(stderr,
                   "dclsoak: kill-resume cycle %d ok (crash at %zu, "
                   "%zu journal frames)\n",
                   cycle, crash_at, rep.entries.size());
  }

  std::printf(
      "dclsoak: %d kill-resume cycles: output byte-identical, one journal "
      "frame per trace, redundant resume is a no-op, 0 contract breaks\n",
      opt.kill_resume);
  shell("rm -rf " + dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  namespace cli = dcl::cli;
  cli::set_program("dclsoak");
  Options opt;
  cli::Args args(argc, argv);
  while (args.next()) {
    if (args.is("--schedules")) opt.schedules = args.int32();
    else if (args.is("--seed")) opt.seed = args.u64();
    else if (args.is("--duration")) opt.duration_s = args.real();
    else if (args.is("--max-flip-frac")) opt.max_flip_frac = args.real();
    else if (args.is("--metrics-json")) opt.metrics_json = args.value();
    else if (args.is("--serve")) opt.serve_addr = args.value();
    else if (args.is("--presets")) {
      opt.presets.clear();
      std::stringstream ss(args.value());
      std::string p;
      while (std::getline(ss, p, ',')) opt.presets.push_back(p);
    } else if (args.is("--verbose") || args.is("-v")) opt.verbose = true;
    else if (args.is("--kill-resume")) opt.kill_resume = args.int32();
    else if (args.is("--dclfleet")) opt.dclfleet = args.value();
    else {
      std::fprintf(stderr,
                   "usage: dclsoak [--schedules N] [--seed S] "
                   "[--duration SEC] [--presets a,b,c] [--max-flip-frac X] "
                   "[--metrics-json FILE] [--serve ADDR] [--verbose]\n"
                   "       dclsoak --kill-resume N [--dclfleet PATH] "
                   "[--seed S]\n");
      return 2;
    }
  }
  if (opt.kill_resume > 0) return run_kill_resume(opt);
  if (opt.schedules < 1 || opt.duration_s <= 0.0 || opt.presets.empty()) {
    std::fprintf(stderr, "dclsoak: bad options\n");
    return 2;
  }

  auto& reg = dcl::obs::Registry::global();
  reg.reset();
  dcl::obs::log::install_error_listener();

  auto man = dcl::obs::manifest("dclsoak");
  man.seed = opt.seed;
  man.add("schedules", std::to_string(opt.schedules));
  man.add("duration_s", std::to_string(opt.duration_s));
  std::unique_ptr<dcl::obs::serve::Server> server;
  if (!opt.serve_addr.empty())
    server = cli::start_server(opt.serve_addr, man);

  // Baselines: one clean simulation + analysis per preset.
  dcl::core::PipelineConfig pcfg;
  pcfg.identifier.em.max_iterations = 120;  // soak favors volume over polish
  struct Baseline {
    std::string name;
    dcl::trace::Trace trace;
    bool wdcl_accepted = false;
  };
  std::vector<Baseline> baselines;
  for (const auto& name : opt.presets) {
    if (!cli::is_preset(name)) {
      std::fprintf(stderr, "dclsoak: unknown preset %s\n", name.c_str());
      return 2;
    }
    Baseline b;
    b.name = name;
    b.trace = cli::preset_trace(name, opt.seed, opt.duration_s);
    const auto r = dcl::core::analyze_trace(b.trace, pcfg);
    if (!r.answered)
      return fail("baseline did not answer", name);
    if (r.degraded)
      return fail("clean baseline degraded", name + ": " +
                  (r.warnings.empty() ? "?" : r.warnings.front()));
    b.wdcl_accepted = r.identification.wdcl.accepted;
    if (opt.verbose)
      std::fprintf(stderr, "dclsoak: baseline %s: %zu records, wdcl=%s\n",
                   name.c_str(), b.trace.records.size(),
                   b.wdcl_accepted ? "accept" : "reject");
    baselines.push_back(std::move(b));
  }

  std::size_t runs = 0, degraded_runs = 0, unanswered = 0;
  std::size_t answered_runs = 0, verdict_flips = 0;
  std::size_t byte_runs = 0, byte_parse_ok = 0, byte_typed_rejects = 0;
  for (int s = 0; s < opt.schedules; ++s) {
    for (std::size_t p = 0; p < baselines.size(); ++p) {
      const std::uint64_t run_seed =
          opt.seed + 0x1000u * static_cast<std::uint64_t>(s) + p;
      const auto sched = dcl::faults::random_schedule(run_seed, 4,
                                                     /*byte faults*/ false);
      const dcl::faults::Injector injector(sched);
      dcl::faults::InjectionReport inj;
      const auto corrupted = injector.apply(baselines[p].trace, &inj);
      ++runs;
      reg.windowed_counter("faults.schedules").add(1);
      reg.windowed_counter("faults.injected_records")
          .add(inj.total_affected());

      dcl::core::PipelineResult r;
      try {
        r = dcl::core::analyze_trace(corrupted, pcfg);
      } catch (const std::exception& e) {
        return fail("exception escaped analyze_trace",
                    baselines[p].name + " schedule " + std::to_string(s) +
                        " [" + inj.summary() + "]: " + e.what());
      }
      if (r.degraded) {
        ++degraded_runs;
        if (r.warnings.empty())
          return fail("degraded run with empty warning set",
                      baselines[p].name + " schedule " + std::to_string(s));
      }
      if (!r.answered) {
        ++unanswered;
      } else {
        ++answered_runs;
        if (r.identification.has_losses &&
            r.identification.wdcl.accepted != baselines[p].wdcl_accepted)
          ++verdict_flips;
      }
      if (opt.verbose && r.degraded)
        std::fprintf(stderr,
                     "dclsoak: %s schedule %d degraded [%s]: %s\n",
                     baselines[p].name.c_str(), s, inj.summary().c_str(),
                     r.warnings.empty() ? "" : r.warnings.front().c_str());
    }

    // Byte-level path: serialize the first preset, corrupt the bytes, and
    // require the parser to either succeed or reject with a typed error.
    {
      const auto sched =
          dcl::faults::random_schedule(opt.seed + 0xb17e5u + s, 2,
                                       /*byte faults*/ true);
      const dcl::faults::Injector injector(sched);
      std::ostringstream ss;
      dcl::trace::write_trace(ss, baselines[0].trace);
      const std::string corrupted_bytes = injector.apply_bytes(ss.str());
      ++byte_runs;
      try {
        std::istringstream in(corrupted_bytes);
        (void)dcl::trace::read_trace(in);
        ++byte_parse_ok;
      } catch (const dcl::util::Error& e) {
        if (e.code() != dcl::util::ErrorCode::kInvalidInput &&
            e.code() != dcl::util::ErrorCode::kIo)
          return fail("parser raised a non-input-typed error",
                      std::string(dcl::util::to_string(e.code())) + ": " +
                          e.what());
        ++byte_typed_rejects;
      } catch (const std::exception& e) {
        return fail("parser raised a non-dcl exception", e.what());
      }
    }
  }

  // Registry cross-checks: the obs counters must tell the same story the
  // driver observed (metrics-vs-reality drift is itself a bug).
  const auto snap = reg.snapshot();
  auto counter_value = [&](const char* name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return v;
    return 0;
  };
  if (counter_value("pipeline.internal_errors") != 0)
    return fail("internal errors surfaced through the graceful boundary",
                std::to_string(counter_value("pipeline.internal_errors")));
  if (counter_value("pipeline.degraded") != degraded_runs)
    return fail("pipeline.degraded counter disagrees with observed runs",
                std::to_string(counter_value("pipeline.degraded")) + " vs " +
                    std::to_string(degraded_runs));
  if (degraded_runs > 0 && counter_value("sanitize.reordered") +
                                   counter_value("sanitize.duplicates_dropped") +
                                   counter_value("sanitize.nonfinite_dropped") +
                                   counter_value("sanitize.negative_dropped") +
                                   counter_value("sanitize.outliers_dropped") +
                                   counter_value("em.retries") +
                                   counter_value("pipeline.deadline_skips") ==
                               0) {
    // Degradation without any recorded cause would mean a stage degraded
    // silently. (Skew-skip warnings alone can't happen here: the presets
    // always yield >= 2 distinct send times.)
    if (counter_value("em.fit_failures") == 0)
      return fail("degraded runs but no fault counters recorded", "");
  }
  const double flip_frac =
      answered_runs == 0
          ? 0.0
          : static_cast<double>(verdict_flips) /
                static_cast<double>(answered_runs);
  if (flip_frac > opt.max_flip_frac) {
    std::ostringstream os;
    os << verdict_flips << "/" << answered_runs << " = " << flip_frac
       << " > " << opt.max_flip_frac;
    return fail("verdict flip fraction above bound", os.str());
  }

  if (!opt.metrics_json.empty() &&
      !cli::write_metrics_json(opt.metrics_json, man)) {
    std::fprintf(stderr, "dclsoak: cannot write %s\n",
                 opt.metrics_json.c_str());
    return 1;
  }

  std::printf(
      "dclsoak: %zu runs over %zu presets x %d schedules: "
      "%zu degraded (%zu no-verdict), %zu/%zu verdict flips (%.2f), "
      "%zu byte runs (%zu parsed, %zu typed rejects), 0 crashes\n",
      runs, baselines.size(), opt.schedules, degraded_runs, unanswered,
      verdict_flips, answered_runs, flip_frac, byte_runs, byte_parse_ok,
      byte_typed_rejects);
  return 0;
}
