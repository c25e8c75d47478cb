// dclfleet — fleet-scale batch analysis: N traces, one process.
//
// Usage:
//   dclfleet [options] <dir | manifest | trace.csv>
//   dclfleet [options] --synth N
//
// Discovers a fleet of probe traces (every *.csv in a directory, a
// manifest file listing one trace path per line, or a single CSV — see
// src/fleet/manifest.h), runs the full dclid analysis pipeline on each
// across a two-level thread split (concurrent traces x EM threads per
// fit, picked automatically from fleet size vs core count), and emits one
// JSON verdict line per trace in trace-index order. The output is bitwise
// identical for every --outer-threads/--inner-threads combination: each
// trace analyzes under its own RNG stream forked from --seed by index,
// and lines are flushed in index order as their prefix completes.
//
// A failed trace (unreadable file, corrupt CSV) never sinks the fleet: it
// becomes a {"status":"failed","error":"<code>: ..."} line and the run
// continues (DESIGN.md §5.7 taxonomy at fleet granularity).
//
// `dclfleet --help` lists every option. This file holds job discovery,
// the threading plan, the journal and --resume, and the ordered emitter;
// the per-trace pipeline flags shared with dclid, the observability
// flags, validation, the config digest and the run session live in the
// CLI core (cli/cli_core.h). Notes on the fleet-only flags:
//   --timings              per-trace "wall_ms" is opt-in: timing is
//                          nondeterministic, so the default output stays
//                          byte-identical across thread splits
//   --journal PATH         append-only fsync'd checkpoint journal: one
//                          CRC-framed frame per finished trace, durable
//                          before its verdict line is emitted. Also arms
//                          the fatal-signal crash reporter, which writes
//                          PATH.crash.json on SIGSEGV/SIGABRT/SIGBUS/
//                          SIGFPE or std::terminate.
//   --resume               replay PATH's finished traces and execute only
//                          the rest; requires --journal and --out, and the
//                          concatenated output is byte-identical to an
//                          uninterrupted run (DESIGN.md §5.12). A journal
//                          written under another configuration digest is
//                          refused (exit 2).
//   --profile-out          sampling starts after job discovery.
//
// Exit codes: 0 every trace ok; 1 any trace degraded or failed; 2 invalid
// invocation or empty fleet; 3 internal error; 128+sig when ended by
// SIGINT/SIGTERM after draining in-flight traces and flushing the journal
// and output (resume completes the rest).
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cli_core.h"
#include "faults/faults.h"
#include "fleet/fleet.h"
#include "fleet/journal.h"
#include "fleet/manifest.h"
#include "fleet/synth.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "util/crash.h"
#include "util/thread_pool.h"

namespace {

namespace cli = dcl::cli;

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s [options] <dir | manifest | trace.csv>\n"
      "       %s [options] --synth N\n"
      "  --outer-threads N      concurrent traces (default 0 = auto)\n"
      "  --inner-threads N      EM threads per fit (default 0 = auto)\n"
      "  --print-plan           print the threading plan and exit\n"
      "  --timings              add nondeterministic wall_ms per line\n"
      "  --out FILE             JSON-lines verdicts (default stdout)\n"
      "  --synth N              in-process N-path synthetic mesh\n"
      "  --synth-probes T       probes per synthetic path (default 1200)\n"
      "  --journal PATH         fsync'd checkpoint journal (+ crash reports\n"
      "                         to PATH.crash.json on fatal signals)\n"
      "  --resume               skip PATH's finished traces; needs --journal\n"
      "                         and --out; output stays byte-identical\n"
      "  --trace-retries N      retry transient trace failures N times with\n"
      "                         exponential backoff (default 0)\n"
      "  --trace-timeout SEC    watchdog: fail traces running > SEC\n"
      "%s%s",
      argv0, argv0, cli::kPipelineUsage, cli::Session::kUsage);
  std::exit(code);
}

// One verdict line. Formatting is locale-free printf with fixed precision,
// so identical outcomes serialize to identical bytes — the property the
// check.sh smoke compares across thread splits.
std::string outcome_json(const dcl::fleet::TraceOutcome& o,
                         bool with_timings) {
  char buf[512];
  std::string line = "{";
  std::snprintf(buf, sizeof(buf),
                "\"index\":%zu,\"id\":\"%s\",\"status\":\"%s\",\"seed\":%llu",
                o.index, dcl::obs::json_escape(o.id).c_str(),
                dcl::fleet::to_string(o.status),
                static_cast<unsigned long long>(o.seed));
  line += buf;
  if (o.status == dcl::fleet::TraceStatus::kFailed) {
    line += ",\"error\":\"" + dcl::obs::json_escape(o.error) + "\"";
  } else {
    const auto& id = o.result.identification;
    std::snprintf(
        buf, sizeof(buf),
        ",\"probes\":%zu,\"answered\":%s,\"losses\":%zu,"
        "\"loss_rate\":%.6f,\"sdcl\":%s,\"wdcl\":%s,\"i_star\":%d,"
        "\"f2istar\":%.6f,\"bound_ms\":%.3f,\"degraded\":%s,\"warnings\":%zu",
        o.probes, o.result.answered ? "true" : "false", id.losses,
        id.loss_rate, id.sdcl.accepted ? "true" : "false",
        id.wdcl.accepted ? "true" : "false", id.wdcl.i_star,
        id.wdcl.f_at_2istar,
        id.wdcl.accepted ? id.coarse_bound.seconds * 1e3 : 0.0,
        o.result.degraded ? "true" : "false", o.result.warnings.size());
    line += buf;
  }
  // Timing is opt-in: the default line carries only deterministic fields,
  // so the output is byte-identical for every outer x inner split.
  if (with_timings) {
    std::snprintf(buf, sizeof(buf), ",\"wall_ms\":%.3f", o.wall_s * 1e3);
    line += buf;
  }
  line += "}";
  return line;
}

// Flushes verdict lines in trace-index order as their prefix completes:
// line i is written once every line < i has been. run_fleet serializes
// calls to push(), so no locking here. On a --resume, lines below the
// `emit_from` watermark (already present in the output file from the
// interrupted run) still advance the ordering state but are not written
// again — the appended output continues exactly where the file left off.
class OrderedEmitter {
 public:
  OrderedEmitter(std::FILE* out, std::size_t n, bool with_timings,
                 std::size_t emit_from = 0)
      : out_(out),
        with_timings_(with_timings),
        lines_(n),
        ready_(n, false),
        emit_from_(emit_from) {}

  void push(const dcl::fleet::TraceOutcome& o) {
    lines_[o.index] = outcome_json(o, with_timings_);
    ready_[o.index] = true;
    while (next_ < lines_.size() && ready_[next_]) {
      if (next_ >= emit_from_) {
        std::fputs(lines_[next_].c_str(), out_);
        std::fputc('\n', out_);
      }
      std::string().swap(lines_[next_]);  // emitted lines don't linger
      ++next_;
    }
    std::fflush(out_);
  }

 private:
  std::FILE* out_;
  bool with_timings_;
  std::vector<std::string> lines_;
  std::vector<bool> ready_;
  std::size_t next_ = 0;
  std::size_t emit_from_ = 0;
};

// Prepares an interrupted run's output file for --resume: truncates a
// torn partial trailing line (killed mid-fputs) back to the last complete
// one and returns how many complete lines remain — the emitter's
// watermark. A missing file is simply an empty prefix.
std::size_t resume_out_watermark(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::string data;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, n);
  std::fclose(f);
  std::size_t keep = data.find_last_of('\n');
  keep = keep == std::string::npos ? 0 : keep + 1;
  if (keep != data.size() &&
      truncate(path.c_str(), static_cast<off_t>(keep)) != 0)
    cli::config_error("cannot truncate " + path + ": " +
                      std::strerror(errno));
  std::size_t lines = 0;
  for (std::size_t i = 0; i < keep; ++i)
    if (data[i] == '\n') ++lines;
  return lines;
}

// Opens the checkpoint journal and arms the crash reporter. On --resume,
// replays the journal's finished traces into cfg.completed and returns
// the output watermark; a journal written under another seed, fleet size
// or configuration digest is refused with exit 2, untouched.
std::size_t open_journal(dcl::fleet::journal::Writer& writer,
                         const std::string& path, bool resume,
                         const std::string& out_path, std::size_t jobs,
                         const dcl::obs::RunManifest& man,
                         dcl::fleet::FleetConfig& cfg) {
  namespace journal = dcl::fleet::journal;
  dcl::util::crash::Options copts;
  copts.report_path = path + ".crash.json";
  copts.manifest_json = man.to_json();
  if (!dcl::util::crash::install(copts))
    dcl::obs::log::warnf("crash", "cannot install fatal-signal handlers; "
                         "continuing without crash reports");
  journal::Header want;
  want.base_seed = man.seed;
  want.jobs = jobs;
  want.config_digest = man.config_digest;
  if (!resume) {
    writer.create(path, want);
    return 0;
  }
  const journal::Replay rep = journal::read_file(path);
  if (!rep.has_header) cli::config_error("--resume: journal has no header");
  if (rep.header.version != journal::kVersion ||
      rep.header.base_seed != want.base_seed || rep.header.jobs != want.jobs ||
      rep.header.config_digest != want.config_digest)
    cli::config_error("--resume: journal header does not match this "
                      "invocation (seed, fleet size, or config changed)");
  if (!rep.warning.empty())
    dcl::obs::log::warnf("journal", "%s", rep.warning.c_str());
  for (const journal::Entry& e : rep.entries)
    cfg.completed.push_back(journal::outcome_from_entry(e));
  const std::size_t emit_from = resume_out_watermark(out_path);
  writer.reopen(path, rep.valid_bytes);
  return emit_from;
}

}  // namespace

int main(int argc, char** argv) {
  cli::set_program("dclfleet");
  dcl::fleet::FleetConfig cfg;
  cli::Session session;
  std::string input;
  std::string out_path;
  std::string journal_path;
  bool resume = false;
  long synth_paths = 0;
  long synth_probes = 1200;
  bool print_plan = false;
  bool with_timings = false;

  cli::Args args(argc, argv);
  while (args.next()) {
    if (args.is("-h") || args.is("--help")) usage(argv[0], 0);
    else if (cli::parse_pipeline_flag(args, cfg.pipeline) ||
             session.parse_flag(args)) {}
    else if (args.is("--outer-threads")) cfg.outer_threads = args.int32();
    else if (args.is("--inner-threads")) cfg.inner_threads = args.int32();
    else if (args.is("--print-plan")) print_plan = true;
    else if (args.is("--timings")) with_timings = true;
    else if (args.is("--out")) out_path = args.value();
    else if (args.is("--journal")) journal_path = args.value();
    else if (args.is("--resume")) resume = true;
    else if (args.is("--trace-retries")) cfg.trace_retries = args.int32();
    else if (args.is("--trace-timeout")) cfg.trace_timeout_s = args.real();
    else if (args.is("--synth")) synth_paths = args.integer();
    else if (args.is("--synth-probes")) synth_probes = args.integer();
    else if (args.operand() && input.empty()) input = args.arg();
    else usage(argv[0], 2);
  }

  // --print-manifest needs no fleet: provenance is a property of the
  // invocation, not of a discovered job list.
  if (!session.print_manifest && input.empty() == (synth_paths == 0))
    usage(argv[0], 2);
  if (synth_paths < 0) cli::config_error("--synth must be >= 1");
  if (synth_probes < 100) cli::config_error("--synth-probes must be >= 100");
  if (cfg.outer_threads < 0) cli::config_error("--outer-threads must be >= 0");
  if (cfg.inner_threads < 0) cli::config_error("--inner-threads must be >= 0");
  cli::validate(cfg.pipeline);
  session.validate();
  if (cfg.trace_retries < 0) cli::config_error("--trace-retries must be >= 0");
  if (!(cfg.trace_timeout_s >= 0.0))
    cli::config_error("--trace-timeout must be >= 0");
  if (resume && journal_path.empty())
    cli::config_error("--resume requires --journal");
  if (resume && out_path.empty())
    cli::config_error("--resume requires --out (the file to continue)");

  auto& man = session.manifest;
  man = dcl::obs::manifest("dclfleet");
  man.seed = cfg.pipeline.identifier.em.seed;
  const std::string source = synth_paths > 0
                                 ? "synth:" + std::to_string(synth_paths)
                             : input.empty() ? "none"
                                             : input;
  man.add("input", source);
  man.config_digest = dcl::obs::digest_hex(cli::config_key(
      cfg.pipeline,
      synth_paths > 0
          ? source + ";synth_probes=" + std::to_string(synth_probes)
          : source));
  if (session.print_manifest) {
    // Ops parity with dclid --print-manifest: before any job discovery,
    // so no traces/threading-plan keys.
    std::printf("%s\n", man.to_json().c_str());
    return 0;
  }

  // Process-level fault hooks (DCL_CRASH_AT_TRACE / DCL_HANG_AT_TRACE /
  // DCL_FLAKY_AT_TRACE): inert unless armed, used by the kill-resume and
  // watchdog smokes to drive a release binary into controlled failure.
  dcl::faults::proc::arm_from_env();
  // Drain on SIGINT/SIGTERM: workers finish claimed traces, the journal
  // and output flush, and the process exits 128+sig.
  session.begin(/*drain_on_signal=*/true);
  return session.run([&] {
    // Assemble the fleet before starting the clock: discovery names the
    // work, it never opens a trace (missing files fail per-trace later).
    std::vector<dcl::fleet::TraceJob> jobs;
    if (synth_paths > 0) {
      dcl::fleet::MeshConfig mesh;
      mesh.paths = static_cast<std::size_t>(synth_paths);
      mesh.probes_per_path = static_cast<std::size_t>(synth_probes);
      mesh.seed = cfg.pipeline.identifier.em.seed;
      jobs = dcl::fleet::synth_mesh(mesh);
    } else {
      jobs = dcl::fleet::discover_jobs(input);
    }

    const auto plan = dcl::fleet::plan_threads(
        jobs.size(), dcl::util::ThreadPool::hardware_threads(),
        cfg.outer_threads, cfg.inner_threads);
    if (print_plan) {
      std::printf(
          "{\"traces\":%zu,\"hardware_threads\":%zu,\"outer\":%d,"
          "\"inner\":%d,\"mode\":\"%s\",\"auto\":%s}\n",
          jobs.size(), dcl::util::ThreadPool::hardware_threads(), plan.outer,
          plan.inner, dcl::fleet::to_string(plan.mode),
          plan.auto_selected ? "true" : "false");
      return 0;
    }
    man.add("traces", std::to_string(jobs.size()));
    man.add("outer_threads", std::to_string(plan.outer));
    man.add("inner_threads", std::to_string(plan.inner));
    man.add("mode", dcl::fleet::to_string(plan.mode));

    dcl::fleet::journal::Writer writer;
    const std::size_t emit_from =
        journal_path.empty()
            ? 0
            : open_journal(writer, journal_path, resume, out_path,
                           jobs.size(), man, cfg);
    session.open();

    std::FILE* out = stdout;
    if (!out_path.empty()) {
      out = std::fopen(out_path.c_str(), resume ? "a" : "w");
      if (out == nullptr) {
        std::fprintf(stderr, "dclfleet: cannot open %s\n", out_path.c_str());
        return 2;
      }
    }
    // Unlike dclid, the whole run is the analysis: synthetic-mesh
    // generation above is already done, so sampling starts here.
    session.start_profiler();

    cfg.cancel = session.cancel();
    OrderedEmitter emitter(out, jobs.size(), with_timings, emit_from);
    const auto report = dcl::fleet::run_fleet(
        jobs, cfg, [&](const dcl::fleet::TraceOutcome& o) {
          // Durability before visibility: the outcome frame is on disk
          // (fsync'd) before its verdict line can reach the output, so a
          // kill at any instruction never loses an emitted line. Replayed
          // outcomes (executed = false) are not re-journaled.
          if (writer.is_open() && o.executed)
            writer.append(dcl::fleet::journal::entry_from_outcome(o));
          emitter.push(o);
        });
    if (out != stdout) std::fclose(out);
    writer.close();

    std::fprintf(stderr,
                 "dclfleet: %zu traces: %zu ok, %zu degraded, %zu failed"
                 "%s%s%s%s; outer=%d inner=%d (%s%s); %.1f paths/s in %.2f s\n",
                 report.traces.size(), report.ok, report.degraded,
                 report.failed,
                 report.replayed > 0 ? ", " : "",
                 report.replayed > 0
                     ? (std::to_string(report.replayed) + " replayed").c_str()
                     : "",
                 report.cancelled > 0 ? ", " : "",
                 report.cancelled > 0
                     ? (std::to_string(report.cancelled) + " cancelled").c_str()
                     : "",
                 report.plan.outer, report.plan.inner,
                 report.plan.auto_selected ? "auto " : "",
                 dcl::fleet::to_string(report.plan.mode),
                 report.paths_per_sec, report.wall_s);
    return report.degraded + report.failed > 0 ? 1 : 0;
  });
}
