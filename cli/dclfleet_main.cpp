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
// Options:
//   --outer-threads N      concurrent traces (0 = auto from fleet size)
//   --inner-threads N      EM worker threads per fit (0 = auto)
//   --print-plan           print the resolved threading plan and exit 0
//   --timings              add per-trace "wall_ms" to each verdict line
//                          (opt-in: timing is nondeterministic, so the
//                          default output stays byte-identical across
//                          thread splits)
//   --out FILE             JSON-lines output file (default stdout)
//   --synth N              analyze an in-process N-path synthetic mesh
//                          instead of files (bench/smoke workload)
//   --synth-probes T       probes per synthetic path (default 1200)
//   -M/--symbols, -N/--hidden, --model, --restarts, --seed, --race-*,
//   --eps-l, --eps-d, --deadline, --no-sanitize,
//   --no-skew-correction   per-trace pipeline knobs, as in dclid (the
//                          restart-budget set is shared via cli/em_flags.h)
//   --serve ADDR           live ops HTTP server for mid-run scraping:
//                          fleet.* progress counters on /metrics and
//                          /statusz (see obs/serve.h)
//   --serve-linger SEC     keep serving after the run (inf = SIGINT)
//   --metrics-json FILE    observability snapshot on exit
//   --profile-out FILE     sample the whole fleet run with the CPU
//                          profiler (obs/prof.h): .collapsed/.folded/.txt
//                          → flamegraph.pl stacks, else speedscope JSON
//   --profile-hz N         profiler sampling rate (default 99)
//   --print-manifest       print the RunManifest JSON this invocation
//                          would stamp on its exports and exit 0 — no
//                          job discovery, so it works without an input
//                          (ops parity with dclid --print-manifest)
//   --journal PATH         append-only fsync'd checkpoint journal: one
//                          CRC-framed frame per finished trace, durable
//                          before its verdict line is emitted. Also arms
//                          the fatal-signal crash reporter, which writes
//                          PATH.crash.json on SIGSEGV/SIGABRT/SIGBUS/
//                          SIGFPE or std::terminate.
//   --resume               replay PATH's finished traces and execute only
//                          the rest; requires --journal and --out, and the
//                          concatenated output is byte-identical to an
//                          uninterrupted run (DESIGN.md §5.12)
//   --trace-retries N      retry transient per-trace failures (io /
//                          resource_limit) up to N times with exponential
//                          backoff + jitter (default 0 = off)
//   --trace-timeout SEC    watchdog: mark traces running longer than SEC
//                          failed at the join (default 0 = off)
//   --log-level/--log-json/--verbose   as in dclid
//
// Exit codes: 0 every trace ok; 1 any trace degraded or failed; 2 invalid
// invocation or empty fleet; 3 internal error; 128+sig when ended by
// SIGINT/SIGTERM after draining in-flight traces and flushing the journal
// and output (resume completes the rest).
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <errno.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "em_flags.h"
#include "faults/faults.h"
#include "fleet/fleet.h"
#include "fleet/journal.h"
#include "fleet/manifest.h"
#include "fleet/synth.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "obs/serve.h"
#include "util/crash.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace {

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
      "  -M, --symbols N        delay symbols (default 10)\n"
      "  -N, --hidden N         MMHD hidden states (default 2)\n"
      "  --model mmhd|hmm|auto  inference model (default mmhd; auto races\n"
      "                         the structures and fits the BIC winner)\n"
      "%s"
      "  --eps-l X / --eps-d X  WDCL test parameters (0.06 / 0)\n"
      "  --deadline SECONDS     per-trace wall budget (default 0 = none)\n"
      "  --no-sanitize          fail fast per trace on pathological input\n"
      "  --no-skew-correction   skip clock-skew removal\n"
      "  --serve ADDR           ops HTTP server (host:port, :port, port)\n"
      "  --serve-linger SEC     keep serving after the run (inf = signal)\n"
      "  --metrics-json FILE    metrics snapshot as JSON\n"
      "  --profile-out FILE     sample the fleet run with the CPU profiler;\n"
      "                         .collapsed/.folded/.txt = flamegraph.pl\n"
      "                         stacks, else speedscope JSON\n"
      "  --profile-hz N         profiler sampling rate (default 99)\n"
      "  --print-manifest       print the RunManifest JSON for this\n"
      "                         invocation and exit (no input required)\n"
      "  --journal PATH         fsync'd checkpoint journal (+ crash reports\n"
      "                         to PATH.crash.json on fatal signals)\n"
      "  --resume               skip PATH's finished traces; needs --journal\n"
      "                         and --out; output stays byte-identical\n"
      "  --trace-retries N      retry transient trace failures N times with\n"
      "                         exponential backoff (default 0)\n"
      "  --trace-timeout SEC    watchdog: fail traces running > SEC\n"
      "  --log-level LVL        debug|info|warn|error|off (default warn)\n"
      "  --log-json             JSON log lines\n"
      "  --verbose              progress + manifest to stderr\n"
      "exit codes: 0 all ok, 1 any degraded/failed, 2 invalid input,\n"
      "            3 internal error, 128+sig after a signal-triggered drain\n",
      argv0, argv0, dcl::cli::kEmFlagsUsage);
  std::exit(code);
}

volatile std::sig_atomic_t g_signal = 0;
std::atomic<bool> g_cancel{false};
extern "C" void on_signal(int sig) {
  g_signal = sig;
  g_cancel.store(true, std::memory_order_relaxed);
}

// Value parsers and error reporting live in cli/em_flags.h, shared with
// dclid; these wrappers pin the program name for local call sites.
[[noreturn]] void config_error(const char* msg) {
  dcl::cli::config_error("dclfleet", msg);
}

double parse_double(const char* v, const char* flag) {
  return dcl::cli::parse_double("dclfleet", v, flag);
}

long parse_long(const char* v, const char* flag) {
  return dcl::cli::parse_long("dclfleet", v, flag);
}

int parse_int(const char* v, const char* flag) {
  return dcl::cli::parse_int("dclfleet", v, flag);
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
  if (keep != data.size()) {
    if (truncate(path.c_str(), static_cast<off_t>(keep)) != 0) {
      std::fprintf(stderr, "dclfleet: cannot truncate %s: %s\n", path.c_str(),
                   std::strerror(errno));
      std::exit(2);
    }
  }
  std::size_t lines = 0;
  for (std::size_t i = 0; i < keep; ++i)
    if (data[i] == '\n') ++lines;
  return lines;
}

bool write_metrics_json(const std::string& path,
                        const dcl::obs::Registry& reg,
                        const dcl::obs::RunManifest& manifest) {
  const std::string json = reg.to_json(manifest);
  if (path == "-") {
    std::fwrite(json.data(), 1, json.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  dcl::fleet::FleetConfig cfg;
  cfg.pipeline.identifier.em.restarts = 1;
  std::string input;
  std::string out_path;
  std::string journal_path;
  bool resume = false;
  std::string metrics_json_path;
  std::string serve_addr;
  std::string log_level_flag;
  double serve_linger_s = 0.0;
  std::string profile_out_path;
  int profile_hz = 99;
  long synth_paths = 0;
  long synth_probes = 1200;
  bool print_plan = false;
  bool print_manifest = false;
  bool with_timings = false;
  bool log_json = false;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dclfleet: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "-h" || a == "--help") usage(argv[0], 0);
    else if (a == "--outer-threads")
      cfg.outer_threads = parse_int(need("--outer-threads"), "--outer-threads");
    else if (a == "--inner-threads")
      cfg.inner_threads = parse_int(need("--inner-threads"), "--inner-threads");
    else if (a == "--print-plan")
      print_plan = true;
    else if (a == "--timings")
      with_timings = true;
    else if (a == "--out")
      out_path = need("--out");
    else if (a == "--journal")
      journal_path = need("--journal");
    else if (a == "--resume")
      resume = true;
    else if (a == "--trace-retries")
      cfg.trace_retries =
          parse_int(need("--trace-retries"), "--trace-retries");
    else if (a == "--trace-timeout")
      cfg.trace_timeout_s =
          parse_double(need("--trace-timeout"), "--trace-timeout");
    else if (a == "--synth")
      synth_paths = parse_long(need("--synth"), "--synth");
    else if (a == "--synth-probes")
      synth_probes = parse_long(need("--synth-probes"), "--synth-probes");
    else if (a == "-M" || a == "--symbols")
      cfg.pipeline.identifier.symbols = parse_int(need(a.c_str()), a.c_str());
    else if (a == "-N" || a == "--hidden")
      cfg.pipeline.identifier.hidden_states =
          parse_int(need(a.c_str()), a.c_str());
    else if (a == "--model") {
      const std::string m = need("--model");
      if (m == "mmhd") cfg.pipeline.identifier.model = dcl::core::ModelKind::kMmhd;
      else if (m == "hmm") cfg.pipeline.identifier.model = dcl::core::ModelKind::kHmm;
      else if (m == "auto") cfg.pipeline.identifier.model = dcl::core::ModelKind::kAuto;
      else usage(argv[0], 2);
    } else if (dcl::cli::parse_em_flag("dclfleet", a, need,
                                       cfg.pipeline.identifier.em))
      ;  // --restarts/--seed/--race-*, shared with dclid
    else if (a == "--eps-l")
      cfg.pipeline.identifier.eps_l = parse_double(need("--eps-l"), "--eps-l");
    else if (a == "--eps-d")
      cfg.pipeline.identifier.eps_d = parse_double(need("--eps-d"), "--eps-d");
    else if (a == "--deadline")
      cfg.pipeline.deadline_s = parse_double(need("--deadline"), "--deadline");
    else if (a == "--no-sanitize")
      cfg.pipeline.sanitize = false;
    else if (a == "--no-skew-correction")
      cfg.pipeline.correct_clock_skew = false;
    else if (a == "--serve")
      serve_addr = need("--serve");
    else if (a == "--serve-linger")
      serve_linger_s = parse_double(need("--serve-linger"), "--serve-linger");
    else if (a == "--metrics-json")
      metrics_json_path = need("--metrics-json");
    else if (a == "--profile-out")
      profile_out_path = need("--profile-out");
    else if (a == "--profile-hz")
      profile_hz = parse_int(need("--profile-hz"), "--profile-hz");
    else if (a == "--print-manifest")
      print_manifest = true;
    else if (a == "--log-level")
      log_level_flag = need("--log-level");
    else if (a == "--log-json")
      log_json = true;
    else if (a == "--verbose" || a == "-v")
      verbose = true;
    else if (!a.empty() && a[0] == '-')
      usage(argv[0], 2);
    else if (input.empty())
      input = a;
    else
      usage(argv[0], 2);
  }

  // --print-manifest needs no fleet: provenance is a property of the
  // invocation, not of a discovered job list.
  if (!print_manifest && input.empty() == (synth_paths == 0))
    usage(argv[0], 2);
  if (synth_paths < 0) config_error("--synth must be >= 1");
  if (synth_probes < 100) config_error("--synth-probes must be >= 100");
  if (cfg.outer_threads < 0) config_error("--outer-threads must be >= 0");
  if (cfg.inner_threads < 0) config_error("--inner-threads must be >= 0");
  dcl::cli::validate_em("dclfleet", cfg.pipeline.identifier.em);
  if (cfg.pipeline.identifier.symbols < 2)
    config_error("--symbols must be >= 2");
  if (cfg.pipeline.identifier.hidden_states < 1)
    config_error("--hidden must be >= 1");
  if (cfg.pipeline.deadline_s < 0.0) config_error("--deadline must be >= 0");
  if (serve_linger_s < 0.0 && !std::isinf(serve_linger_s))
    config_error("--serve-linger must be >= 0 (or inf)");
  if (profile_hz < 1 || profile_hz > 10000)
    config_error("--profile-hz must be in [1, 10000]");
  if (cfg.trace_retries < 0) config_error("--trace-retries must be >= 0");
  if (cfg.trace_timeout_s < 0.0) config_error("--trace-timeout must be >= 0");
  if (resume && journal_path.empty())
    config_error("--resume requires --journal");
  if (resume && out_path.empty())
    config_error("--resume requires --out (the file to continue)");

  // The per-trace configuration — what makes two runs comparable — for
  // both manifest digests below.
  const auto& em = cfg.pipeline.identifier.em;
  const std::string per_trace_key =
      "seed=" + std::to_string(em.seed) +
      ";restarts=" + std::to_string(em.restarts) + ';' +
      dcl::cli::em_digest_fields(em) +
      "symbols=" + std::to_string(cfg.pipeline.identifier.symbols) +
      ";hidden=" + std::to_string(cfg.pipeline.identifier.hidden_states);

  if (print_manifest) {
    // Ops parity with dclid --print-manifest: the RunManifest this
    // invocation would stamp on its exports, before any job discovery —
    // so no traces/threading-plan keys, and the digest covers only the
    // per-trace configuration.
    auto man = dcl::obs::manifest("dclfleet");
    man.seed = em.seed;
    man.add("input", synth_paths > 0 ? "synth:" + std::to_string(synth_paths)
                     : input.empty() ? "none"
                                     : input);
    man.config_digest = dcl::obs::digest_hex(per_trace_key);
    std::printf("%s\n", man.to_json().c_str());
    return 0;
  }

  namespace log = dcl::obs::log;
  log::Level level = verbose ? log::Level::kDebug : log::Level::kWarn;
  if (!log_level_flag.empty() && !log::parse_level(log_level_flag, level))
    config_error("--log-level must be debug|info|warn|error|off");
  log::set_level(level);
  log::set_json(log_json);
  log::install_error_listener();

  // Process-level fault hooks (DCL_CRASH_AT_TRACE / DCL_HANG_AT_TRACE /
  // DCL_FLAKY_AT_TRACE): inert unless armed, used by the kill-resume and
  // watchdog smokes to drive a release binary into controlled failure.
  dcl::faults::proc::arm_from_env();

  // Drain on SIGINT/SIGTERM: workers finish claimed traces, the journal
  // and output flush, and the process exits 128+sig.
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  auto& registry = dcl::obs::Registry::global();
  if (verbose || !metrics_json_path.empty() || !serve_addr.empty())
    dcl::obs::set_enabled(true);

  try {
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

    auto man = dcl::obs::manifest("dclfleet");
    man.seed = cfg.pipeline.identifier.em.seed;
    man.add("input", synth_paths > 0
                         ? "synth:" + std::to_string(synth_paths)
                         : input);
    man.add("traces", std::to_string(jobs.size()));
    man.add("outer_threads", std::to_string(plan.outer));
    man.add("inner_threads", std::to_string(plan.inner));
    man.add("mode", dcl::fleet::to_string(plan.mode));
    man.config_digest = dcl::obs::digest_hex(
        "traces=" + std::to_string(jobs.size()) + ';' + per_trace_key);
    if (verbose) log::infof("manifest", "%s", man.to_json().c_str());

    std::unique_ptr<dcl::obs::serve::Server> server;
    if (!serve_addr.empty()) {
      dcl::obs::serve::Options sopts;
      if (!dcl::obs::serve::parse_address(serve_addr, sopts))
        config_error("--serve must be host:port, :port, or port");
      sopts.manifest = man;
      server = dcl::obs::serve::Server::start(std::move(sopts));
      std::fprintf(stderr, "dclfleet: serving on %s\n",
                   server->address().c_str());
    }

    // --- durable execution: crash reports + checkpoint journal ------------
    namespace journal = dcl::fleet::journal;
    journal::Writer writer;
    std::size_t emit_from = 0;
    if (!journal_path.empty()) {
      dcl::util::crash::Options copts;
      copts.report_path = journal_path + ".crash.json";
      copts.manifest_json = man.to_json();
      if (!dcl::util::crash::install(copts))
        log::warnf("crash", "cannot install fatal-signal handlers; "
                   "continuing without crash reports");

      journal::Header want;
      want.base_seed = cfg.pipeline.identifier.em.seed;
      want.jobs = jobs.size();
      want.config_digest = man.config_digest;
      if (resume) {
        const journal::Replay rep = journal::read_file(journal_path);
        if (!rep.has_header) config_error("--resume: journal has no header");
        if (rep.header.version != journal::kVersion ||
            rep.header.base_seed != want.base_seed ||
            rep.header.jobs != want.jobs ||
            rep.header.config_digest != want.config_digest)
          config_error("--resume: journal header does not match this "
                       "invocation (seed, fleet size, or config changed)");
        if (!rep.warning.empty())
          log::warnf("journal", "%s", rep.warning.c_str());
        for (const journal::Entry& e : rep.entries)
          cfg.completed.push_back(journal::outcome_from_entry(e));
        emit_from = resume_out_watermark(out_path);
        writer.reopen(journal_path, rep.valid_bytes);
      } else {
        writer.create(journal_path, want);
      }
    }

    std::FILE* out = stdout;
    if (!out_path.empty()) {
      out = std::fopen(out_path.c_str(), resume ? "a" : "w");
      if (out == nullptr) {
        std::fprintf(stderr, "dclfleet: cannot open %s\n", out_path.c_str());
        return 2;
      }
    }

    if (!profile_out_path.empty()) {
      // Unlike dclid, the whole run is the analysis — synthetic-mesh
      // generation above is already done, so sampling starts here.
      dcl::obs::prof::Options popts;
      popts.hz = profile_hz;
      if (!dcl::obs::prof::start(popts))
        log::warnf("prof", "profiler unavailable (timer_create failed); "
                   "continuing without --profile-out sampling");
    }

    cfg.cancel = &g_cancel;
    OrderedEmitter emitter(out, jobs.size(), with_timings, emit_from);
    const auto report = dcl::fleet::run_fleet(
        jobs, cfg, [&](const dcl::fleet::TraceOutcome& o) {
          // Durability before visibility: the outcome frame is on disk
          // (fsync'd) before its verdict line can reach the output, so a
          // kill at any instruction never loses an emitted line. Replayed
          // outcomes (executed = false) are not re-journaled.
          if (writer.is_open() && o.executed)
            writer.append(journal::entry_from_outcome(o));
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

    int rc = report.degraded + report.failed > 0 ? 1 : 0;
    if (!profile_out_path.empty()) {
      dcl::obs::prof::stop();
      // Publish first so prof.self_cpu.* gauges ride along in the
      // --metrics-json snapshot and a lingering /metrics.
      dcl::obs::prof::publish_self_cpu(registry);
      if (!dcl::obs::prof::write_profile(profile_out_path, &man)) {
        log::errorf("io", "cannot write %s", profile_out_path.c_str());
        if (rc == 0) rc = 1;
      }
    }
    if (!metrics_json_path.empty() &&
        !write_metrics_json(metrics_json_path, registry, man)) {
      log::errorf("io", "cannot write %s", metrics_json_path.c_str());
      if (rc == 0) rc = 1;
    }
    if (server != nullptr) {
      const auto t0 = std::chrono::steady_clock::now();
      auto elapsed_s = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
      };
      while (g_signal == 0 &&
             (std::isinf(serve_linger_s) || elapsed_s() < serve_linger_s))
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      server->stop();
    }
    // A signal-triggered drain exits 128+sig (the documented ladder): the
    // in-flight traces finished, the journal and output are flushed, and
    // the parent can distinguish "interrupted, resumable" from "done".
    if (g_signal != 0) return 128 + static_cast<int>(g_signal);
    return rc;
  } catch (const dcl::util::Error& e) {
    log::errorf("run.failed", "%s error: %s", dcl::util::to_string(e.code()),
                e.what());
    switch (e.code()) {
      case dcl::util::ErrorCode::kInvalidInput:
      case dcl::util::ErrorCode::kIo:
        return 2;
      case dcl::util::ErrorCode::kDegenerateModel:
      case dcl::util::ErrorCode::kResourceLimit:
        return 1;
      case dcl::util::ErrorCode::kInternal:
        break;
    }
    return 3;
  } catch (const std::exception& e) {
    log::errorf("run.failed", "internal error: %s", e.what());
    return 3;
  }
}
