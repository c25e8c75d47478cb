// dclid — command-line dominant-congested-link analysis of a probe trace.
//
// Usage:
//   dclid [options] <trace.csv>
//   dclid [options] --scenario sdcl|wdcl|nodcl
//
// Reads a dclid-trace CSV (see src/trace/trace_io.h) — or simulates one of
// the built-in chain scenarios in-process — optionally removes clock skew
// and selects a stationary window, runs the model-based identification,
// and prints a human-readable report:
//
//   $ dclid --eps-l 0.1 --eps-d 0.1 path-to-receiver.csv
//
// With --trace-out FILE the whole run is captured by the flight recorder
// (obs/trace.h) and exported as Chrome trace-event JSON loadable in
// Perfetto / chrome://tracing — pipeline stages and EM restart/iteration
// spans per worker thread, plus simulated-time tracks (per-link queue
// occupancy, drops, probe lifecycle) when --scenario is used.
//
// Options:
//   -M, --symbols N        delay symbols for the hypothesis tests (10)
//   -N, --hidden N         hidden states of the MMHD (2)
//   --model mmhd|hmm|auto  inference model (mmhd); auto races the two
//                          structures on shared rungs, fits the BIC winner
//   --eps-l X / --eps-d X  WDCL test parameters (0.06 / 0)
//   --dprop SECONDS        known propagation delay (default: min delay)
//   --no-skew-correction   skip clock-skew removal
//   --window N             analyze the most stationary window of N probes
//   --bound-symbols N      fine grid for the delay bound (50)
//   --bootstrap R          bootstrap decision confidence with R replicates
//   --bootstrap-refit      sequence bootstrap with warm-started EM refits
//                          instead of posterior resampling
//   --select-N MAX         choose the hidden-state count by BIC in 1..MAX
//   --race-warmup K        successive-halving restart racing: first rung
//                          after K iterations (0 = off)
//   --race-keep F          fraction of restarts kept per rung (0.5)
//   --race-grow X          per-rung budget growth factor (1.0)
//   --race-overtake X      overtake-bound optimism retaining trailing
//                          restarts (1.0; 0 = pure rank cut)
//   --restarts R           independent EM restarts (1)
//   --seed N               EM (and scenario) seed (1)
//   --threads N            worker threads for EM restarts, BIC candidates,
//                          and bootstrap replicates (0 = all cores; the
//                          result is identical for any value)
//   --scenario NAME        simulate a built-in chain scenario (sdcl, wdcl,
//                          nodcl) instead of reading a trace file
//   --duration SECONDS     simulated seconds for --scenario (700)
//   --trace-out FILE       flight-record the run; write Chrome trace JSON
//   --profile-out FILE     sample the analysis with the CPU profiler
//                          (obs/prof.h) and write the profile: .collapsed/
//                          .folded/.txt → flamegraph.pl collapsed stacks,
//                          anything else → speedscope JSON. Sampling
//                          starts after the trace is read or simulated, so
//                          the profile covers the analysis pipeline
//   --profile-hz N         profiler sampling rate (default 99)
//   --metrics-json FILE    write an observability snapshot (stage timings,
//                          EM telemetry, run manifest) as JSON to FILE
//                          ("-" = stdout)
//   --deadline SECONDS     wall-clock budget; optional stages are skipped
//                          (with a warning) once exceeded (0 = none)
//   --em-retries K         re-seeded retries of a degenerate EM fit (2)
//   --no-sanitize          strict mode: fail fast on pathological records
//                          instead of repairing/dropping them
//   --serve ADDR           embedded ops HTTP server on host:port / :port /
//                          port (see obs/serve.h): /metrics, /healthz,
//                          /statusz, /tracez; port 0 picks an ephemeral
//                          port (announced as "dclid: serving on ...")
//   --serve-linger SEC     keep serving SEC seconds after the run finishes
//                          (inf = until SIGINT/SIGTERM; default 0)
//   --log-level LVL        debug|info|warn|error|off (default warn;
//                          --verbose implies debug)
//   --log-json             structured JSON log lines instead of the
//                          human-readable form
//   --print-manifest       print the RunManifest JSON this invocation
//                          would stamp on its exports and exit 0 (no
//                          trace required) — ops parity with /statusz
//   --verbose              progress, stage timings, and the run manifest
//                          to stderr
//
// Exit codes (see README "Exit codes" and DESIGN.md §5.7):
//   0  clean answer
//   1  degraded but completed: sanitization repaired records, a stage was
//      skipped or retried, or no verdict could be produced — warnings on
//      stderr say why
//   2  invalid input: unusable flags, malformed trace file, missing file
//   3  internal error (a bug in dclid)
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "em_flags.h"
#include "core/pipeline.h"
#include "inference/em_telemetry.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "obs/serve.h"
#include "obs/trace.h"
#include "scenarios/presets.h"
#include "trace/trace_io.h"
#include "util/error.h"

namespace {

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s [options] <trace.csv>\n"
      "  -M, --symbols N        delay symbols (default 10)\n"
      "  -N, --hidden N         MMHD hidden states (default 2)\n"
      "  --model mmhd|hmm|auto  inference model (default mmhd; auto races\n"
      "                         the structures and fits the BIC winner)\n"
      "  --eps-l X              WDCL loss tolerance (default 0.06)\n"
      "  --eps-d X              WDCL delay tolerance (default 0)\n"
      "  --dprop SECONDS        known propagation delay\n"
      "  --no-skew-correction   skip clock skew removal\n"
      "  --window N             analyze most stationary window of N probes\n"
      "  --bound-symbols N      fine grid for the delay bound (default 50)\n"
      "  --bootstrap R          bootstrap confidence with R replicates\n"
      "  --bootstrap-refit      sequence bootstrap with warm-started EM\n"
      "                         refits instead of posterior resampling\n"
      "  --select-N MAX         choose hidden states by BIC in 1..MAX\n"
      "%s"
      "  --threads N            worker threads for the parallel stages\n"
      "                         (default 0 = all cores; results identical)\n"
      "  --scenario NAME        simulate a built-in chain scenario instead\n"
      "                         of reading a trace (sdcl, wdcl, nodcl)\n"
      "  --duration SECONDS     simulated seconds for --scenario (700)\n"
      "  --trace-out FILE       flight-record the run; write Chrome trace\n"
      "                         JSON (Perfetto / chrome://tracing)\n"
      "  --profile-out FILE     sample the analysis with the CPU profiler;\n"
      "                         .collapsed/.folded/.txt = flamegraph.pl\n"
      "                         stacks, else speedscope JSON\n"
      "  --profile-hz N         profiler sampling rate (default 99)\n"
      "  --metrics-json FILE    write metrics/span snapshot as JSON\n"
      "  --deadline SECONDS     wall-clock budget; optional stages skipped\n"
      "                         once exceeded (default 0 = none)\n"
      "  --em-retries K         re-seeded retries of a degenerate EM fit\n"
      "                         (default 2)\n"
      "  --no-sanitize          strict mode: fail fast on pathological\n"
      "                         records instead of repairing them\n"
      "  --serve ADDR           ops HTTP server (host:port, :port, port):\n"
      "                         /metrics /healthz /statusz /tracez\n"
      "  --serve-linger SEC     keep serving SEC seconds after the run\n"
      "                         (inf = until SIGINT/SIGTERM; default 0)\n"
      "  --log-level LVL        debug|info|warn|error|off (default warn)\n"
      "  --log-json             JSON log lines instead of human-readable\n"
      "  --print-manifest       print the RunManifest JSON for this\n"
      "                         invocation and exit (no trace required)\n"
      "  --verbose              progress, stage timings, and the run\n"
      "                         manifest to stderr\n"
      "exit codes: 0 ok, 1 degraded-but-completed, 2 invalid input,\n"
      "            3 internal error\n",
      argv0, dcl::cli::kEmFlagsUsage);
  std::exit(code);
}

// SIGINT/SIGTERM handling. For --serve runs the handler sets a flag the
// linger loop polls; the process then exits 128+sig (the documented
// ladder). For --trace-out runs the handler additionally flushes the
// flight recorder to a valid *partial* Chrome trace before dying — a
// best-effort export (stop + JSON serialization are not strictly
// async-signal-safe, but an interactive ^C losing the whole recording is
// the worse trade; the once-guard keeps a second signal from re-entering).
volatile std::sig_atomic_t g_signal = 0;
std::atomic<bool> g_trace_flush_armed{false};
std::string g_trace_out_path;
const dcl::obs::RunManifest* g_trace_manifest = nullptr;

extern "C" void on_signal(int sig) {
  g_signal = sig;
  if (g_trace_flush_armed.exchange(false)) {
    auto& rec = dcl::obs::trace::TraceSession::instance();
    rec.stop();
    rec.write_chrome_json(g_trace_out_path, g_trace_manifest);
    std::_Exit(128 + sig);
  }
}

// Value parsers and error reporting live in cli/em_flags.h, shared with
// dclfleet; these wrappers pin the program name for local call sites.
double parse_double(const char* v, const char* flag) {
  return dcl::cli::parse_double("dclid", v, flag);
}

long parse_long(const char* v, const char* flag) {
  return dcl::cli::parse_long("dclid", v, flag);
}

int parse_int(const char* v, const char* flag) {
  return dcl::cli::parse_int("dclid", v, flag);
}

[[noreturn]] void config_error(const char* msg) {
  dcl::cli::config_error("dclid", msg);
}

// Reject invalid combinations up front with a one-line message instead of
// a DCL_ENSURE throw from deep inside the library.
void validate(const dcl::core::PipelineConfig& cfg) {
  const auto& id = cfg.identifier;
  if (id.symbols < 2) config_error("--symbols must be >= 2");
  if (id.hidden_states < 1) config_error("--hidden must be >= 1");
  if (id.bound_symbols < id.symbols)
    config_error("--bound-symbols must be >= --symbols");
  if (id.eps_l < 0.0 || id.eps_l >= 1.0)
    config_error("--eps-l must be in [0, 1)");
  if (id.eps_d < 0.0 || id.eps_d >= 1.0)
    config_error("--eps-d must be in [0, 1)");
  if (id.bootstrap_replicates < 0) config_error("--bootstrap must be >= 0");
  dcl::cli::validate_em("dclid", id.em);
  if (id.em.threads < 0) config_error("--threads must be >= 0");
  if (id.auto_hidden_max < 0) config_error("--select-N must be >= 0");
  if (id.propagation_delay && *id.propagation_delay < 0.0)
    config_error("--dprop must be >= 0");
  if (id.em_retries < 0) config_error("--em-retries must be >= 0");
  if (cfg.deadline_s < 0.0) config_error("--deadline must be >= 0");
}

// EM telemetry into the global registry, plus optional per-restart
// progress lines on stderr.
class CliEmObserver : public dcl::inference::RegistryEmObserver {
 public:
  CliEmObserver(dcl::obs::Registry& reg, bool verbose)
      : RegistryEmObserver(reg), verbose_(verbose) {}

  void on_restart(int restart, const dcl::inference::FitResult& result,
                  bool new_best) override {
    RegistryEmObserver::on_restart(restart, result, new_best);
    if (verbose_ && dcl::obs::log::enabled(dcl::obs::log::Level::kDebug))
      dcl::obs::log::writef(
          dcl::obs::log::Level::kDebug, "em.restart",
          "restart %d: %d iteration%s, ll %.4f%s%s", restart,
          result.iterations, result.iterations == 1 ? "" : "s",
          result.log_likelihood,
          result.converged ? "" : " (max iterations)", new_best ? " *" : "");
  }

 private:
  bool verbose_;
};

void print_stage_timings(const dcl::obs::Registry& reg) {
  const auto snap = reg.snapshot();
  std::fprintf(stderr, "dclid: stage timings:\n");
  for (const auto& h : snap.histograms) {
    if (h.name.rfind("span.", 0) != 0) continue;
    std::fprintf(stderr, "dclid:   %-24s %8.2f ms", h.name.c_str() + 5,
                 h.sum * 1e3);
    if (h.count > 1)
      std::fprintf(stderr, "  (%llu calls, mean %.2f ms)",
                   static_cast<unsigned long long>(h.count), h.mean * 1e3);
    std::fprintf(stderr, "\n");
  }
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

// Provenance stamp shared by every export of this run (see obs/manifest.h):
// build facts from the library, invocation facts from the parsed config.
dcl::obs::RunManifest make_manifest(const dcl::core::PipelineConfig& cfg,
                                    const std::string& input,
                                    const std::string& scenario,
                                    double duration_s) {
  const auto& id = cfg.identifier;
  auto man = dcl::obs::manifest("dclid");
  man.seed = id.em.seed;
  man.add("input", scenario.empty() ? input : "scenario:" + scenario);
  man.add("model", id.model == dcl::core::ModelKind::kMmhd   ? "mmhd"
                   : id.model == dcl::core::ModelKind::kHmm ? "hmm"
                                                            : "auto");
  man.add("symbols", std::to_string(id.symbols));
  man.add("hidden", std::to_string(id.hidden_states));
  man.add("restarts", std::to_string(id.em.restarts));
  man.add("threads", std::to_string(id.em.threads));
  if (!scenario.empty()) man.add("duration_s", std::to_string(duration_s));
  // Digest over the knobs that change the numeric result, so two runs with
  // the same digest (and seed) are comparable.
  std::string key;
  for (const auto& [k, v] : man.extra) key += k + '=' + v + ';';
  key += "eps_l=" + std::to_string(id.eps_l) + ';';
  key += "eps_d=" + std::to_string(id.eps_d) + ';';
  key += "bound_symbols=" + std::to_string(id.bound_symbols) + ';';
  key += "bootstrap=" + std::to_string(id.bootstrap_replicates) + ';';
  key += dcl::cli::em_digest_fields(id.em);
  key += "select_N=" + std::to_string(id.auto_hidden_max) + ';';
  key += "skew=" + std::to_string(cfg.correct_clock_skew ? 1 : 0) + ';';
  key += "window=" + std::to_string(cfg.stationary_window) + ';';
  key += "sanitize=" + std::to_string(cfg.sanitize ? 1 : 0) + ';';
  key += "deadline=" + std::to_string(cfg.deadline_s) + ';';
  key += "em_retries=" + std::to_string(id.em_retries);
  man.config_digest = dcl::obs::digest_hex(key);
  return man;
}

}  // namespace

int main(int argc, char** argv) {
  dcl::core::PipelineConfig cfg;
  std::string path;
  std::string metrics_json_path;
  std::string trace_out_path;
  std::string profile_out_path;
  int profile_hz = 99;
  std::string scenario;
  std::string serve_addr;
  double serve_linger_s = 0.0;
  std::string log_level_flag;
  bool log_json = false;
  bool print_manifest = false;
  double duration_s = 700.0;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dclid: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "-h" || a == "--help") usage(argv[0], 0);
    else if (a == "-M" || a == "--symbols")
      cfg.identifier.symbols = parse_int(need(a.c_str()), a.c_str());
    else if (a == "-N" || a == "--hidden")
      cfg.identifier.hidden_states = parse_int(need(a.c_str()), a.c_str());
    else if (a == "--model") {
      const std::string m = need("--model");
      if (m == "mmhd") cfg.identifier.model = dcl::core::ModelKind::kMmhd;
      else if (m == "hmm") cfg.identifier.model = dcl::core::ModelKind::kHmm;
      else if (m == "auto") cfg.identifier.model = dcl::core::ModelKind::kAuto;
      else usage(argv[0], 2);
    } else if (a == "--eps-l")
      cfg.identifier.eps_l = parse_double(need("--eps-l"), "--eps-l");
    else if (a == "--eps-d")
      cfg.identifier.eps_d = parse_double(need("--eps-d"), "--eps-d");
    else if (a == "--dprop")
      cfg.identifier.propagation_delay =
          parse_double(need("--dprop"), "--dprop");
    else if (a == "--no-skew-correction")
      cfg.correct_clock_skew = false;
    else if (a == "--window") {
      const long w = parse_long(need("--window"), "--window");
      if (w < 0) config_error("--window must be >= 0");
      cfg.stationary_window = static_cast<std::size_t>(w);
    } else if (a == "--bound-symbols")
      cfg.identifier.bound_symbols =
          parse_int(need("--bound-symbols"), "--bound-symbols");
    else if (a == "--bootstrap")
      cfg.identifier.bootstrap_replicates =
          parse_int(need("--bootstrap"), "--bootstrap");
    else if (a == "--bootstrap-refit")
      cfg.identifier.bootstrap_refit = true;
    else if (a == "--select-N")
      cfg.identifier.auto_hidden_max =
          parse_int(need("--select-N"), "--select-N");
    else if (dcl::cli::parse_em_flag("dclid", a, need, cfg.identifier.em))
      ;  // --restarts/--seed/--race-*, shared with dclfleet
    else if (a == "--threads")
      cfg.identifier.em.threads = parse_int(need("--threads"), "--threads");
    else if (a == "--scenario")
      scenario = need("--scenario");
    else if (a == "--duration")
      duration_s = parse_double(need("--duration"), "--duration");
    else if (a == "--trace-out")
      trace_out_path = need("--trace-out");
    else if (a == "--profile-out")
      profile_out_path = need("--profile-out");
    else if (a == "--profile-hz")
      profile_hz = parse_int(need("--profile-hz"), "--profile-hz");
    else if (a == "--metrics-json")
      metrics_json_path = need("--metrics-json");
    else if (a == "--deadline")
      cfg.deadline_s = parse_double(need("--deadline"), "--deadline");
    else if (a == "--em-retries")
      cfg.identifier.em_retries =
          parse_int(need("--em-retries"), "--em-retries");
    else if (a == "--no-sanitize")
      cfg.sanitize = false;
    else if (a == "--serve")
      serve_addr = need("--serve");
    else if (a == "--serve-linger")
      serve_linger_s = parse_double(need("--serve-linger"), "--serve-linger");
    else if (a == "--log-level")
      log_level_flag = need("--log-level");
    else if (a == "--log-json")
      log_json = true;
    else if (a == "--print-manifest")
      print_manifest = true;
    else if (a == "--verbose" || a == "-v")
      verbose = true;
    else if (!a.empty() && a[0] == '-')
      usage(argv[0], 2);
    else if (path.empty())
      path = a;
    else
      usage(argv[0], 2);
  }
  if (print_manifest) {
    // Ops/debugging parity with /statusz: emit the exact RunManifest JSON
    // this invocation would stamp on its exports — build facts, host,
    // flags, config digest — with no trace or scenario required.
    validate(cfg);
    const auto man = make_manifest(cfg, path.empty() ? "none" : path,
                                   scenario, duration_s);
    std::printf("%s\n", man.to_json().c_str());
    return 0;
  }
  if (path.empty() == scenario.empty()) usage(argv[0], 2);
  if (!scenario.empty()) {
    if (scenario != "sdcl" && scenario != "wdcl" && scenario != "nodcl")
      config_error("--scenario must be sdcl, wdcl, or nodcl");
    if (duration_s <= 0.0) config_error("--duration must be > 0");
  }
  validate(cfg);
  if (serve_linger_s < 0.0 && !std::isinf(serve_linger_s))
    config_error("--serve-linger must be >= 0 (or inf)");
  if (profile_hz < 1 || profile_hz > 10000)
    config_error("--profile-hz must be in [1, 10000]");

  namespace log = dcl::obs::log;
  log::Level level = verbose ? log::Level::kDebug : log::Level::kWarn;
  if (!log_level_flag.empty() && !log::parse_level(log_level_flag, level))
    config_error("--log-level must be debug|info|warn|error|off");
  log::set_level(level);
  log::set_json(log_json);
  log::install_error_listener();

  auto& registry = dcl::obs::Registry::global();
  const bool observing =
      verbose || !metrics_json_path.empty() || !serve_addr.empty();
  CliEmObserver em_observer(registry, verbose);
  if (observing) {
    dcl::obs::set_enabled(true);
    cfg.identifier.em.observer = &em_observer;
  }
  const auto man = make_manifest(cfg, path, scenario, duration_s);
  if (verbose) log::infof("manifest", "%s", man.to_json().c_str());

  std::unique_ptr<dcl::obs::serve::Server> server;
  if (!serve_addr.empty()) {
    dcl::obs::serve::Options sopts;
    if (!dcl::obs::serve::parse_address(serve_addr, sopts))
      config_error("--serve must be host:port, :port, or port");
    sopts.manifest = man;
    try {
      server = dcl::obs::serve::Server::start(std::move(sopts));
    } catch (const dcl::util::Error& e) {
      std::fprintf(stderr, "dclid: %s\n", e.what());
      return 2;
    }
    // Announced unconditionally (not via the logger): scripts parse this
    // line to discover an ephemeral port.
    std::fprintf(stderr, "dclid: serving on %s\n",
                 server->address().c_str());
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
  }

  auto& recorder = dcl::obs::trace::TraceSession::instance();
  if (!trace_out_path.empty()) {
    // 256Ki events/thread (~10 MB): the simulated-time tracks of a
    // --scenario run all land on the main thread and overflow the default
    // ring within a couple of simulated minutes.
    recorder.start(1u << 18);
    dcl::obs::trace::set_thread_name("main");
    // ^C mid-run flushes a valid partial trace instead of losing it.
    g_trace_out_path = trace_out_path;
    g_trace_manifest = &man;
    g_trace_flush_armed.store(true, std::memory_order_release);
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
  }
  // Exports shared by every exit path; returns the process exit code.
  // With --serve, also lingers (scrape window) and shuts the server down.
  auto finish = [&]() -> int {
    if (verbose) print_stage_timings(registry);
    int rc = 0;
    if (!profile_out_path.empty()) {
      dcl::obs::prof::stop();
      // Publish before the metrics/JSON exports below so prof.self_cpu.*
      // gauges ride along in --metrics-json and a lingering /metrics.
      dcl::obs::prof::publish_self_cpu(registry);
      if (!dcl::obs::prof::write_profile(profile_out_path, &man)) {
        log::errorf("io", "cannot write %s", profile_out_path.c_str());
        rc = 1;
      } else if (verbose) {
        const auto p = dcl::obs::prof::snapshot();
        log::infof("prof.export", "wrote %s (%llu samples at %d Hz, %llu "
                   "dropped)", profile_out_path.c_str(),
                   static_cast<unsigned long long>(p.total_samples), p.hz,
                   static_cast<unsigned long long>(p.dropped));
      }
    }
    if (!metrics_json_path.empty() &&
        !write_metrics_json(metrics_json_path, registry, man)) {
      log::errorf("io", "cannot write %s", metrics_json_path.c_str());
      rc = 1;
    }
    if (!trace_out_path.empty()) {
      // Past this point the normal export owns the recorder: a late
      // signal must not race it with a second stop/write.
      g_trace_flush_armed.store(false, std::memory_order_release);
      recorder.stop();
      if (!recorder.write_chrome_json(trace_out_path, &man)) {
        log::errorf("io", "cannot write %s", trace_out_path.c_str());
        rc = 1;
      } else if (verbose) {
        log::infof("trace.export", "wrote %s (%zu thread tracks, %llu dropped)",
                   trace_out_path.c_str(), recorder.thread_count(),
                   static_cast<unsigned long long>(recorder.dropped()));
      }
    }
    if (server != nullptr) {
      const auto t0 = std::chrono::steady_clock::now();
      auto elapsed_s = [&] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
            .count();
      };
      while (g_signal == 0 &&
             (std::isinf(serve_linger_s) || elapsed_s() < serve_linger_s))
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      server->stop();
      log::info("serve.stop", {{"reason", g_signal != 0 ? "signal"
                                                        : "linger elapsed"}});
    }
    // Ended by SIGINT/SIGTERM: the exports above are flushed; exit with
    // the conventional 128+sig instead of falling through with 0.
    if (g_signal != 0) return 128 + static_cast<int>(g_signal);
    return rc;
  };

  try {
    dcl::trace::Trace trace;
    if (!scenario.empty()) {
      if (verbose)
        log::infof("scenario", "simulating %s chain (%g s)",
                   scenario.c_str(), duration_s);
      // Warmup before the probed window, scaled down for short runs.
      const double warmup_s =
          duration_s >= 300.0 ? 60.0 : 0.2 * duration_s;
      const std::uint64_t seed = cfg.identifier.em.seed;
      dcl::scenarios::ChainConfig scfg =
          scenario == "sdcl"
              ? dcl::scenarios::presets::sdcl_chain(1e6, seed, duration_s,
                                                    warmup_s)
          : scenario == "wdcl"
              ? dcl::scenarios::presets::wdcl_chain(0.8e6, 16e6, seed,
                                                    duration_s, warmup_s)
              : dcl::scenarios::presets::nodcl_chain(0.5e6, 8e6, seed,
                                                     duration_s, warmup_s);
      dcl::scenarios::ChainScenario sc(scfg);
      sc.run();
      trace = dcl::trace::make_trace(sc.observations(), sc.window_start(),
                                     scfg.probe_interval_s);
    } else {
      if (verbose) log::infof("input", "reading %s", path.c_str());
      trace = dcl::trace::read_trace_file(path);
    }
    if (verbose)
      log::infof("input", "analyzing %zu probes", trace.records.size());
    if (!profile_out_path.empty()) {
      // Armed only now — after the trace was read or simulated — so the
      // profile answers "where does the *analysis* spend CPU", not "how
      // expensive is the scenario simulator".
      dcl::obs::prof::Options popts;
      popts.hz = profile_hz;
      if (!dcl::obs::prof::start(popts))
        log::warnf("prof", "profiler unavailable (timer_create failed); "
                   "continuing without --profile-out sampling");
    }
    const auto r = dcl::core::analyze_trace(trace, cfg);
    const auto& id = r.identification;

    // Degradation surface: every warning through the logger (warn-level
    // lines also land in the /statusz recent-errors ring), exit code 1
    // when any stage fell back (see the exit-code table in the usage).
    for (const auto& w : r.warnings)
      log::warnf("pipeline.warning", "%s", w.c_str());
    auto finish_degraded = [&]() -> int {
      const int rc = finish();
      if (rc >= 128) return rc;  // signal-triggered exit wins
      return r.degraded ? 1 : rc;
    };
    if (!r.answered) {
      std::printf("analysis degraded: no verdict (%zu warnings, see "
                  "stderr).\n", r.warnings.size());
      finish();
      return 1;
    }

    std::printf("trace: %zu probes (%zu gaps), window [%zu, %zu)\n",
                trace.records.size(), r.trace_gaps, r.window_begin,
                r.window_end);
    if (!r.sanitization.clean())
      std::printf("sanitized: %s\n", r.sanitization.summary().c_str());
    if (cfg.correct_clock_skew && r.skew.valid)
      std::printf("clock skew removed: %.1f ppm\n", r.skew.skew * 1e6);
    std::printf("loss rate: %.3f%% (%zu losses)\n", 100.0 * id.loss_rate,
                id.losses);
    if (!id.has_losses) {
      std::printf("no losses: a dominant congested link cannot be "
                  "asserted (and none is evidently needed).\n");
      return finish_degraded();
    }

    std::printf("\nvirtual queuing delay PMF (M = %d, bin %.1f ms):\n  ",
                cfg.identifier.symbols, id.bin_width_s * 1e3);
    for (double p : id.virtual_pmf) std::printf("%.3f ", p);
    std::printf("\n\nSDCL-Test:            %s (i* = %d, F(2 i*) = %.3f)\n",
                id.sdcl.accepted ? "ACCEPT" : "reject", id.sdcl.i_star,
                id.sdcl.f_at_2istar);
    std::printf("WDCL-Test(%.2f, %.2f): %s (i* = %d, F(2 i*) = %.3f)\n",
                cfg.identifier.eps_l, cfg.identifier.eps_d,
                id.wdcl.accepted ? "ACCEPT" : "reject", id.wdcl.i_star,
                id.wdcl.f_at_2istar);
    if (cfg.identifier.auto_hidden_max > 0)
      std::printf("hidden states (BIC over 1..%d): N = %d\n",
                  cfg.identifier.auto_hidden_max, id.hidden_states_used);
    if (cfg.identifier.bootstrap_replicates > 0) {
      std::printf("bootstrap (%d %sreplicates): accept fraction %.3f, "
                  "F(2 i*) in [%.3f, %.3f]",
                  id.bootstrap.replicates,
                  cfg.identifier.bootstrap_refit ? "refit " : "",
                  id.bootstrap.accept_fraction, id.bootstrap.f2istar_lo,
                  id.bootstrap.f2istar_hi);
      if (cfg.identifier.bootstrap_refit)
        std::printf(", mean %.1f EM iterations",
                    id.bootstrap.mean_refit_iterations);
      std::printf("\n");
    }
    if (id.wdcl.accepted) {
      std::printf("\na dominant congested link exists on this path.\n");
      std::printf("max queuing delay bound: %.1f ms (coarse i*)",
                  id.coarse_bound.seconds * 1e3);
      if (id.fine_valid)
        std::printf(", %.1f ms (fine component heuristic)",
                    id.fine_bound.bound_seconds * 1e3);
      std::printf("\n");
    } else {
      std::printf("\nno dominant congested link: congestion is spread over "
                  "multiple links.\n");
    }

    return finish_degraded();
  } catch (const dcl::util::Error& e) {
    log::errorf("run.failed", "%s error: %s", dcl::util::to_string(e.code()),
                e.what());
    finish();
    switch (e.code()) {
      case dcl::util::ErrorCode::kInvalidInput:
      case dcl::util::ErrorCode::kIo:
        return 2;
      case dcl::util::ErrorCode::kDegenerateModel:
      case dcl::util::ErrorCode::kResourceLimit:
        return 1;  // degraded: the input was fine, the analysis fell short
      case dcl::util::ErrorCode::kInternal:
        break;
    }
    return 3;
  } catch (const std::exception& e) {
    log::errorf("run.failed", "internal error: %s", e.what());
    return 3;
  }
}
