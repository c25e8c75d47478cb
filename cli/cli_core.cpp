#include "cli_core.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/log.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "util/error.h"

namespace dcl::cli {
namespace {

const char* g_program = "dcl";

// SIGINT/SIGTERM. The handler records the signal for finish (which exits
// 128+sig once the exports are flushed) and raises the fleet's drain flag.
// With --trace-out armed it also flushes the flight recorder to a valid
// *partial* Chrome trace and exits at once — a best-effort export (stop
// and JSON serialization are not strictly async-signal-safe, but losing
// the whole recording to an interactive ^C is the worse trade; the
// once-guard keeps a second signal from re-entering).
std::atomic<int> g_signal{0};
std::atomic<bool> g_cancel{false};
std::atomic<bool> g_trace_flush_armed{false};
const std::string* g_trace_path = nullptr;
const obs::RunManifest* g_trace_manifest = nullptr;

extern "C" void on_signal(int sig) {
  g_signal.store(sig);
  g_cancel.store(true, std::memory_order_relaxed);
  if (g_trace_flush_armed.exchange(false)) {
    auto& rec = obs::trace::TraceSession::instance();
    rec.stop();
    rec.write_chrome_json(*g_trace_path, g_trace_manifest);
    std::_Exit(128 + sig);
  }
}

[[noreturn]] void bad_value(const char* v, const std::string& flag) {
  std::fprintf(stderr, "%s: bad value '%s' for %s\n", g_program, v,
               flag.c_str());
  std::exit(2);
}

obs::serve::Options serve_options(const std::string& addr) {
  obs::serve::Options opts;
  if (!obs::serve::parse_address(addr, opts))
    config_error("--serve must be host:port, :port, or port");
  return opts;
}

// The exit ladder for a run that ended in a typed library error.
int exit_code(util::ErrorCode code) {
  switch (code) {
    case util::ErrorCode::kInvalidInput:
    case util::ErrorCode::kIo:
      return 2;
    case util::ErrorCode::kDegenerateModel:
    case util::ErrorCode::kResourceLimit:
      return 1;  // degraded: the input was fine, the analysis fell short
    case util::ErrorCode::kInternal:
      break;
  }
  return 3;
}

void print_stage_timings(const obs::Registry& reg) {
  std::fprintf(stderr, "%s: stage timings:\n", g_program);
  for (const auto& h : reg.snapshot().histograms) {
    if (h.name.rfind("span.", 0) != 0) continue;
    std::fprintf(stderr, "%s:   %-24s %8.2f ms", g_program,
                 h.name.c_str() + 5, h.sum * 1e3);
    if (h.count > 1)
      std::fprintf(stderr, "  (%llu calls, mean %.2f ms)",
                   static_cast<unsigned long long>(h.count), h.mean * 1e3);
    std::fprintf(stderr, "\n");
  }
}

}  // namespace

void set_program(const char* name) { g_program = name; }

void config_error(const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n", g_program, msg.c_str());
  std::exit(2);
}

// --- argv -----------------------------------------------------------------

bool Args::next() {
  if (++i_ >= argc_) return false;
  arg_ = argv_[i_];
  return true;
}

const char* Args::value() {
  if (i_ + 1 >= argc_) config_error(arg_ + " needs a value");
  return argv_[++i_];
}

double Args::real() {
  const char* v = value();
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) bad_value(v, arg_);
  return x;
}

long Args::integer() {
  const char* v = value();
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) bad_value(v, arg_);
  return x;
}

int Args::int32() {
  const long x = integer();
  if (x < INT_MIN || x > INT_MAX) bad_value(argv_[i_], arg_);
  return static_cast<int>(x);
}

std::uint64_t Args::u64() {
  const char* v = value();
  // strtoull accepts a leading '-' (wrapping modulo 2^64); reject it.
  const char* p = v;
  while (*p == ' ' || *p == '\t') ++p;
  if (*p == '-') bad_value(v, arg_);
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) bad_value(v, arg_);
  return static_cast<std::uint64_t>(x);
}

// --- pipeline flags ---------------------------------------------------------

const char kPipelineUsage[] =
    "  -M, --symbols N        delay symbols (default 10)\n"
    "  -N, --hidden N         MMHD hidden states (default 2)\n"
    "  --eps-l X              WDCL loss tolerance in [0, 0.5) (default 0.06)\n"
    "  --eps-d X              WDCL delay tolerance in [0, 0.5) (default 0)\n"
    "  --deadline SECONDS     wall-clock budget per analysis; optional\n"
    "                         stages skipped once exceeded (0 = none)\n"
    "  --no-sanitize          strict mode: fail fast on pathological\n"
    "                         records instead of repairing them\n"
    "  --no-skew-correction   skip clock-skew removal\n"
    "  --restarts R           independent EM restarts (default 1)\n"
    "  --seed N               base RNG seed (default 1)\n"
    "  --race-warmup K        race restarts with successive halving: first\n"
    "                         rung after K iterations (default 0 = off)\n";

bool parse_pipeline_flag(Args& args, core::PipelineConfig& cfg) {
  auto& id = cfg.identifier;
  if (args.is("-M") || args.is("--symbols")) {
    id.symbols = args.int32();
  } else if (args.is("-N") || args.is("--hidden")) {
    id.hidden_states = args.int32();
  } else if (args.is("--eps-l")) {
    id.eps_l = args.real();
  } else if (args.is("--eps-d")) {
    id.eps_d = args.real();
  } else if (args.is("--deadline")) {
    cfg.deadline_s = args.real();
  } else if (args.is("--no-sanitize")) {
    cfg.sanitize = false;
  } else if (args.is("--no-skew-correction")) {
    cfg.correct_clock_skew = false;
  } else if (args.is("--restarts")) {
    id.em.restarts = args.int32();
  } else if (args.is("--seed")) {
    id.em.seed = args.u64();
  } else if (args.is("--race-warmup")) {
    id.em.race_warmup = args.int32();
  } else {
    return false;
  }
  return true;
}

// Written as "accept when in range" so that a NaN value is rejected too.
void validate(const core::PipelineConfig& cfg) {
  const auto& id = cfg.identifier;
  const auto& em = id.em;
  if (id.symbols < 2) config_error("--symbols must be >= 2");
  if (id.hidden_states < 1) config_error("--hidden must be >= 1");
  if (id.bound_symbols < id.symbols)
    config_error("--bound-symbols must be >= --symbols");
  // core::wdcl_test's domain.
  if (!(id.eps_l >= 0.0 && id.eps_l < 0.5))
    config_error("--eps-l must be in [0, 0.5)");
  if (!(id.eps_d >= 0.0 && id.eps_d < 0.5))
    config_error("--eps-d must be in [0, 0.5)");
  if (id.bootstrap_replicates < 0) config_error("--bootstrap must be >= 0");
  if (id.auto_hidden_max < 0) config_error("--select-N must be >= 0");
  if (id.propagation_delay && !(*id.propagation_delay >= 0.0))
    config_error("--dprop must be >= 0");
  if (id.em_retries < 0) config_error("--em-retries must be >= 0");
  if (em.restarts < 1) config_error("--restarts must be >= 1");
  if (em.race_warmup < 0) config_error("--race-warmup must be >= 0");
  if (em.threads < 0) config_error("--threads must be >= 0");
  if (!(cfg.deadline_s >= 0.0)) config_error("--deadline must be >= 0");
  // core::most_stationary_window's smallest window.
  if (cfg.stationary_window != 0 && cfg.stationary_window < 12)
    config_error("--window must be 0 or >= 12");
}

std::string config_key(const core::PipelineConfig& cfg,
                       const std::string& input) {
  const auto& id = cfg.identifier;
  const auto& em = id.em;
  // The model is always the MMHD, and the key still names it: journals on
  // disk hold digests of keys that do, and --resume compares against them.
  std::string key =
      "input=" + input + ";model=mmhd;seed=" + std::to_string(em.seed);
  // %.17g round-trips every double, so any change of value changes the
  // key; -1 stands for "no --dprop", which validate() never lets through.
  const std::pair<const char*, double> fields[] = {
      {"symbols", id.symbols},
      {"hidden", id.hidden_states},
      {"eps_l", id.eps_l},
      {"eps_d", id.eps_d},
      {"dprop", id.propagation_delay.value_or(-1.0)},
      {"bound_symbols", id.bound_symbols},
      {"bootstrap", id.bootstrap_replicates},
      {"bootstrap_refit", id.bootstrap_refit ? 1.0 : 0.0},
      {"select_N", id.auto_hidden_max},
      {"em_retries", id.em_retries},
      {"restarts", em.restarts},
      {"race_warmup", em.race_warmup},
      // The racing policy is fixed now; the key keeps its old values so
      // journals on disk, whose digests include them, still resume.
      {"race_keep", 0.5},
      {"race_grow", 1.0},
      {"race_overtake", 1.0},
      {"skew", cfg.correct_clock_skew ? 1.0 : 0.0},
      {"window", static_cast<double>(cfg.stationary_window)},
      {"sanitize", cfg.sanitize ? 1.0 : 0.0},
      {"deadline", cfg.deadline_s},
  };
  for (const auto& [name, v] : fields) {
    char buf[64];
    std::snprintf(buf, sizeof buf, ";%s=%.17g", name, v);
    key += buf;
  }
  return key;
}

// --- exports and the ops server ---------------------------------------------

std::unique_ptr<obs::serve::Server> start_server(const std::string& addr,
                                                 obs::RunManifest manifest) {
  auto opts = serve_options(addr);
  opts.manifest = std::move(manifest);
  std::unique_ptr<obs::serve::Server> server;
  try {
    server = obs::serve::Server::start(std::move(opts));
  } catch (const util::Error& e) {
    config_error(e.what());
  }
  // Announced unconditionally (not via the logger): scripts parse this
  // line to discover an ephemeral port.
  std::fprintf(stderr, "%s: serving on %s\n", g_program,
               server->address().c_str());
  return server;
}

bool write_metrics_json(const std::string& path,
                        const obs::RunManifest& manifest) {
  const std::string json = obs::Registry::global().to_json(manifest);
  std::FILE* f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(json.data(), 1, json.size(), f);
  if (f != stdout) std::fclose(f);
  return true;
}

// --- run session ------------------------------------------------------------

const char Session::kUsage[] =
    "  --serve ADDR           ops HTTP server (host:port, :port, port):\n"
    "                         /metrics /healthz /statusz /tracez\n"
    "  --serve-linger SEC     keep serving SEC seconds after the run\n"
    "                         (inf = until SIGINT/SIGTERM; default 0)\n"
    "  --metrics-json FILE    metrics/span snapshot as JSON (- = stdout)\n"
    "  --profile-out FILE     sample the run with the CPU profiler;\n"
    "                         .collapsed/.folded/.txt = flamegraph.pl\n"
    "                         stacks, else speedscope JSON\n"
    "  --profile-hz N         profiler sampling rate (default 99)\n"
    "  --log-level LVL        debug|info|warn|error|off (default warn)\n"
    "  --log-json             JSON log lines instead of human-readable\n"
    "  --print-manifest       print the RunManifest JSON for this\n"
    "                         invocation and exit (no input required)\n"
    "  -v, --verbose          progress, stage timings, and the run\n"
    "                         manifest to stderr\n"
    "exit codes: 0 ok, 1 degraded or failed, 2 invalid input,\n"
    "            3 internal error, 128+sig after SIGINT/SIGTERM\n";

bool Session::parse_flag(Args& args) {
  if (args.is("--serve")) serve_addr = args.value();
  else if (args.is("--serve-linger")) serve_linger_s = args.real();
  else if (args.is("--metrics-json")) metrics_json = args.value();
  else if (args.is("--profile-out")) profile_out = args.value();
  else if (args.is("--profile-hz")) profile_hz = args.int32();
  else if (args.is("--print-manifest")) print_manifest = true;
  else if (args.is("--log-level")) log_level = args.value();
  else if (args.is("--log-json")) log_json = true;
  else if (args.is("-v") || args.is("--verbose")) verbose = true;
  else return false;
  return true;
}

void Session::validate() const {
  if (!(serve_linger_s >= 0.0))
    config_error("--serve-linger must be >= 0 (or inf)");
  if (profile_hz < 1 || profile_hz > 10000)
    config_error("--profile-hz must be in [1, 10000]");
  obs::log::Level level = obs::log::Level::kWarn;
  if (!log_level.empty() && !obs::log::parse_level(log_level, level))
    config_error("--log-level must be debug|info|warn|error|off");
  if (!serve_addr.empty()) serve_options(serve_addr);
}

void Session::begin(bool drain_on_signal) {
  namespace log = obs::log;
  log::Level level = verbose ? log::Level::kDebug : log::Level::kWarn;
  if (!log_level.empty()) log::parse_level(log_level, level);
  log::set_level(level);
  log::set_json(log_json);
  log::install_error_listener();
  if (observing()) obs::set_enabled(true);
  if (!trace_out.empty()) {
    // 256Ki events/thread (~10 MB): the simulated-time tracks of a
    // --scenario run all land on the main thread and overflow the default
    // ring within a couple of simulated minutes.
    obs::trace::TraceSession::instance().start(1u << 18);
    obs::trace::set_thread_name("main");
    g_trace_path = &trace_out;
    g_trace_manifest = &manifest;
    g_trace_flush_armed.store(true, std::memory_order_release);
  }
  if (drain_on_signal || !serve_addr.empty() || !trace_out.empty()) {
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
  }
}

void Session::open() {
  if (verbose) obs::log::infof("manifest", "%s", manifest.to_json().c_str());
  if (!serve_addr.empty()) server_ = start_server(serve_addr, manifest);
}

void Session::start_profiler() {
  if (profile_out.empty()) return;
  obs::prof::Options popts;
  popts.hz = profile_hz;
  if (!obs::prof::start(popts))
    obs::log::warnf("prof", "profiler unavailable (timer_create failed); "
                    "continuing without --profile-out sampling");
}

const std::atomic<bool>* Session::cancel() const { return &g_cancel; }

int Session::run(const std::function<int()>& body) {
  int rc = 0;
  try {
    rc = body();
  } catch (const util::Error& e) {
    obs::log::errorf("run.failed", "%s error: %s",
                     util::to_string(e.code()), e.what());
    rc = exit_code(e.code());
  } catch (const std::exception& e) {
    obs::log::errorf("run.failed", "internal error: %s", e.what());
    rc = 3;
  }
  return finish(rc);
}

int Session::finish(int rc) {
  namespace log = obs::log;
  auto& registry = obs::Registry::global();
  if (verbose) print_stage_timings(registry);
  bool failed = false;
  if (!profile_out.empty()) {
    obs::prof::stop();
    // Publish before the exports below so prof.self_cpu.* gauges ride
    // along in --metrics-json and a lingering /metrics.
    obs::prof::publish_self_cpu(registry);
    if (!obs::prof::write_profile(profile_out, &manifest)) {
      log::errorf("io", "cannot write %s", profile_out.c_str());
      failed = true;
    } else if (verbose) {
      const auto p = obs::prof::snapshot();
      log::infof("prof.export", "wrote %s (%llu samples at %d Hz, %llu "
                 "dropped)", profile_out.c_str(),
                 static_cast<unsigned long long>(p.total_samples), p.hz,
                 static_cast<unsigned long long>(p.dropped));
    }
  }
  if (!metrics_json.empty() && !write_metrics_json(metrics_json, manifest)) {
    log::errorf("io", "cannot write %s", metrics_json.c_str());
    failed = true;
  }
  if (!trace_out.empty()) {
    // From here the normal export owns the recorder: a late signal must
    // not race it with a second stop/write.
    g_trace_flush_armed.store(false, std::memory_order_release);
    auto& rec = obs::trace::TraceSession::instance();
    rec.stop();
    if (!rec.write_chrome_json(trace_out, &manifest)) {
      log::errorf("io", "cannot write %s", trace_out.c_str());
      failed = true;
    } else if (verbose) {
      log::infof("trace.export", "wrote %s (%zu thread tracks, %llu dropped)",
                 trace_out.c_str(), rec.thread_count(),
                 static_cast<unsigned long long>(rec.dropped()));
    }
  }
  if (server_ != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed_s = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    while (g_signal.load() == 0 &&
           (std::isinf(serve_linger_s) || elapsed_s() < serve_linger_s))
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server_->stop();
    log::info("serve.stop", {{"reason", g_signal.load() != 0
                                            ? "signal"
                                            : "linger elapsed"}});
  }
  if (g_signal.load() != 0) return 128 + g_signal.load();
  return failed && rc == 0 ? 1 : rc;
}

}  // namespace dcl::cli
