// The CLI core that dclid, dclfleet and tools/dclsoak share: the argv
// reader and its strict value parsers, the pipeline flags both analysis
// CLIs take (with their usage text, validation and config-digest key),
// the run session, the util::Error exit ladder, and the preset-scenario
// trace helper.
//
// Every message starts "<prog>: " for the program named by set_program().
// A bad flag exits 2 with one line on stderr before any work starts.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "core/pipeline.h"
#include "obs/manifest.h"
#include "obs/serve.h"
#include "trace/trace_io.h"

namespace dcl::cli {

void set_program(const char* name);

// Prints "<prog>: <msg>" to stderr and exits 2.
[[noreturn]] void config_error(const std::string& msg);

// Walks argv one argument at a time. A flag's value is the argument after
// it; the typed readers parse it strictly (no trailing garbage, no
// truncated fraction, no wrapped negative) and otherwise exit 2 with
// "<prog>: bad value 'V' for FLAG".
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  // Advances to the next argument; false when none is left.
  bool next();
  const std::string& arg() const { return arg_; }
  bool is(std::string_view flag) const { return arg_ == flag; }
  // An input operand rather than a flag.
  bool operand() const { return arg_.empty() || arg_[0] != '-'; }

  // The current flag's value; exits 2 with "<prog>: FLAG needs a value".
  const char* value();
  double real();
  long integer();
  int int32();
  std::uint64_t u64();

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
  std::string arg_;
};

// Usage lines of the pipeline flags both analysis CLIs take.
extern const char kPipelineUsage[];

// Consumes the current argument when it is one of the pipeline flags both
// analysis CLIs take: -M/--symbols, -N/--hidden, --eps-l, --eps-d,
// --deadline, --no-sanitize, --no-skew-correction, --restarts, --seed and
// --race-*.
bool parse_pipeline_flag(Args& args, core::PipelineConfig& cfg);

// Range checks on every PipelineConfig field a flag of either CLI sets,
// matching the library's own preconditions (a flag the library would
// reject mid-run must exit 2 up front); exits 2 naming the flag.
void validate(const core::PipelineConfig& cfg);

// The key behind a run's config_digest: the input (a trace path,
// "scenario:NAME" with its duration, "synth:N" with its probe count) and
// every PipelineConfig field a flag can set. Thread counts, timing,
// retries, timeouts and output paths do not change results and stay out.
// A fleet journal records the digest, so --resume refuses a run whose
// key differs.
std::string config_key(const core::PipelineConfig& cfg,
                       const std::string& input);

// Starts the ops server on `addr` and announces "<prog>: serving on ADDR"
// (scripts parse that line for an ephemeral port). A malformed or
// unbindable address exits 2.
std::unique_ptr<obs::serve::Server> start_server(const std::string& addr,
                                                 obs::RunManifest manifest);

// The global registry as JSON stamped with `manifest`, to `path` ("-" =
// stdout). False when the file cannot be written.
bool write_metrics_json(const std::string& path,
                        const obs::RunManifest& manifest);

// One run of an analysis CLI: the observability flags and the lifecycle
// around the work. begin() sets up logging, the registry, the SIGINT/
// SIGTERM handlers and the flight recorder; open() starts --serve with
// the final manifest. run() maps an escaping error to the exit ladder
// (a util::Error of invalid input or I/O exits 2, of a degenerate model
// or an exhausted resource 1, of an internal error 3, as does any other
// exception) and then finishes on every path, answered or not: stage
// timings, profile, metrics and trace exports, the --serve-linger window
// and server stop. A signal during any of it exits 128+sig. Signal
// handlers are installed only when asked to drain or when --serve or
// --trace-out is set; otherwise a signal keeps its default action. With
// --trace-out, a signal mid-run flushes a valid partial Chrome trace and
// exits at once.
class Session {
 public:
  // Usage lines of the flags parse_flag() takes.
  static const char kUsage[];

  std::string metrics_json;
  std::string profile_out;
  int profile_hz = 99;
  std::string serve_addr;
  double serve_linger_s = 0.0;
  std::string log_level;
  bool log_json = false;
  bool print_manifest = false;
  bool verbose = false;
  // dclid's --trace-out; the flight recorder is armed when set.
  std::string trace_out;
  // Stamped on every export; final by open().
  obs::RunManifest manifest;

  Session() = default;
  // The signal handler holds pointers into the session.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Consumes --serve, --serve-linger, --metrics-json, --profile-out,
  // --profile-hz, --print-manifest, --log-level, --log-json and
  // -v/--verbose.
  bool parse_flag(Args& args);
  void validate() const;
  bool observing() const {
    return verbose || !metrics_json.empty() || !serve_addr.empty();
  }

  void begin(bool drain_on_signal);
  void open();
  // Samples the CPU from here on when --profile-out is set.
  void start_profiler();
  // Set by SIGINT/SIGTERM: the fleet's cooperative drain flag.
  const std::atomic<bool>* cancel() const;
  // Runs `body`, which returns the exit code, then finishes.
  int run(const std::function<int()>& body);

 private:
  int finish(int rc);

  std::unique_ptr<obs::serve::Server> server_;
};

// The built-in chain scenarios: "sdcl", "wdcl", "nodcl".
bool is_preset(std::string_view name);
// Simulates preset `name` for duration_s seconds and extracts its probe
// trace.
trace::Trace preset_trace(const std::string& name, std::uint64_t seed,
                          double duration_s);

}  // namespace dcl::cli
