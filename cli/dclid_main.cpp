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
// `dclid --help` lists every option. This file holds the analysis-only
// flags (--dprop, --window, --bound-symbols, --bootstrap[-refit],
// --select-N, --threads, --em-retries, --scenario, --duration,
// --trace-out), the EM progress observer and the report; the flags shared
// with dclfleet, the observability flags, validation, the config digest
// and the run session live in the CLI core (cli/cli_core.h).
//
// With --trace-out FILE the whole run is captured by the flight recorder
// (obs/trace.h) and exported as Chrome trace-event JSON loadable in
// Perfetto / chrome://tracing — pipeline stages and EM restart/iteration
// spans per worker thread, plus simulated-time tracks (per-link queue
// occupancy, drops, probe lifecycle) when --scenario is used. The
// profiler (--profile-out) starts after the trace is read or simulated,
// so the profile covers the analysis pipeline.
//
// Exit codes (see README "Exit codes" and DESIGN.md §5.7):
//   0  clean answer
//   1  degraded but completed: sanitization repaired records, a stage was
//      skipped or retried, or no verdict could be produced — warnings on
//      stderr say why
//   2  invalid input: unusable flags, malformed trace file, missing file
//   3  internal error (a bug in dclid)
//   128+sig  ended by SIGINT/SIGTERM (with --serve or --trace-out)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cli_core.h"
#include "core/pipeline.h"
#include "inference/em_telemetry.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/obs.h"

namespace {

namespace cli = dcl::cli;
namespace log = dcl::obs::log;

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s [options] <trace.csv>\n"
      "       %s [options] --scenario sdcl|wdcl|nodcl\n"
      "%s"
      "  --dprop SECONDS        known propagation delay\n"
      "  --window N             analyze the most stationary window of N\n"
      "                         probes (0 = whole trace, else N >= 12)\n"
      "  --bound-symbols N      fine grid for the delay bound (default 50)\n"
      "  --bootstrap R          bootstrap confidence with R replicates\n"
      "  --bootstrap-refit      sequence bootstrap with warm-started EM\n"
      "                         refits instead of posterior resampling\n"
      "  --select-N MAX         choose hidden states by BIC in 1..MAX\n"
      "  --threads N            worker threads for the parallel stages\n"
      "                         (default 0 = all cores; results identical)\n"
      "  --em-retries K         re-seeded retries of a degenerate EM fit\n"
      "                         (default 2)\n"
      "  --scenario NAME        simulate a built-in chain scenario instead\n"
      "                         of reading a trace (sdcl, wdcl, nodcl)\n"
      "  --duration SECONDS     simulated seconds for --scenario (700)\n"
      "  --trace-out FILE       flight-record the run; write Chrome trace\n"
      "                         JSON (Perfetto / chrome://tracing)\n"
      "%s",
      argv0, argv0, cli::kPipelineUsage, cli::Session::kUsage);
  std::exit(code);
}

// EM telemetry into the global registry, plus optional per-restart
// progress lines on stderr. A restart that did not converge is labelled by
// why it stopped: eliminated by restart racing, stopped short of the
// iteration cap (e.g. its candidate lost a model-structure race), or at
// the cap.
class CliEmObserver : public dcl::inference::RegistryEmObserver {
 public:
  CliEmObserver(dcl::obs::Registry& reg, bool verbose, int max_iterations)
      : RegistryEmObserver(reg),
        verbose_(verbose),
        max_iterations_(max_iterations) {}

  void on_restart(int restart, const dcl::inference::FitResult& result,
                  bool new_best) override {
    RegistryEmObserver::on_restart(restart, result, new_best);
    if (!verbose_ || !log::enabled(log::Level::kDebug)) return;
    const char* stop = result.converged ? ""
                       : result.pruned  ? " (raced out)"
                       : result.iterations < max_iterations_
                           ? " (stopped early)"
                           : " (max iterations)";
    log::writef(log::Level::kDebug, "em.restart",
                "restart %d: %d iteration%s, ll %.4f%s%s", restart,
                result.iterations, result.iterations == 1 ? "" : "s",
                result.log_likelihood, stop, new_best ? " *" : "");
  }

 private:
  bool verbose_;
  int max_iterations_;
};

// Provenance stamp shared by every export of this run (see obs/manifest.h):
// build facts from the library, invocation facts from the parsed config.
dcl::obs::RunManifest make_manifest(const dcl::core::PipelineConfig& cfg,
                                    const std::string& path,
                                    const std::string& scenario,
                                    double duration_s) {
  const auto& id = cfg.identifier;
  auto man = dcl::obs::manifest("dclid");
  man.seed = id.em.seed;
  std::string input = scenario.empty() ? path : "scenario:" + scenario;
  man.add("input", input);
  man.add("symbols", std::to_string(id.symbols));
  man.add("hidden", std::to_string(id.hidden_states));
  man.add("restarts", std::to_string(id.em.restarts));
  man.add("threads", std::to_string(id.em.threads));
  if (!scenario.empty()) {
    man.add("duration_s", std::to_string(duration_s));
    input += ";duration_s=" + std::to_string(duration_s);
  }
  man.config_digest = dcl::obs::digest_hex(cli::config_key(cfg, input));
  return man;
}

// Prints the verdict report; returns the exit code.
int report(const dcl::trace::Trace& trace,
           const dcl::core::PipelineConfig& cfg,
           const dcl::core::PipelineResult& r) {
  const auto& id = r.identification;
  // Degradation surface: every warning through the logger (warn-level
  // lines also land in the /statusz recent-errors ring), exit code 1
  // when any stage fell back (see the exit-code table in the usage).
  for (const auto& w : r.warnings)
    log::warnf("pipeline.warning", "%s", w.c_str());
  if (!r.answered) {
    std::printf("analysis degraded: no verdict (%zu warnings, see "
                "stderr).\n", r.warnings.size());
    return 1;
  }
  const int rc = r.degraded ? 1 : 0;

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
    return rc;
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
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  cli::set_program("dclid");
  dcl::core::PipelineConfig cfg;
  auto& id = cfg.identifier;
  cli::Session session;
  std::string path;
  std::string scenario;
  double duration_s = 700.0;

  cli::Args args(argc, argv);
  while (args.next()) {
    if (args.is("-h") || args.is("--help")) usage(argv[0], 0);
    else if (cli::parse_pipeline_flag(args, cfg) || session.parse_flag(args)) {}
    else if (args.is("--dprop")) id.propagation_delay = args.real();
    else if (args.is("--window")) cfg.stationary_window = args.u64();
    else if (args.is("--bound-symbols")) id.bound_symbols = args.int32();
    else if (args.is("--bootstrap")) id.bootstrap_replicates = args.int32();
    else if (args.is("--bootstrap-refit")) id.bootstrap_refit = true;
    else if (args.is("--select-N")) id.auto_hidden_max = args.int32();
    else if (args.is("--threads")) id.em.threads = args.int32();
    else if (args.is("--em-retries")) id.em_retries = args.int32();
    else if (args.is("--scenario")) scenario = args.value();
    else if (args.is("--duration")) duration_s = args.real();
    else if (args.is("--trace-out")) session.trace_out = args.value();
    else if (args.operand() && path.empty()) path = args.arg();
    else usage(argv[0], 2);
  }
  cli::validate(cfg);
  session.validate();
  if (!scenario.empty() && !cli::is_preset(scenario))
    cli::config_error("--scenario must be sdcl, wdcl, or nodcl");
  if (!scenario.empty() && !(duration_s > 0.0))
    cli::config_error("--duration must be > 0");
  session.manifest = make_manifest(cfg, path.empty() ? "none" : path,
                                   scenario, duration_s);
  if (session.print_manifest) {
    // Ops/debugging parity with /statusz: the exact RunManifest this
    // invocation would stamp on its exports, with no input required.
    std::printf("%s\n", session.manifest.to_json().c_str());
    return 0;
  }
  if (path.empty() == scenario.empty()) usage(argv[0], 2);

  session.begin(/*drain_on_signal=*/false);
  CliEmObserver em_observer(dcl::obs::Registry::global(), session.verbose,
                            id.em.max_iterations);
  if (session.observing()) id.em.observer = &em_observer;
  session.open();
  return session.run([&] {
    dcl::trace::Trace trace;
    if (!scenario.empty()) {
      if (session.verbose)
        log::infof("scenario", "simulating %s chain (%g s)",
                   scenario.c_str(), duration_s);
      trace = cli::preset_trace(scenario, id.em.seed, duration_s);
    } else {
      if (session.verbose) log::infof("input", "reading %s", path.c_str());
      trace = dcl::trace::read_trace_file(path);
    }
    if (session.verbose)
      log::infof("input", "analyzing %zu probes", trace.records.size());
    // Armed only now, so the profile answers "where does the *analysis*
    // spend CPU", not "how expensive is the scenario simulator".
    session.start_profiler();
    return report(trace, cfg, dcl::core::analyze_trace(trace, cfg));
  });
}
