#include "core/pipeline.h"

#include "obs/log.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "util/deadline.h"
#include "util/error.h"

namespace dcl::core {

namespace {

void finalize(PipelineResult* out) {
  if (!out->warnings.empty()) out->degraded = true;
  obs::Registry::global().windowed_counter("pipeline.runs").add(1);
  if (out->degraded) {
    obs::Registry::global().windowed_counter("pipeline.degraded").add(1);
    obs::trace::instant("pipeline.degraded",
                        static_cast<double>(out->warnings.size()));
    obs::log::warn("pipeline.degraded",
                   {{"warnings", std::to_string(out->warnings.size())},
                    {"first", out->warnings.empty() ? std::string_view{}
                                                    : std::string_view(
                                                          out->warnings[0])}});
  }
}

PipelineResult run_pipeline(const trace::Trace& input,
                            const PipelineConfig& cfg) {
  PipelineResult out;

  const trace::Trace* active = &input;
  trace::Trace sanitized;
  if (cfg.sanitize) {
    sanitized = sanitize_trace(input, &out.sanitization, cfg.sanitize_config);
    out.warnings.insert(out.warnings.end(),
                        out.sanitization.warnings.begin(),
                        out.sanitization.warnings.end());
    active = &sanitized;
    if (active->records.size() < 2) {
      out.warnings.push_back(
          "trace unusable: fewer than 2 records after sanitization");
      finalize(&out);
      return out;
    }
  } else {
    DCL_REQUIRE_INPUT(input.records.size() >= 2,
                      "trace too short to analyze");
  }
  out.trace_gaps = active->gaps();

  IdentifierConfig idcfg = cfg.identifier;
  util::Deadline deadline;
  if (cfg.deadline_s > 0.0) {
    deadline = util::Deadline::after(cfg.deadline_s);
    idcfg.deadline = deadline;
  }

  // Materializing observation/send-time sequences walks every record; on
  // long traces that is visible CPU, so it gets its own stage.
  auto obs_seq = [&] {
    DCL_STAGE("ingest");
    return active->observations();
  }();
  const auto send_times = [&] {
    DCL_STAGE("ingest");
    return active->send_times();
  }();
  if (cfg.correct_clock_skew) {
    DCL_STAGE("skew_removal");
    obs_seq = timesync::correct_observations(obs_seq, send_times, &out.skew);
    if (!out.skew.valid) {
      out.warnings.push_back(
          std::string("clock-skew correction skipped: ") +
          timesync::to_string(out.skew.skip_reason));
    }
  }

  out.window_begin = 0;
  out.window_end = obs_seq.size();
  if (cfg.stationary_window > 0 && cfg.stationary_window < obs_seq.size()) {
    if (deadline.expired()) {
      out.warnings.push_back(
          "window selection skipped: deadline exceeded (partial result)");
      obs::Registry::global().windowed_counter("pipeline.deadline_skips")
          .add(1);
    } else {
      DCL_STAGE("window_selection");
      const auto [lo, hi] =
          most_stationary_window(obs_seq, cfg.stationary_window, 1000, 20);
      out.window_begin = lo;
      out.window_end = hi;
      obs_seq.assign(obs_seq.begin() + static_cast<long>(lo),
                     obs_seq.begin() + static_cast<long>(hi));
    }
  }
  {
    DCL_STAGE("stationarity");
    out.stationarity = stationarity(obs_seq);
  }
  out.identification = Identifier(idcfg).identify(obs_seq);
  out.answered = !out.identification.fit_failed;
  out.warnings.insert(out.warnings.end(),
                      out.identification.warnings.begin(),
                      out.identification.warnings.end());
  out.degraded = out.degraded || out.identification.degraded;
  finalize(&out);
  return out;
}

}  // namespace

PipelineResult analyze_trace(const trace::Trace& trace,
                             const PipelineConfig& cfg) {
  DCL_STAGE("analyze_trace");
  if (!cfg.sanitize) return run_pipeline(trace, cfg);
  // Graceful boundary: with sanitization on, data-dependent failures —
  // including invariant throws that slipped past sanitization, which are
  // bugs and are counted as such — come back as a degraded no-answer
  // result, never as an exception.
  try {
    return run_pipeline(trace, cfg);
  } catch (const util::Error& e) {
    PipelineResult out;
    if (e.code() == util::ErrorCode::kInternal)
      obs::Registry::global().windowed_counter("pipeline.internal_errors")
          .add(1);
    obs::log::error("pipeline.aborted", {{"code", util::to_string(e.code())},
                                         {"msg", e.what()}});
    out.warnings.push_back(std::string("analysis aborted (") +
                           util::to_string(e.code()) + "): " + e.what());
    finalize(&out);
    return out;
  }
}

}  // namespace dcl::core
