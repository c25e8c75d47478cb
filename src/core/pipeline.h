// One-call analysis pipeline for recorded probe traces.
//
// Wraps the full workflow the paper applies to Internet measurements:
// trace sanitization (measurement-pathology repair; core/sanitize.h),
// optional clock-skew removal (one-way delays from unsynchronized hosts),
// optional stationary-window selection, then model-based identification.
// This is the entry point the `dclid` command-line tool uses; library
// consumers with more specific needs can keep calling the pieces directly.
//
// Failure model (DESIGN.md §5.7): with sanitization enabled (the default)
// analyze_trace degrades instead of aborting — bad records are repaired or
// dropped into a SanitizationReport, degenerate EM fits are retried with
// re-seeded restarts, optional stages are skipped once the wall-clock
// deadline expires, and every fallback lands in PipelineResult::warnings
// with `degraded` set. Only internal invariant violations (bugs) and calls
// with sanitize = false keep the historical fail-fast throw behaviour.
//
// Re-entrancy: analyze_trace holds no mutable global state — it reads
// only its arguments and writes only its result, and the singletons it
// touches (obs registry, logger, flight recorder) are thread-safe by
// design. Concurrent calls with distinct configs are therefore
// independent; the fleet batch engine (src/fleet/, DESIGN.md §5.9)
// relies on this to run many traces in parallel with bitwise-identical
// per-trace results.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/identifier.h"
#include "core/sanitize.h"
#include "core/stationarity.h"
#include "timesync/skew.h"
#include "trace/trace_io.h"

namespace dcl::core {

struct PipelineConfig {
  IdentifierConfig identifier;
  // Repair/drop pathological records before analysis and degrade instead
  // of throwing on unusable input (see above). Disable to get the strict
  // fail-fast contract back.
  bool sanitize = true;
  SanitizeConfig sanitize_config;
  // Total wall-clock budget in seconds; once exceeded, optional stages
  // (window selection, model selection, bootstrap, fine bound) are skipped
  // with a warning and whatever is already computed is returned. 0 = none.
  double deadline_s = 0.0;
  // Estimate and remove clock skew from the one-way delays before
  // identification (needs send times, which traces carry).
  bool correct_clock_skew = true;
  // When > 0, analyze only the most stationary window of this many probes
  // instead of the whole trace: candidate windows start every 1000 probes
  // and must hold at least 20 losses (core::most_stationary_window).
  std::size_t stationary_window = 0;
};

struct PipelineResult {
  IdentificationResult identification;
  timesync::SkewEstimate skew;      // valid iff correct_clock_skew
  StationarityReport stationarity;  // of the analyzed window
  SanitizationReport sanitization;  // what sanitize_trace repaired/dropped
  std::size_t window_begin = 0;     // analyzed range within the trace
  std::size_t window_end = 0;
  std::size_t trace_gaps = 0;

  // True when identification ran and produced a result to report (even a
  // "no losses" one). False only on the degraded no-answer rungs: trace
  // unusable after sanitization, or the coarse fit failed outright.
  bool answered = false;
  // Any stage repaired, retried, skipped, or fell back; the union of the
  // sanitization warnings, skew skips, and identification warnings below.
  bool degraded = false;
  std::vector<std::string> warnings;
};

PipelineResult analyze_trace(const trace::Trace& trace,
                             const PipelineConfig& cfg = {});

}  // namespace dcl::core
