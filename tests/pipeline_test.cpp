// Tests for the one-call analysis pipeline (trace in, report out) — the
// workflow behind the `dclid` CLI.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "core/pipeline.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "scenarios/presets.h"
#include "trace/trace_io.h"
#include "util/error.h"
#include "util/rng.h"

namespace dcl::core {
namespace {

// A trace with a full-queue loss signature, a clock skew, and a
// non-stationary prefix (loss storm in the first quarter).
trace::Trace synth_trace(std::size_t n, double skew, std::uint64_t seed) {
  util::Rng rng(seed);
  trace::Trace t;
  double queue = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double st = static_cast<double>(i) * 0.02;
    queue = std::clamp(queue + rng.uniform(-0.012, 0.012), 0.0, 0.1);
    const bool storm = i < n / 4 && rng.bernoulli(0.15);
    const bool full_loss = queue > 0.095 && rng.bernoulli(0.5);
    trace::TraceRecord rec;
    rec.seq = i;
    rec.send_time = st;
    if (storm || full_loss)
      rec.obs = inference::Observation::loss();
    else
      rec.obs = inference::Observation::received(0.040 + queue +
                                                 rng.uniform(0.0, 0.002) +
                                                 skew * st);
    t.records.push_back(rec);
  }
  if (t.records.front().obs.lost)
    t.records.front().obs = inference::Observation::received(0.040);
  if (t.records.back().obs.lost)
    t.records.back().obs = inference::Observation::received(0.040);
  return t;
}

TEST(Pipeline, EndToEndWithSkewAndWindowSelection) {
  const auto trace = synth_trace(24000, 60e-6, 5);
  PipelineConfig cfg;
  cfg.stationary_window = 12000;
  const auto r = analyze_trace(trace, cfg);

  ASSERT_TRUE(r.skew.valid);
  EXPECT_NEAR(r.skew.skew, 60e-6, 1e-5);
  // The storm occupies the first quarter; the selected window avoids it.
  EXPECT_GE(r.window_begin, 5000u);
  ASSERT_TRUE(r.identification.has_losses);
  EXPECT_TRUE(r.identification.wdcl.accepted);
  EXPECT_NEAR(r.identification.coarse_bound.seconds, 0.10, 0.04);
}

TEST(Pipeline, SkewCorrectionCanBeDisabled) {
  const auto trace = synth_trace(8000, 0.0, 6);
  PipelineConfig cfg;
  cfg.correct_clock_skew = false;
  cfg.identifier.compute_fine_bound = false;
  const auto r = analyze_trace(trace, cfg);
  EXPECT_FALSE(r.skew.valid);
  EXPECT_EQ(r.window_begin, 0u);
  EXPECT_EQ(r.window_end, trace.records.size());
}

TEST(Pipeline, UncorrectedLargeSkewSmearsTheDistribution) {
  // 400 ppm over 480 s drifts the floor by ~190 ms — larger than the
  // 100 ms queuing signal. With correction the decision matches the
  // skew-free trace; without it the bound inflates.
  const auto clean = synth_trace(24000, 0.0, 7);
  const auto skewed = synth_trace(24000, 400e-6, 7);
  PipelineConfig cfg;
  cfg.identifier.compute_fine_bound = false;
  const auto r_clean = analyze_trace(clean, cfg);
  const auto r_corrected = analyze_trace(skewed, cfg);
  EXPECT_EQ(r_corrected.identification.wdcl.accepted,
            r_clean.identification.wdcl.accepted);
  PipelineConfig no_fix = cfg;
  no_fix.correct_clock_skew = false;
  const auto r_raw = analyze_trace(skewed, no_fix);
  EXPECT_GT(r_raw.identification.bin_width_s,
            2.0 * r_clean.identification.bin_width_s);
}

TEST(Pipeline, RejectsDegenerateTracesInStrictMode) {
  PipelineConfig strict;
  strict.sanitize = false;
  trace::Trace t;
  EXPECT_THROW(analyze_trace(t, strict), util::Error);
  t.records.push_back({0, 0.0, inference::Observation::received(0.05)});
  EXPECT_THROW(analyze_trace(t, strict), util::Error);
  try {
    analyze_trace(t, strict);
    FAIL() << "expected a typed throw";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidInput);
  }
}

TEST(Pipeline, DegradesOnDegenerateTracesByDefault) {
  // Same degenerate traces, default (graceful) mode: no throw, a degraded
  // unanswered result that explains itself.
  trace::Trace t;
  const auto r0 = analyze_trace(t, {});
  EXPECT_FALSE(r0.answered);
  EXPECT_TRUE(r0.degraded);
  ASSERT_FALSE(r0.warnings.empty());
  t.records.push_back({0, 0.0, inference::Observation::received(0.05)});
  const auto r1 = analyze_trace(t, {});
  EXPECT_FALSE(r1.answered);
  EXPECT_TRUE(r1.degraded);
}

// Traces that are bad data rather than program bugs fail as invalid input:
// typed kInvalidInput in strict mode, and in graceful mode a degraded
// no-answer result that does not count as an internal error.
std::uint64_t internal_errors() {
  return obs::Registry::global()
      .windowed_counter("pipeline.internal_errors")
      .total()
      .value();
}

util::ErrorCode strict_error_code(const trace::Trace& t,
                                  PipelineConfig strict = {}) {
  strict.sanitize = false;
  try {
    analyze_trace(t, strict);
  } catch (const util::Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a typed throw";
  return util::ErrorCode::kInternal;
}

void expect_graceful_invalid_input(const trace::Trace& t,
                                   const PipelineConfig& cfg = {}) {
  const std::uint64_t before = internal_errors();
  const auto r = analyze_trace(t, cfg);
  EXPECT_FALSE(r.answered);
  EXPECT_TRUE(r.degraded);
  ASSERT_FALSE(r.warnings.empty());
  EXPECT_NE(r.warnings.back().find("invalid_input"), std::string::npos)
      << r.warnings.back();
  EXPECT_EQ(internal_errors(), before);
}

TEST(Pipeline, NoReceivedProbeIsInvalidInput) {
  // Strict mode: nothing received, so no delay range to discretize.
  trace::Trace lost;
  for (std::size_t i = 0; i < 100; ++i)
    lost.records.push_back({i, 0.02 * static_cast<double>(i),
                            inference::Observation::loss()});
  EXPECT_EQ(strict_error_code(lost), util::ErrorCode::kInvalidInput);

  // Graceful mode: sanitization drops every (negative) delay, leaving
  // only losses.
  trace::Trace negative = lost;
  for (std::size_t i = 0; i < 100; i += 4)
    negative.records[i].obs = inference::Observation::received(-0.05);
  expect_graceful_invalid_input(negative);
}

TEST(Pipeline, FewerObservationsThanStationarityBlocksIsInvalidInput) {
  // Strict mode: four records pass the length check but cannot fill the
  // six stationarity blocks.
  trace::Trace shortt;
  for (std::size_t i = 0; i < 4; ++i)
    shortt.records.push_back({i, 0.02 * static_cast<double>(i),
                              inference::Observation::received(0.05)});
  EXPECT_EQ(strict_error_code(shortt), util::ErrorCode::kInvalidInput);

  // Graceful mode: a 100-record trace with 95 negative delays keeps five.
  trace::Trace mostly_negative;
  for (std::size_t i = 0; i < 100; ++i)
    mostly_negative.records.push_back(
        {i, 0.02 * static_cast<double>(i),
         inference::Observation::received(i % 20 == 0 ? 0.05 : -0.05)});
  expect_graceful_invalid_input(mostly_negative);
}

TEST(Pipeline, PropagationDelayBeyondEveryDelayIsInvalidInput) {
  // A known propagation delay above every received delay leaves no delay
  // range to discretize: bad input, not an internal error.
  const auto t = synth_trace(2000, 0.0, 8);
  PipelineConfig cfg;
  cfg.identifier.propagation_delay = 10.0;
  EXPECT_EQ(strict_error_code(t, cfg), util::ErrorCode::kInvalidInput);
  expect_graceful_invalid_input(t, cfg);
}

// /metrics, /tracez and /profilez name the same stages: over one analysis
// with threaded restarts, model selection and a bootstrap, the stages that
// opened a flight-recorder scope are exactly those that timed into a
// span.<name> histogram.
TEST(Pipeline, TraceScopesAndSpanHistogramsShareOneVocabulary) {
  const auto chain = scenarios::presets::wdcl_chain(0.8e6, 16e6, 3, 60.0,
                                                    12.0);
  scenarios::ChainScenario sc(chain);
  sc.run();
  const auto t = trace::make_trace(sc.observations(), sc.window_start(),
                                   chain.probe_interval_s);
  PipelineConfig cfg;
  cfg.identifier.em.restarts = 2;
  cfg.identifier.em.threads = 2;
  cfg.identifier.auto_hidden_max = 2;
  cfg.identifier.bootstrap_replicates = 20;

  auto span_counts = [] {
    std::map<std::string, std::uint64_t> counts;
    for (const auto& h : obs::Registry::global().snapshot().histograms)
      if (h.name.rfind("span.", 0) == 0) counts[h.name.substr(5)] = h.count;
    return counts;
  };
  const auto before = span_counts();
  const bool metrics_was = obs::enabled();
  obs::set_enabled(true);
  auto& session = obs::trace::TraceSession::instance();
  session.start();
  const auto r = analyze_trace(t, cfg);
  session.stop();
  obs::set_enabled(metrics_was);
  EXPECT_TRUE(r.answered);

  std::set<std::string> traced;
  for (const auto& e : session.drain())
    if (e.kind == obs::trace::EventKind::kBegin) traced.insert(e.name);
  std::set<std::string> timed;
  for (const auto& [name, count] : span_counts()) {
    const auto it = before.find(name);
    if (count > (it == before.end() ? 0 : it->second)) timed.insert(name);
  }
  EXPECT_EQ(session.dropped(), 0u);
  EXPECT_EQ(traced, timed);
  for (const char* stage :
       {"analyze_trace", "em.mmhd", "em.mmhd.iter", "em.mmhd.sweep",
        "em.mmhd.segments", "em.mmhd.mstep", "bootstrap.chunk", "pool.task"})
    EXPECT_EQ(timed.count(stage), 1u) << stage;
}

}  // namespace
}  // namespace dcl::core
