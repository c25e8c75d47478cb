// Tests for the robustness stack: dcl::faults injection, core trace
// sanitization, the typed error taxonomy, and the graceful-degradation
// property of the full pipeline (a corrupted trace either answers or
// degrades — it never throws past analyze_trace, and a corrupted file
// either parses or raises a typed input error).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/sanitize.h"
#include "faults/faults.h"
#include "trace/trace_io.h"
#include "util/error.h"
#include "util/rng.h"

namespace dcl {
namespace {

// Same shape as the pipeline tests' synthetic workload: full-queue loss
// signature plus noise, so identification has something to say.
trace::Trace synth_trace(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  trace::Trace t;
  double queue = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    queue = std::clamp(queue + rng.uniform(-0.012, 0.012), 0.0, 0.1);
    trace::TraceRecord rec;
    rec.seq = i;
    rec.send_time = static_cast<double>(i) * 0.02;
    if (queue > 0.095 && rng.bernoulli(0.5))
      rec.obs = inference::Observation::loss();
    else
      rec.obs = inference::Observation::received(0.040 + queue +
                                                 rng.uniform(0.0, 0.002));
    t.records.push_back(rec);
  }
  if (t.records.front().obs.lost)
    t.records.front().obs = inference::Observation::received(0.040);
  return t;
}

std::vector<std::uint64_t> lost_seqs(const trace::Trace& t) {
  std::vector<std::uint64_t> out;
  for (const auto& r : t.records)
    if (r.obs.lost) out.push_back(r.seq);
  return out;
}

// --------------------------- fault injection -------------------------------

TEST(Faults, DeterministicInTheScheduleSeed) {
  const auto clean = synth_trace(2000, 3);
  faults::FaultSchedule sched;
  sched.seed = 42;
  sched.specs = {{faults::FaultKind::kLossBurst, 0.02, 1.0},
                 {faults::FaultKind::kReorder, 0.01, 1.0},
                 {faults::FaultKind::kNanDelay, 0.005, 1.0}};
  const faults::Injector inj(sched);
  const auto a = inj.apply(clean);
  const auto b = inj.apply(clean);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].seq, b.records[i].seq);
    EXPECT_EQ(a.records[i].obs.lost, b.records[i].obs.lost);
  }
  // A different seed corrupts differently.
  sched.seed = 43;
  const auto c = faults::Injector(sched).apply(clean);
  EXPECT_NE(lost_seqs(a), lost_seqs(c));
}

TEST(Faults, AppendingASpecDoesNotPerturbEarlierOnes) {
  // Each spec draws from its own forked RNG stream, so extending a
  // schedule leaves the existing faults byte-identical — the property
  // that makes soak failures reproducible and bisectable.
  const auto clean = synth_trace(2000, 3);
  faults::FaultSchedule one;
  one.seed = 7;
  one.specs = {{faults::FaultKind::kLossBurst, 0.02, 1.0}};
  faults::FaultSchedule two = one;
  two.specs.push_back({faults::FaultKind::kNanDelay, 0.01, 1.0});
  const auto with_one = faults::Injector(one).apply(clean);
  const auto with_two = faults::Injector(two).apply(clean);
  // kNanDelay never toggles loss flags, so the loss-burst footprint must
  // be identical in both outputs.
  EXPECT_EQ(lost_seqs(with_one), lost_seqs(with_two));
}

TEST(Faults, EachRecordKindHasItsSignature) {
  const auto clean = synth_trace(2000, 5);
  auto one = [&](faults::FaultKind k, double rate, double mag,
                 faults::InjectionReport* rep) {
    faults::FaultSchedule s;
    s.seed = 11;
    s.specs = {{k, rate, mag}};
    return faults::Injector(s).apply(clean, rep);
  };

  faults::InjectionReport rep;
  const auto dup = one(faults::FaultKind::kDuplicate, 0.01, 1.0, &rep);
  EXPECT_GT(dup.records.size(), clean.records.size());
  ASSERT_EQ(rep.entries.size(), 1u);
  EXPECT_EQ(rep.entries[0].kind, faults::FaultKind::kDuplicate);
  EXPECT_GT(rep.entries[0].affected, 0u);
  EXPECT_GT(rep.total_affected(), 0u);
  EXPECT_FALSE(rep.summary().empty());

  const auto gap = one(faults::FaultKind::kGap, 0.05, 1.0, nullptr);
  EXPECT_LT(gap.records.size(), clean.records.size());

  const auto trunc =
      one(faults::FaultKind::kTruncateRecords, 0.25, 1.0, nullptr);
  EXPECT_LT(trunc.records.size(), clean.records.size());

  const auto burst = one(faults::FaultKind::kLossBurst, 0.02, 1.0, nullptr);
  EXPECT_GT(lost_seqs(burst).size(), lost_seqs(clean).size());

  std::size_t nans = 0, negatives = 0;
  for (const auto& r : one(faults::FaultKind::kNanDelay, 0.01, 1.0, nullptr)
                           .records)
    nans += !r.obs.lost && std::isnan(r.obs.delay) ? 1 : 0;
  EXPECT_GT(nans, 0u);
  for (const auto& r :
       one(faults::FaultKind::kNegativeDelay, 0.01, 1.0, nullptr).records)
    negatives += !r.obs.lost && r.obs.delay < 0.0 ? 1 : 0;
  EXPECT_GT(negatives, 0u);

  // A clock step adds `magnitude` seconds to every delay after the step
  // point; the tail floor rises by about that much.
  const auto stepped = one(faults::FaultKind::kClockStep, 0.5, 2.0, nullptr);
  double tail_min = std::numeric_limits<double>::infinity();
  for (std::size_t i = stepped.records.size() - 100;
       i < stepped.records.size(); ++i)
    if (!stepped.records[i].obs.lost)
      tail_min = std::min(tail_min, stepped.records[i].obs.delay);
  EXPECT_GT(tail_min, 1.5);

  std::size_t moved = 0;
  const auto reordered = one(faults::FaultKind::kReorder, 0.02, 1.0, nullptr);
  for (std::size_t i = 1; i < reordered.records.size(); ++i)
    moved += reordered.records[i].seq < reordered.records[i - 1].seq ? 1 : 0;
  EXPECT_GT(moved, 0u);
}

TEST(Faults, ByteFaultsCorruptSerializedTraces) {
  const auto clean = synth_trace(500, 9);
  std::ostringstream ss;
  trace::write_trace(ss, clean);
  const std::string bytes = ss.str();

  faults::FaultSchedule s;
  s.seed = 21;
  s.specs = {{faults::FaultKind::kTruncateBytes, 0.3, 1.0}};
  const auto truncated = faults::Injector(s).apply_bytes(bytes);
  EXPECT_LT(truncated.size(), bytes.size());

  s.specs = {{faults::FaultKind::kCorruptBytes, 0.01, 1.0}};
  faults::InjectionReport rep;
  const auto corrupted = faults::Injector(s).apply_bytes(bytes, &rep);
  EXPECT_EQ(corrupted.size(), bytes.size());
  EXPECT_NE(corrupted, bytes);
  ASSERT_EQ(rep.entries.size(), 1u);
  EXPECT_GT(rep.entries[0].affected, 0u);
  // Record-level specs are ignored by apply_bytes and vice versa.
  s.specs = {{faults::FaultKind::kLossBurst, 0.1, 1.0}};
  EXPECT_EQ(faults::Injector(s).apply_bytes(bytes), bytes);
}

TEST(Faults, RandomScheduleIsDeterministicAndBounded) {
  const auto a = faults::random_schedule(17, 4);
  const auto b = faults::random_schedule(17, 4);
  ASSERT_EQ(a.specs.size(), b.specs.size());
  EXPECT_GE(a.specs.size(), 1u);
  EXPECT_LE(a.specs.size(), 4u);
  for (std::size_t i = 0; i < a.specs.size(); ++i) {
    EXPECT_EQ(a.specs[i].kind, b.specs[i].kind);
    EXPECT_DOUBLE_EQ(a.specs[i].rate, b.specs[i].rate);
    EXPECT_DOUBLE_EQ(a.specs[i].magnitude, b.specs[i].magnitude);
  }
  // Without opt-in, schedules stay record-level.
  for (int seed = 0; seed < 50; ++seed)
    for (const auto& spec : faults::random_schedule(seed, 4).specs)
      EXPECT_LT(static_cast<int>(spec.kind), faults::kRecordFaultKinds);
}

// ----------------------------- sanitization --------------------------------

TEST(Sanitize, CleanTracePassesThroughUntouched) {
  const auto clean = synth_trace(1000, 13);
  core::SanitizationReport rep;
  const auto out = core::sanitize_trace(clean, &rep);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.input_records, clean.records.size());
  EXPECT_EQ(rep.output_records, clean.records.size());
  ASSERT_EQ(out.records.size(), clean.records.size());
  for (std::size_t i = 0; i < out.records.size(); ++i)
    EXPECT_EQ(out.records[i].seq, clean.records[i].seq);
}

TEST(Sanitize, RepairsOrderAndDropsTheUnusable) {
  trace::Trace t;
  auto add = [&](std::uint64_t seq, double delay) {
    t.records.push_back(
        {seq, static_cast<double>(seq) * 0.02,
         inference::Observation::received(delay)});
  };
  for (int i = 0; i < 30; ++i) add(static_cast<std::uint64_t>(i), 0.05);
  std::swap(t.records[3], t.records[7]);            // out of order
  add(30, 0.05);
  add(30, 0.06);                                    // duplicate seq
  add(31, std::numeric_limits<double>::quiet_NaN());  // non-finite
  add(32, -0.5);                                    // negative
  add(33, 500.0);                                   // wild outlier

  core::SanitizationReport rep;
  const auto out = core::sanitize_trace(t, &rep);
  EXPECT_FALSE(rep.clean());
  EXPECT_GT(rep.reordered, 0u);
  EXPECT_EQ(rep.duplicates_dropped, 1u);
  EXPECT_EQ(rep.nonfinite_dropped, 1u);
  EXPECT_EQ(rep.negative_dropped, 1u);
  EXPECT_EQ(rep.outliers_dropped, 1u);
  EXPECT_EQ(rep.dropped(), 4u);
  EXPECT_FALSE(rep.warnings.empty());
  EXPECT_FALSE(rep.summary().empty());
  // Output is strictly increasing in seq and usable everywhere.
  for (std::size_t i = 1; i < out.records.size(); ++i)
    EXPECT_GT(out.records[i].seq, out.records[i - 1].seq);
  for (const auto& r : out.records)
    if (!r.obs.lost) {
      EXPECT_TRUE(std::isfinite(r.obs.delay));
      EXPECT_GE(r.obs.delay, 0.0);
    }

  // Idempotence: a sanitized trace sanitizes clean.
  core::SanitizationReport rep2;
  const auto out2 = core::sanitize_trace(out, &rep2);
  EXPECT_TRUE(rep2.clean());
  EXPECT_EQ(out2.records.size(), out.records.size());
}

TEST(Sanitize, OutlierRuleSparesHeavyButHonestTails) {
  // Genuine bursty queuing (the paper's own workload shape) must survive:
  // delays up to ~4x the median are data, not pathology.
  trace::Trace t;
  util::Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    double d = 0.05 + rng.exponential(0.01);
    if (rng.bernoulli(0.05)) d += rng.uniform(0.05, 0.15);
    t.records.push_back({static_cast<std::uint64_t>(i), i * 0.02,
                         inference::Observation::received(d)});
  }
  core::SanitizationReport rep;
  core::sanitize_trace(t, &rep);
  EXPECT_EQ(rep.outliers_dropped, 0u);
}

TEST(Sanitize, ShuffledCopySanitizesToTheInOrderOutput) {
  // In-order records skip the re-sort; a shuffled copy of the same trace
  // (unique seqs, with drops of every kind) must come out identical.
  auto t = synth_trace(1500, 17);
  t.records[40].obs = inference::Observation::received(-0.01);
  t.records[41].obs =
      inference::Observation::received(std::numeric_limits<double>::infinity());
  t.records[42].obs = inference::Observation::received(400.0);
  t.records[43].send_time = std::numeric_limits<double>::quiet_NaN();
  auto shuffled = t;
  util::Rng rng(5);
  for (std::size_t i = shuffled.records.size() - 1; i > 0; --i)
    std::swap(shuffled.records[i],
              shuffled.records[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i)))]);

  core::SanitizationReport rep_in, rep_sh;
  const auto out_in = core::sanitize_trace(t, &rep_in);
  const auto out_sh = core::sanitize_trace(shuffled, &rep_sh);
  EXPECT_EQ(rep_in.reordered, 0u);
  EXPECT_GT(rep_sh.reordered, 0u);
  EXPECT_EQ(rep_in.nonfinite_dropped, 2u);
  EXPECT_EQ(rep_in.negative_dropped, 1u);
  EXPECT_EQ(rep_in.outliers_dropped, 1u);
  EXPECT_EQ(rep_sh.input_records, rep_in.input_records);
  EXPECT_EQ(rep_sh.output_records, rep_in.output_records);
  EXPECT_EQ(rep_sh.duplicates_dropped, rep_in.duplicates_dropped);
  EXPECT_EQ(rep_sh.nonfinite_dropped, rep_in.nonfinite_dropped);
  EXPECT_EQ(rep_sh.negative_dropped, rep_in.negative_dropped);
  EXPECT_EQ(rep_sh.outliers_dropped, rep_in.outliers_dropped);
  ASSERT_EQ(out_sh.records.size(), out_in.records.size());
  for (std::size_t i = 0; i < out_in.records.size(); ++i) {
    const auto& a = out_in.records[i];
    const auto& b = out_sh.records[i];
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.send_time, b.send_time);
    EXPECT_EQ(a.obs.lost, b.obs.lost);
    if (!a.obs.lost) {
      EXPECT_EQ(a.obs.delay, b.obs.delay);
    }
  }
}

// --------------------------- error taxonomy --------------------------------

TEST(ErrorTaxonomy, CodesAndSeveritiesCarryThrough) {
  try {
    util::raise(util::ErrorCode::kResourceLimit, "budget exhausted",
                util::Severity::kRecoverable);
    FAIL();
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kResourceLimit);
    EXPECT_EQ(e.severity(), util::Severity::kRecoverable);
    EXPECT_NE(std::string(e.what()).find("budget exhausted"),
              std::string::npos);
  }
  // Legacy construction keeps the old semantics: internal and fatal.
  const util::Error legacy("boom");
  EXPECT_EQ(legacy.code(), util::ErrorCode::kInternal);
  EXPECT_EQ(legacy.severity(), util::Severity::kFatal);
  EXPECT_STREQ(util::to_string(util::ErrorCode::kInvalidInput),
               "invalid_input");
  EXPECT_STREQ(util::to_string(util::Severity::kWarning), "warning");
}

TEST(ErrorTaxonomy, RequireInputMacroThrowsTyped) {
  auto checked = [](int n) {
    DCL_REQUIRE_INPUT(n >= 2, "need at least two records");
    return n;
  };
  EXPECT_EQ(checked(5), 5);
  try {
    checked(1);
    FAIL();
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidInput);
    EXPECT_EQ(e.severity(), util::Severity::kRecoverable);
  }
}

// ------------------- graceful-degradation property -------------------------

// Property: for ANY faults-corrupted variant of a clean trace, analyze_trace
// (sanitization on) either answers or degrades with an explanation — it
// never throws past the pipeline boundary, and degraded <=> warnings.
TEST(Robustness, CorruptedTracesNeverEscapeThePipeline) {
  const auto clean = synth_trace(4000, 1);
  core::PipelineConfig cfg;
  cfg.identifier.em.max_iterations = 60;  // volume over polish
  cfg.identifier.compute_fine_bound = false;
  std::size_t degraded = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto sched = faults::random_schedule(1000 + seed, 4);
    const auto corrupted = faults::Injector(sched).apply(clean);
    core::PipelineResult r;
    ASSERT_NO_THROW(r = core::analyze_trace(corrupted, cfg))
        << "schedule seed " << 1000 + seed;
    EXPECT_EQ(r.degraded, !r.warnings.empty());
    if (!r.answered) {
      EXPECT_TRUE(r.degraded);
    }
    degraded += r.degraded ? 1 : 0;
  }
  // Four random faults per schedule essentially always leave a mark.
  EXPECT_GT(degraded, 0u);
}

TEST(Robustness, DeadlineProducesDegradedPartialResult) {
  const auto clean = synth_trace(4000, 2);
  core::PipelineConfig cfg;
  cfg.identifier.em.max_iterations = 60;
  cfg.deadline_s = 1e-9;  // expires before any optional stage runs
  core::PipelineResult r;
  ASSERT_NO_THROW(r = core::analyze_trace(clean, cfg));
  EXPECT_TRUE(r.degraded);
  ASSERT_FALSE(r.warnings.empty());
  bool mentions_deadline = false;
  for (const auto& w : r.warnings)
    mentions_deadline |= w.find("deadline") != std::string::npos;
  EXPECT_TRUE(mentions_deadline);
}

// Fuzz-style round trip: serialized clean trace, mutated bytes, parse.
// Outcomes allowed: a successful parse or a typed invalid-input/io error.
TEST(Robustness, MutatedTraceBytesParseOrRejectTyped) {
  const auto clean = synth_trace(800, 4);
  std::ostringstream ss;
  trace::write_trace(ss, clean);
  const std::string bytes = ss.str();
  std::size_t parsed = 0, rejected = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const auto sched = faults::random_schedule(5000 + seed, 3,
                                               /*byte faults*/ true);
    const auto mutated = faults::Injector(sched).apply_bytes(bytes);
    try {
      std::istringstream in(mutated);
      (void)trace::read_trace(in);
      ++parsed;
    } catch (const util::Error& e) {
      EXPECT_TRUE(e.code() == util::ErrorCode::kInvalidInput ||
                  e.code() == util::ErrorCode::kIo)
          << util::to_string(e.code()) << ": " << e.what();
      ++rejected;
    }
    // Any other exception type fails the test by escaping.
  }
  EXPECT_EQ(parsed + rejected, 60u);
  EXPECT_GT(rejected, 0u);  // byte corruption does get caught
}

}  // namespace
}  // namespace dcl
