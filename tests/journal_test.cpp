// dcl::fleet::journal + dcl::util::{crash, Backoff} + dcl::faults::proc —
// the durable-execution contracts (DESIGN.md §5.12):
//   * framing: CRC-checked round trip through Writer/read_file; a
//     truncated or byte-flipped tail parses-or-rejects (typed warning,
//     valid prefix replayed) at EVERY offset, and never crashes — the
//     same property tests/fuzz/journal_fuzz.cpp fuzzes;
//   * reopen: a corrupt tail is truncated back to the valid prefix before
//     new frames append, so one journal never carries two torn tails;
//   * backoff: deterministic in the seed, equal-jitter bounded, capped;
//   * crash reports: install/write_report_now produce a parseable JSON
//     report with manifest, backtrace, and in-flight indices; a fatal
//     signal kills the process with the original signal *after* the
//     report lands (death test);
//   * faults::proc: the crash/hang/flaky process-level hooks and their
//     environment arming.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "faults/faults.h"
#include "fleet/fleet.h"
#include "fleet/journal.h"
#include "obs/log.h"
#include "util/backoff.h"
#include "util/crash.h"
#include "util/error.h"

namespace dcl::fleet::journal {
namespace {

class TempFile {
 public:
  TempFile() {
    char tmpl[] = "/tmp/journal_test_XXXXXX";
    const int fd = ::mkstemp(tmpl);
    if (fd >= 0) {
      path_ = tmpl;
      std::FILE* f = ::fdopen(fd, "w");
      if (f != nullptr) std::fclose(f);
    }
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Header test_header() {
  Header h;
  h.base_seed = 42;
  h.jobs = 7;
  h.config_digest = "deadbeef";
  return h;
}

Entry test_entry(std::uint64_t index) {
  Entry e;
  e.index = index;
  e.status = 1;  // kDegraded
  e.seed = 0x123456789abcdef0ULL + index;
  e.probes = 1200;
  e.id = "path_" + std::to_string(index);
  e.error = "";
  e.answered = true;
  e.degraded = true;
  e.sdcl_accepted = true;
  e.wdcl_accepted = false;
  e.warnings = 2;
  e.losses = 17;
  e.loss_rate = 0.0141666;
  e.i_star = 3;
  e.f_at_2istar = 0.912;
  e.bound_seconds = 0.0123;
  e.wall_s = 1.5;
  return e;
}

void expect_entries_equal(const Entry& a, const Entry& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.answered, b.answered);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.sdcl_accepted, b.sdcl_accepted);
  EXPECT_EQ(a.wdcl_accepted, b.wdcl_accepted);
  EXPECT_EQ(a.warnings, b.warnings);
  EXPECT_EQ(a.losses, b.losses);
  EXPECT_DOUBLE_EQ(a.loss_rate, b.loss_rate);
  EXPECT_EQ(a.i_star, b.i_star);
  EXPECT_DOUBLE_EQ(a.f_at_2istar, b.f_at_2istar);
  EXPECT_DOUBLE_EQ(a.bound_seconds, b.bound_seconds);
  EXPECT_DOUBLE_EQ(a.wall_s, b.wall_s);
}

// ------------------------------------------------------------- framing --

TEST(JournalCrc, KnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Journal, WriterRoundTripsHeaderAndEntries) {
  TempFile f;
  {
    Writer w;
    w.create(f.path(), test_header());
    for (int i = 0; i < 5; ++i) w.append(test_entry(i));
    w.close();
  }
  const Replay r = read_file(f.path());
  EXPECT_TRUE(r.has_header);
  EXPECT_EQ(r.header.version, kVersion);
  EXPECT_EQ(r.header.base_seed, 42u);
  EXPECT_EQ(r.header.jobs, 7u);
  EXPECT_EQ(r.header.config_digest, "deadbeef");
  ASSERT_EQ(r.entries.size(), 5u);
  for (int i = 0; i < 5; ++i) expect_entries_equal(r.entries[i], test_entry(i));
  EXPECT_TRUE(r.warning.empty());
  EXPECT_EQ(r.valid_bytes, slurp(f.path()).size());
}

TEST(Journal, OutcomeEntryRoundTripPreservesJsonVisibleFields) {
  TraceOutcome o;
  o.index = 9;
  o.id = "trace_09";
  o.status = TraceStatus::kOk;
  o.seed = 77;
  o.probes = 800;
  o.result.answered = true;
  o.result.identification.losses = 12;
  o.result.identification.loss_rate = 0.015;
  o.result.identification.sdcl.accepted = true;
  o.result.identification.wdcl.accepted = true;
  o.result.identification.wdcl.i_star = 2;
  o.result.identification.wdcl.f_at_2istar = 0.95;
  o.result.identification.coarse_bound.seconds = 0.020;

  const TraceOutcome back = outcome_from_entry(entry_from_outcome(o));
  EXPECT_FALSE(back.executed);
  EXPECT_EQ(back.index, o.index);
  EXPECT_EQ(back.id, o.id);
  EXPECT_EQ(back.status, o.status);
  EXPECT_EQ(back.seed, o.seed);
  EXPECT_EQ(back.probes, o.probes);
  EXPECT_EQ(back.result.answered, o.result.answered);
  EXPECT_EQ(back.result.identification.losses,
            o.result.identification.losses);
  EXPECT_DOUBLE_EQ(back.result.identification.wdcl.f_at_2istar,
                   o.result.identification.wdcl.f_at_2istar);
  EXPECT_DOUBLE_EQ(back.result.identification.coarse_bound.seconds,
                   o.result.identification.coarse_bound.seconds);
}

// The kill -9 torn-write model: the journal cut at EVERY byte offset must
// parse to a valid prefix — complete frames replay, the torn tail is
// reported, nothing throws, nothing crashes.
TEST(Journal, TruncationAtEveryOffsetYieldsValidPrefix) {
  std::string bytes = encode_header(test_header());
  std::vector<std::size_t> frame_ends;  // entry count -> byte offset
  frame_ends.push_back(bytes.size());
  for (int i = 0; i < 3; ++i) {
    bytes += encode_entry(test_entry(i));
    frame_ends.push_back(bytes.size());
  }

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const Replay r = parse(std::string_view(bytes).substr(0, cut));
    // Entries decoded = complete frames before the cut.
    std::size_t want_entries = 0;
    for (std::size_t k = 1; k < frame_ends.size(); ++k)
      if (cut >= frame_ends[k]) want_entries = k;
    EXPECT_EQ(r.entries.size(), want_entries) << "cut=" << cut;
    EXPECT_EQ(r.has_header, cut >= frame_ends[0]) << "cut=" << cut;
    // valid_bytes is the last complete frame boundary.
    std::size_t want_valid = 0;
    for (const std::size_t end : frame_ends)
      if (cut >= end) want_valid = end;
    EXPECT_EQ(r.valid_bytes, want_valid) << "cut=" << cut;
    if (cut != want_valid) {
      EXPECT_FALSE(r.warning.empty()) << "cut=" << cut;
    }
  }
}

// The bit-rot model: one flipped byte anywhere must parse-or-reject —
// frames up to the flip replay, the CRC (or framing validation) stops the
// rest, and the parser never crashes or throws.
TEST(Journal, ByteFlipAtEveryOffsetParsesOrRejects) {
  std::string bytes = encode_header(test_header());
  for (int i = 0; i < 3; ++i) bytes += encode_entry(test_entry(i));
  const Replay clean = parse(bytes);
  ASSERT_EQ(clean.entries.size(), 3u);

  for (std::size_t off = 0; off < bytes.size(); ++off) {
    std::string corrupt = bytes;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x5A);
    const Replay r = parse(corrupt);  // must not throw or crash
    EXPECT_LE(r.entries.size(), clean.entries.size()) << "off=" << off;
    EXPECT_LE(r.valid_bytes, corrupt.size()) << "off=" << off;
    // A flip inside frame k kills frame k (and everything after — resync
    // is not attempted); frames before it replay intact.
    for (std::size_t k = 0; k < r.entries.size(); ++k)
      expect_entries_equal(r.entries[k], test_entry(static_cast<int>(k)));
  }
}

TEST(Journal, EmptyAndGarbageInputsAreRejectedNotFatal) {
  EXPECT_EQ(parse("").entries.size(), 0u);
  EXPECT_FALSE(parse("").has_header);
  const Replay r = parse("this is not a journal at all, not even close");
  EXPECT_EQ(r.entries.size(), 0u);
  EXPECT_FALSE(r.warning.empty());
  EXPECT_EQ(r.valid_bytes, 0u);
}

TEST(Journal, ReopenTruncatesCorruptTailBeforeAppending) {
  TempFile f;
  {
    Writer w;
    w.create(f.path(), test_header());
    w.append(test_entry(0));
    w.close();
  }
  // Torn write: half a frame of garbage lands on the tail.
  {
    std::ofstream out(f.path(), std::ios::binary | std::ios::app);
    out << "\x44\x4a\x4c\x31garbage";
  }
  const Replay torn = read_file(f.path());
  ASSERT_EQ(torn.entries.size(), 1u);
  EXPECT_FALSE(torn.warning.empty());

  {
    Writer w;
    w.reopen(f.path(), torn.valid_bytes);
    w.append(test_entry(1));
    w.close();
  }
  const Replay healed = read_file(f.path());
  EXPECT_TRUE(healed.warning.empty()) << healed.warning;
  ASSERT_EQ(healed.entries.size(), 2u);
  expect_entries_equal(healed.entries[0], test_entry(0));
  expect_entries_equal(healed.entries[1], test_entry(1));
}

TEST(Journal, MissingFileIsTypedIoError) {
  try {
    read_file("/no/such/journal.bin");
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kIo);
  }
}

// ------------------------------------------------------------- backoff --

TEST(Backoff, DeterministicInSeedAndBounded) {
  util::Backoff a(0.1, 1.0, 99);
  util::Backoff b(0.1, 1.0, 99);
  double prev_cap = 0.1;
  for (int k = 0; k < 8; ++k) {
    const double da = a.next_s();
    const double db = b.next_s();
    EXPECT_DOUBLE_EQ(da, db) << "attempt " << k;
    // Equal jitter over [d/2, d] with d = min(base * 2^k, max).
    const double d = std::min(prev_cap, 1.0);
    EXPECT_GE(da, 0.5 * d - 1e-12) << "attempt " << k;
    EXPECT_LE(da, d + 1e-12) << "attempt " << k;
    prev_cap = std::min(prev_cap * 2.0, 1.0);
  }
  EXPECT_EQ(a.attempts(), 8);
  a.reset();
  EXPECT_EQ(a.attempts(), 0);
}

TEST(Backoff, DifferentSeedsJitterDifferently) {
  util::Backoff a(0.1, 10.0, 1);
  util::Backoff b(0.1, 10.0, 2);
  int differing = 0;
  for (int k = 0; k < 6; ++k)
    if (a.next_s() != b.next_s()) ++differing;
  EXPECT_GT(differing, 0);
}

// ------------------------------------------------------ crash reports --

TEST(CrashReport, WriteReportNowProducesParseableJson) {
  TempFile report;
  util::crash::Options opts;
  opts.report_path = report.path();
  opts.manifest_json = "{\"tool\":\"journal_test\",\"seed\":42}";
  ASSERT_TRUE(util::crash::install(opts));
  EXPECT_TRUE(util::crash::installed());

  const int slot = util::crash::inflight_claim(17, 12345);
  ASSERT_GE(slot, 0);
  // Ensure the recent-errors ring has something to render. The ring only
  // records errors once the listener is wired (CLIs do this at startup).
  obs::log::install_error_listener();
  util::notify_error(util::ErrorCode::kIo, util::Severity::kWarning,
                     "journal_test synthetic \"quoted\" warning");
  EXPECT_TRUE(util::crash::write_report_now("test"));
  util::crash::inflight_release(slot);
  util::crash::uninstall();
  EXPECT_FALSE(util::crash::installed());

  const std::string json = slurp(report.path());
  EXPECT_NE(json.find("\"reason\":\"test\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tool\":\"journal_test\""), std::string::npos);
  EXPECT_NE(json.find("\"backtrace\":["), std::string::npos);
  EXPECT_NE(json.find("\"pc\":\"0x"), std::string::npos);
  EXPECT_NE(json.find("\"inflight\":[{\"index\":17,\"start_ns\":12345}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("journal_test synthetic \\\"quoted\\\" warning"),
            std::string::npos);
}

TEST(CrashReport, BacktraceHasAtLeastThreeFrames) {
  TempFile report;
  util::crash::Options opts;
  opts.report_path = report.path();
  ASSERT_TRUE(util::crash::install(opts));
  ASSERT_TRUE(util::crash::write_report_now("depth_probe"));
  util::crash::uninstall();
  const std::string json = slurp(report.path());
  std::size_t frames = 0;
  for (std::size_t at = json.find("\"pc\":"); at != std::string::npos;
       at = json.find("\"pc\":", at + 1))
    ++frames;
  EXPECT_GE(frames, 3u) << json;
}

TEST(CrashReport, InflightRegistryClaimsReleasesAndSnapshots) {
  util::crash::Inflight snap[util::crash::kInflightSlots];
  const int before = util::crash::inflight_snapshot(
      snap, util::crash::kInflightSlots);

  const int s1 = util::crash::inflight_claim(100, 1);
  const int s2 = util::crash::inflight_claim(200, 2);
  ASSERT_GE(s1, 0);
  ASSERT_GE(s2, 0);
  EXPECT_NE(s1, s2);
  const int during = util::crash::inflight_snapshot(
      snap, util::crash::kInflightSlots);
  EXPECT_EQ(during, before + 2);
  bool saw100 = false, saw200 = false;
  for (int i = 0; i < during; ++i) {
    if (snap[i].index == 100) saw100 = true;
    if (snap[i].index == 200) saw200 = true;
  }
  EXPECT_TRUE(saw100);
  EXPECT_TRUE(saw200);

  util::crash::inflight_release(s1);
  util::crash::inflight_release(s2);
  EXPECT_EQ(util::crash::inflight_snapshot(snap, util::crash::kInflightSlots),
            before);
}

// The handler half: a fatal signal writes the report, restores the
// default disposition, and the process dies with the ORIGINAL signal —
// the parent sees 128+sig, not a swallowed error.
TEST(CrashReportDeathTest, FatalSignalWritesReportThenDiesWithSignal) {
  // "fastest" (fork) style: the child shares the parent's TempFile path,
  // so the parent can read the report the child's handler wrote.
  TempFile report;
  const std::string path = report.path();
  EXPECT_EXIT(
      {
        util::crash::Options opts;
        opts.report_path = path;
        opts.manifest_json = "{\"tool\":\"death_test\"}";
        util::crash::install(opts);
        std::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "");
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"reason\":\"SIGSEGV\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"signal\":11"), std::string::npos);
  EXPECT_NE(json.find("\"tool\":\"death_test\""), std::string::npos);
}

// --------------------------------------------------- process fault hooks --

TEST(FaultsProc, FlakyRaisesTypedIoExactlyNTimes) {
  faults::proc::arm_flaky_at_trace(5, 2);
  EXPECT_TRUE(faults::proc::armed());
  int raised = 0;
  for (int k = 0; k < 4; ++k) {
    try {
      faults::proc::on_trace_start(5);
    } catch (const util::Error& e) {
      EXPECT_EQ(e.code(), util::ErrorCode::kIo);
      ++raised;
    }
  }
  EXPECT_EQ(raised, 2);
  faults::proc::on_trace_start(4);  // other indices never fire
  faults::proc::disarm();
  EXPECT_FALSE(faults::proc::armed());
}

TEST(FaultsProc, ArmFromEnvParsesTheThreeHooks) {
  ::setenv("DCL_FLAKY_AT_TRACE", "3:1", 1);
  faults::proc::arm_from_env();
  ::unsetenv("DCL_FLAKY_AT_TRACE");
  EXPECT_TRUE(faults::proc::armed());
  EXPECT_THROW(faults::proc::on_trace_start(3), util::Error);
  faults::proc::on_trace_start(3);  // budget spent: no more raises
  faults::proc::disarm();

  // Unset environment arms nothing.
  faults::proc::arm_from_env();
  EXPECT_FALSE(faults::proc::armed());
}

TEST(FaultsProcDeathTest, CrashHookKillsTheProcess) {
  EXPECT_EXIT(
      {
        faults::proc::arm_crash_at_trace(2, faults::proc::CrashMode::kKill);
        faults::proc::on_trace_start(0);  // not the armed index: benign
        faults::proc::on_trace_start(2);
      },
      ::testing::KilledBySignal(SIGKILL), "");
}

}  // namespace
}  // namespace dcl::fleet::journal
