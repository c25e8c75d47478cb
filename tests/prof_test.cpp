// Tests for dcl::obs::prof — the signal-driven sampling CPU profiler.
//
// Every sampling test starts with prof::start(); on kernels or sandboxes
// where timer_create(CLOCK_PROCESS_CPUTIME_ID) is unavailable that returns
// false and the test GTEST_SKIPs (the production paths degrade the same
// way: a warning, no profile). The disabled-path tests never need a timer
// and always run.
#include "obs/prof.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <ctime>
#include <new>
#include <sstream>
#include <string>
#include <thread>

#include "obs/manifest.h"
#include "obs/obs.h"
#include "obs/serve.h"

// Process-wide allocation counter for the stage contracts: a disabled
// DCL_STAGE never allocates, a timed one only on its first exit. Only the
// scalar forms are replaced — counting is the point, not interception
// fidelity.
static std::atomic<std::uint64_t> g_allocs{0};

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dcl::obs {
namespace {

// libtsan intercepts sigaction and defers async signals to safe points,
// so under TSan SIGPROF arrives late and rarely — sample *counts* mean
// nothing there. The rate-sensitive tests skip; the concurrency test
// (the reason prof_test is in the TSan label set) still runs.
#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif

// Burns ~cpu_s seconds of process CPU time. clock() measures the same
// CLOCK_PROCESS_CPUTIME_ID the profiler's timer ticks on, so the expected
// sample count is cpu_s * hz regardless of scheduler stalls.
double spin_for_cpu(double cpu_s) {
  volatile double x = 1.0;
  const std::clock_t start = std::clock();
  while (static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC < cpu_s)
    for (int i = 0; i < 20000; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

std::uint64_t samples_tagged(const prof::Profile& p, const char* tag) {
  std::uint64_t n = 0;
  for (const auto& s : p.stacks)
    if (std::string(s.tag) == tag) n += s.count;
  return n;
}

TEST(Prof, StartStopIdempotent) {
  prof::Options o;
  o.hz = 200;
  if (!prof::start(o)) GTEST_SKIP() << "timer_create unavailable";
  EXPECT_TRUE(prof::running());
  EXPECT_FALSE(prof::start(o));  // one session at a time
  EXPECT_TRUE(prof::running());  // the losing start didn't break it
  prof::stop();
  EXPECT_FALSE(prof::running());
  prof::stop();  // idempotent
  EXPECT_FALSE(prof::running());
  // A restart opens a fresh session on the same process-lifetime state.
  ASSERT_TRUE(prof::start(o));
  EXPECT_TRUE(prof::running());
  prof::stop();
}

TEST(Prof, SpinLoopAttributesToInnermostSpan) {
  if (kTsan) GTEST_SKIP() << "SIGPROF deferred under TSan";
  prof::Options o;
  o.hz = 500;
  if (!prof::start(o)) GTEST_SKIP() << "timer_create unavailable";
  {
    DCL_STAGE("prof_test.outer");  // enclosing stage: must NOT be charged
    DCL_STAGE("prof_test.spin");
    spin_for_cpu(0.4);
  }
  prof::stop();
  const prof::Profile p = prof::snapshot();
  // 0.4 CPU-seconds at 500 Hz is ~200 expected samples; demand a fraction
  // of that so a loaded CI box cannot starve the test into flaking.
  ASSERT_GT(p.total_samples, 20u) << "sampler produced almost no samples";
  const std::uint64_t spin = samples_tagged(p, "prof_test.spin");
  EXPECT_GE(static_cast<double>(spin),
            0.8 * static_cast<double>(p.total_samples))
      << spin << " of " << p.total_samples
      << " samples tagged prof_test.spin";
  // Self-CPU semantics: the enclosing span gets only its own (zero) work.
  EXPECT_EQ(samples_tagged(p, "prof_test.outer"), 0u);
  // The per-stage table agrees with the fold and carries seconds.
  bool found = false;
  for (const auto& [stage, secs] : p.self_cpu) {
    if (stage != "prof_test.spin") continue;
    found = true;
    EXPECT_NEAR(secs, static_cast<double>(spin) / p.hz, 1e-9);
  }
  EXPECT_TRUE(found);
}

TEST(Prof, CollapsedStacksParseBackToSampleCounts) {
  if (kTsan) GTEST_SKIP() << "SIGPROF deferred under TSan";
  prof::Options o;
  o.hz = 500;
  if (!prof::start(o)) GTEST_SKIP() << "timer_create unavailable";
  {
    DCL_STAGE("prof_test.collapse");
    spin_for_cpu(0.2);
  }
  prof::stop();
  const prof::Profile p = prof::snapshot();
  ASSERT_GT(p.total_samples, 0u);
  auto man = manifest("prof_test");
  const std::string text = prof::to_collapsed(p, &man);

  // flamegraph.pl grammar: '#' comments, then "frame;frame;... N" lines.
  std::istringstream is(text);
  std::string line;
  bool saw_manifest = false;
  std::uint64_t total = 0;
  std::size_t stack_lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      saw_manifest = saw_manifest ||
                     line.find("\"tool\": \"prof_test\"") != std::string::npos;
      continue;
    }
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << "no count field: " << line;
    ASSERT_LT(sp + 1, line.size());
    total += std::strtoull(line.c_str() + sp + 1, nullptr, 10);
    // Stage tag as a synthetic "[stage]" root frame; no stray separators
    // inside frames (escaped at export).
    EXPECT_EQ(line[0], '[') << line;
    EXPECT_EQ(line.substr(0, sp).find(' '), std::string::npos) << line;
    ++stack_lines;
  }
  EXPECT_TRUE(saw_manifest);
  EXPECT_GT(stack_lines, 0u);
  EXPECT_EQ(total, p.total_samples);  // the export loses no samples
}

TEST(Prof, SpeedscopeExportCarriesManifestAndSelfCpu) {
  if (kTsan) GTEST_SKIP() << "SIGPROF deferred under TSan";
  prof::Options o;
  o.hz = 500;
  if (!prof::start(o)) GTEST_SKIP() << "timer_create unavailable";
  {
    DCL_STAGE("prof_test.speedscope");
    spin_for_cpu(0.1);
  }
  prof::stop();
  auto man = manifest("prof_test");
  const std::string json = prof::to_speedscope(prof::snapshot(), &man);
  EXPECT_NE(json.find("speedscope.app/file-format-schema.json"),
            std::string::npos);
  EXPECT_NE(json.find("\"dcl_manifest\""), std::string::npos);
  EXPECT_NE(json.find("\"dcl_self_cpu\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"sampled\""), std::string::npos);
  EXPECT_NE(json.find("[prof_test.speedscope]"), std::string::npos);
}

TEST(Prof, DisabledTagPushIsAllocationFree) {
  ASSERT_FALSE(prof::running());
  ASSERT_FALSE(enabled());
  ASSERT_FALSE(trace::enabled());
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; ++i) {
    DCL_STAGE("prof_test.zeroalloc");
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before)
      << "disabled DCL_STAGE allocated";
}

// With metrics on, only a stage's first exit looks up (and names) its
// span.<name> histogram; every later exit records through the cached
// handle. The name is past the short-string buffer, so building
// "span.<name>" on an exit would allocate.
TEST(Prof, TimedStageAllocatesOnlyOnFirstExit) {
  const bool was = enabled();
  set_enabled(true);
  std::uint64_t after_first = 0;
  for (int i = 0; i < 1000; ++i) {
    { DCL_STAGE("prof_test.timed_stage"); }
    if (i == 0) after_first = g_allocs.load(std::memory_order_relaxed);
  }
  const std::uint64_t after_all = g_allocs.load(std::memory_order_relaxed);
  set_enabled(was);
  EXPECT_EQ(after_all, after_first) << "timed DCL_STAGE allocated on exit";
  EXPECT_GE(Registry::global().histogram("span.prof_test.timed_stage").count(),
            1000u);
}

// The TSan target: samples stream into the per-thread rings from the
// SIGPROF handler while /metrics and /statusz drain and publish them
// from a scraper thread, and a worker thread pushes/pops tags throughout.
TEST(Prof, ConcurrentCaptureWhileMetricsScrape) {
  prof::Options o;
  o.hz = 500;
  if (!prof::start(o)) GTEST_SKIP() << "timer_create unavailable";

  Registry reg;
  serve::Options sopts;
  sopts.registry = &reg;
  sopts.manifest = manifest("prof_test");
  auto server = serve::Server::start(std::move(sopts));
  ASSERT_NE(server, nullptr);

  std::atomic<bool> done{false};
  std::thread worker([&] {
    DCL_STAGE("prof_test.concurrent");
    while (!done.load(std::memory_order_acquire)) spin_for_cpu(0.01);
  });
  std::thread scraper([&] {
    std::string ct, body;
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(server->handle("/metrics", ct, body), 200);
      EXPECT_EQ(server->handle("/statusz", ct, body), 200);
    }
  });
  // A /profilez hit while a session is already running snapshots it
  // instead of restarting: no deadline wait, immediate 200.
  std::string ct, body;
  EXPECT_EQ(server->handle("/profilez?seconds=30&hz=10", ct, body), 200);
  EXPECT_EQ(ct, "application/json");
  EXPECT_NE(body.find("\"dcl_self_cpu\""), std::string::npos);
  EXPECT_TRUE(prof::running());  // ... and it left the session running

  spin_for_cpu(0.2);
  scraper.join();
  done.store(true, std::memory_order_release);
  worker.join();
  server->stop();
  prof::stop();

  const prof::Profile p = prof::snapshot();
  if (!kTsan) {  // deferred delivery makes counts unreliable under TSan
    EXPECT_GT(p.total_samples, 0u);
    EXPECT_GT(samples_tagged(p, "prof_test.concurrent"), 0u);
  }
  // After stop, publishing lands prof.* metrics in the registry.
  prof::publish_self_cpu(reg);
  if (!kTsan) {
    EXPECT_GT(reg.counter("prof.samples").value(), 0u);
  }
}

}  // namespace
}  // namespace dcl::obs
