// dcl::obs — lightweight observability primitives for the dclid libraries.
//
// A Registry holds named Counters, Gauges, and log-scale Histograms with
// thread-safe (atomic, relaxed) updates; metric handles returned by the
// registry stay valid for the registry's lifetime, so hot paths look up a
// metric once and update it lock-free afterwards. Exporters produce a JSON
// document or Prometheus text from a consistent point-in-time snapshot.
//
// DCL_STAGE(name) marks the enclosing scope as one named stage of the
// analysis on all three observability surfaces at once: a profiler tag
// (obs/prof.h), a flight-recorder scope (obs/trace.h) and a `span.<name>`
// wall-time histogram in Registry::global(). One macro names the stage
// once, so /metrics, /tracez and /profilez speak the same vocabulary.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/prof.h"
#include "obs/trace.h"

namespace dcl::obs {

struct RunManifest;

namespace window {
class WindowedCounter;
class WindowedHistogram;
}  // namespace window

// Global on/off switch for stage timing (counters and gauges are plain
// atomics and always live). Disabled by default. Inline, like
// trace::enabled(), so a disabled stage pays a load and a branch.
namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  // Overwrite — used by exporters that mirror externally-kept counts
  // (e.g. simulator queue accounting) into a registry idempotently.
  void set(std::uint64_t n) { v_.store(n, std::memory_order_relaxed); }
  void reset() { set(0); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Last-written value plus a running maximum (for high-water marks).
class Gauge {
 public:
  void set(double x);
  // Raises the running maximum (and the value) to at least `x`.
  void update_max(double x);
  void reset();
  double value() const { return v_.load(std::memory_order_relaxed); }
  // Largest value ever set (also for negative-valued gauges such as log
  // likelihoods); -inf until the first write.
  double max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// Log-scale histogram over positive values (durations in seconds, sizes,
// counts). Bucket i spans (kBase * 2^(i-1), kBase * 2^i]; values at or
// below kBase land in bucket 0, values beyond the last boundary in the
// overflow bucket. Also tracks count/sum/min/max exactly.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;
  static constexpr double kBase = 1e-9;

  void record(double x);
  // Same, with the bucket precomputed via bucket_index(x) — lets wrappers
  // that also bin `x` elsewhere (obs/window.h) pay for log2 once.
  void record(double x, std::size_t bucket);
  // Bucket that record(x) increments.
  static std::size_t bucket_index(double x);
  void reset();

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  double mean() const;

  // Upper bound of bucket i.
  static double bucket_upper(std::size_t i);
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Quantile estimate from the bucket boundaries (q in [0, 1]); an upper
  // bound accurate to one octave. 0 when empty.
  double quantile(double q) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// Point-in-time copy of a registry, used by the exporters and tests.
struct Snapshot {
  // Last-window view of a windowed instrument (obs/window.h): counts and
  // rates over the most recent kWindowEpochs epochs; quantiles only for
  // histograms. The cumulative twin appears under the same name in
  // `counters` / `histograms`.
  struct WindowData {
    std::string name;
    bool is_histogram = false;
    std::uint64_t count = 0;
    double rate = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  struct HistogramData {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    // Non-empty buckets as (upper_bound, count) pairs.
    std::vector<std::pair<double, std::uint64_t>> buckets;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, double>> gauge_maxima;
  std::vector<HistogramData> histograms;
  std::vector<WindowData> windows;
};

class Registry {
 public:
  // Out-of-line (obs.cpp): the windowed-instrument maps hold unique_ptrs
  // of types this header only forward-declares.
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Find-or-create; the returned reference is stable for the registry's
  // lifetime (metrics are never removed, reset() only zeroes them).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  // Windowed twins (obs/window.h): wrap the cumulative counter/histogram
  // of the same name (created on demand), adding last-minute rates and
  // quantiles to the snapshot's `windows` and the Prometheus exposition.
  window::WindowedCounter& windowed_counter(std::string_view name);
  window::WindowedHistogram& windowed_histogram(std::string_view name);

  Snapshot snapshot() const;
  // Pretty-printed JSON object {"counters": {...}, "gauges": {...},
  // "histograms": {...}}.
  std::string to_json() const;
  // Same document with a leading "manifest" key, so metric exports are
  // provenance-stamped (see obs/manifest.h).
  std::string to_json(const RunManifest& manifest) const;
  // Prometheus text exposition (version 0.0.4): counters and gauges map
  // directly (a gauge additionally exports `<name>_max`), histograms map to
  // prometheus histograms with cumulative `_bucket{le="..."}` counts, a
  // `+Inf` bucket, `_sum`, and `_count`. Metric names are sanitized to
  // [a-zA-Z_:][a-zA-Z0-9_:]* with the original name kept in a `dcl_name`
  // label when sanitization changed it. Every family carries `# HELP` and
  // `# TYPE` lines; windowed instruments additionally export last-window
  // gauges (`<name>_w_count`, `_w_rate`, and `_w_p50/_w_p95/_w_p99` for
  // histograms).
  std::string to_prometheus() const;
  // Same exposition preceded by a `dcl_build_info` gauge carrying the run
  // provenance (git, version, compiler, build type, config digest, tool)
  // as escaped labels with value 1 — the canonical join key for dashboards.
  std::string to_prometheus(const RunManifest& manifest) const;

  // Zeroes every metric (handles stay valid).
  void reset();

  // Process-wide default registry used by DCL_STAGE and the CLI exporter.
  static Registry& global();

 private:
  Counter& counter_locked(std::string_view name);
  Histogram& histogram_locked(std::string_view name);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<window::WindowedCounter>, std::less<>>
      windowed_counters_;
  std::map<std::string, std::unique_ptr<window::WindowedHistogram>,
           std::less<>>
      windowed_histograms_;
};

// Static descriptor of one DCL_STAGE site, constant-initialized by the
// macro: the stage name and, from the first timed exit on, the handle of
// its `span.<name>` windowed histogram in Registry::global().
struct StageSite {
  const char* name;
  std::atomic<window::WindowedHistogram*> hist{nullptr};
};

// One stage scope. Construction pushes the profiler tag (always: the
// innermost tag is what a sample's self-CPU is charged to), opens a trace
// scope when the flight recorder is running (decided here, so a session
// stopping mid-scope never gets an unmatched end) and starts the clock
// when obs::enabled(). Destruction undoes the three in reverse order. With
// all three surfaces off a stage is the tag push and pop plus two relaxed
// flag loads and their branches, all inline, and never allocates
// (BM_StageDisabled); the enabled work stays out of line, so each site
// adds little code to its caller.
class Stage {
 public:
  explicit Stage(StageSite& site, double value = 0.0) : site_(&site) {
    prof::push_tag(site.name);
    if (trace::enabled() || enabled()) opened_ = open(site, value);
  }
  ~Stage() {
    if (opened_.traced || opened_.start_ns != 0) close(*site_, opened_);
    prof::pop_tag();
  }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  // What open() turned on. Passed by value, so the stage object never
  // escapes and a disabled stage keeps its state in registers.
  struct Opened {
    std::uint64_t start_ns = 0;  // 0: not timed
    bool traced = false;
  };
  static Opened open(const StageSite& site, double value);
  // Records into `span.<name>`: only a site's first timed exit looks the
  // histogram up (and allocates its name).
  static void close(StageSite& site, Opened opened);

  StageSite* site_;
  Opened opened_;
};

// Escapes `s` for inclusion in a JSON string literal (quotes not added).
std::string json_escape(std::string_view s);
// Formats a double as a JSON number (finite; non-finite becomes 0).
std::string json_number(double x);

}  // namespace dcl::obs

#define DCL_OBS_CONCAT_INNER(a, b) a##b
#define DCL_OBS_CONCAT(a, b) DCL_OBS_CONCAT_INNER(a, b)
// Marks the enclosing scope as stage `name` (a string literal or other
// constant expression) on the profiler, the flight recorder and the
// `span.<name>` histogram. DCL_STAGE_V also exports `value` as the trace
// scope's args {"v": value} (restart, chunk or trace index).
#define DCL_STAGE_V(name, value)                                        \
  static constinit ::dcl::obs::StageSite DCL_OBS_CONCAT(dcl_stage_site_, \
                                                        __LINE__){name}; \
  ::dcl::obs::Stage DCL_OBS_CONCAT(dcl_stage_, __LINE__)(               \
      DCL_OBS_CONCAT(dcl_stage_site_, __LINE__), value)
#define DCL_STAGE(name) DCL_STAGE_V(name, 0.0)
