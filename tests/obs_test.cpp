// Tests for the dcl::obs observability layer: counter/gauge/histogram
// semantics, span timing, concurrent updates, and the JSON and Prometheus
// exporters (including a parse-back of the JSON snapshot with a minimal
// validating parser).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "obs/window.h"
#include "util/error.h"

namespace dcl::obs {
namespace {

// ---- minimal JSON parser (objects, arrays, strings, numbers, bools) ----
// Just enough to validate the exporter's output structurally and read
// numeric leaves back out.
struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;
struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v;
  const JsonObject& obj() const { return std::get<JsonObject>(v); }
  const JsonArray& arr() const { return std::get<JsonArray>(v); }
  double num() const { return std::get<double>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string s) : s_(std::move(s)) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    EXPECT_EQ(i_, s_.size()) << "trailing garbage after JSON document";
    return v;
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  char peek() {
    skip_ws();
    EXPECT_LT(i_, s_.size()) << "unexpected end of JSON";
    return i_ < s_.size() ? s_[i_] : '\0';
  }
  void expect(char c) {
    EXPECT_EQ(peek(), c) << "at offset " << i_;
    ++i_;
  }
  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't': i_ += 4; return JsonValue{true};
      case 'f': i_ += 5; return JsonValue{false};
      case 'n': i_ += 4; return JsonValue{nullptr};
      default: return number();
    }
  }
  JsonValue object() {
    expect('{');
    JsonObject out;
    if (peek() == '}') { ++i_; return JsonValue{std::move(out)}; }
    while (true) {
      std::string key = string();
      expect(':');
      out.emplace(std::move(key), value());
      if (peek() == ',') { ++i_; continue; }
      expect('}');
      break;
    }
    return JsonValue{std::move(out)};
  }
  JsonValue array() {
    expect('[');
    JsonArray out;
    if (peek() == ']') { ++i_; return JsonValue{std::move(out)}; }
    while (true) {
      out.push_back(value());
      if (peek() == ',') { ++i_; continue; }
      expect(']');
      break;
    }
    return JsonValue{std::move(out)};
  }
  std::string string() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        EXPECT_LT(i_, s_.size());
        switch (s_[i_]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': i_ += 4; out += '?'; break;  // tests don't need exact
          default: out += s_[i_];
        }
      } else {
        out += s_[i_];
      }
      ++i_;
    }
    expect('"');
    return out;
  }
  JsonValue number() {
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '-' ||
            s_[i_] == '+' || s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E'))
      ++i_;
    EXPECT_GT(i_, start) << "expected a number at offset " << start;
    return JsonValue{std::stod(s_.substr(start, i_ - start))};
  }

  const std::string s_;
  std::size_t i_ = 0;
};

// ------------------------------------------------------------------------

TEST(Counter, AddSetReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.set(7);
  EXPECT_EQ(c.value(), 7u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, TracksValueAndMax) {
  Gauge g;
  g.set(3.5);
  g.set(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  EXPECT_DOUBLE_EQ(g.max(), 3.5);
  g.update_max(0.5);  // below the current value: no effect
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  g.update_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  EXPECT_DOUBLE_EQ(g.max(), 9.0);
}

TEST(Histogram, CountSumMinMaxMean) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  h.record(0.002);
  h.record(0.004);
  h.record(0.030);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum(), 0.036, 1e-12);
  EXPECT_DOUBLE_EQ(h.min(), 0.002);
  EXPECT_DOUBLE_EQ(h.max(), 0.030);
  EXPECT_NEAR(h.mean(), 0.012, 1e-12);
}

TEST(Histogram, LogBucketsCoverValues) {
  Histogram h;
  const std::vector<double> xs{1e-9, 1e-6, 1e-3, 1.0, 100.0};
  for (double x : xs) h.record(x);
  // Every recorded value lands in a bucket whose upper bound covers it.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
    total += h.bucket_count(i);
  EXPECT_EQ(total, xs.size());
  // Quantiles are monotone and bounded by the true max.
  EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
  EXPECT_LE(h.quantile(1.0), h.max());
  EXPECT_GT(h.quantile(0.01), 0.0);
}

TEST(Histogram, QuantileInterpolatesAtLogMidpoint) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.record(0.6e-3);
  for (int i = 0; i < 50; ++i) h.record(1.0e-3);
  // Both values land in the same octave bucket ((2^19, 2^20] ns); the
  // quantile reports its log-midpoint (upper / sqrt(2)) instead of the
  // upper edge, which biased every quantile high by up to 2x.
  EXPECT_NEAR(h.quantile(0.5), 1.048576e-3 / std::sqrt(2.0), 1e-9);
  EXPECT_LT(h.quantile(0.5), h.max());
  // A single-valued histogram clamps the midpoint to [min, max]: exact.
  Histogram g;
  for (int i = 0; i < 10; ++i) g.record(2.5e-3);
  EXPECT_DOUBLE_EQ(g.quantile(0.5), 2.5e-3);
  EXPECT_DOUBLE_EQ(g.quantile(0.99), 2.5e-3);
}

TEST(Registry, HandlesAreStableAndNamed) {
  Registry reg;
  Counter& a = reg.counter("a");
  Counter& a2 = reg.counter("a");
  EXPECT_EQ(&a, &a2);  // find-or-create returns the same metric
  a.add(3);
  EXPECT_EQ(reg.counter("a").value(), 3u);
  reg.gauge("g").set(1.25);
  reg.histogram("h").record(0.5);
  const Snapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].first, "a");
  EXPECT_EQ(s.counters[0].second, 3u);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].second, 1.25);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].count, 1u);
  reg.reset();
  EXPECT_EQ(reg.counter("a").value(), 0u);
  EXPECT_EQ(&reg.counter("a"), &a);  // reset keeps handles valid
}

TEST(Registry, ConcurrentIncrementsAreLossless) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      Counter& c = reg.counter("shared");
      Histogram& h = reg.histogram("durations");
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(1e-6 * (1 + i % 10));
        reg.gauge("hwm").update_max(static_cast<double>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.histogram("durations").count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(reg.gauge("hwm").max(), kPerThread - 1);
}

// A stage's timing lands in the global registry's span.<name> histogram;
// these tests read deltas, since other tests may feed the same registry.
std::uint64_t span_count(const char* stage) {
  return Registry::global().histogram(std::string("span.") + stage).count();
}

TEST(Span, RecordsScopeDurationIntoRegistry) {
  const bool was = enabled();
  set_enabled(true);
  const std::uint64_t before = span_count("obs_test.stage");
  const double sum_before =
      Registry::global().histogram("span.obs_test.stage").sum();
  {
    DCL_STAGE("obs_test.stage");
    // Do a little work so the duration is strictly positive.
    volatile double x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  set_enabled(was);
  EXPECT_EQ(span_count("obs_test.stage"), before + 1);
  EXPECT_GT(Registry::global().histogram("span.obs_test.stage").sum(),
            sum_before);
  // The windowed twin saw the same exit.
  EXPECT_GE(Registry::global()
                .windowed_histogram("span.obs_test.stage")
                .window()
                .count,
            1u);
}

TEST(Span, InactiveWhenDisabled) {
  const bool was = enabled();
  set_enabled(false);
  const std::uint64_t before = span_count("obs_test.idle");
  { DCL_STAGE("obs_test.idle"); }
  EXPECT_EQ(span_count("obs_test.idle"), before);
  set_enabled(was);
}

TEST(Span, GlobalRegistryViaMacroWhenEnabled) {
  const bool was = enabled();
  set_enabled(true);
  const std::uint64_t before = span_count("macro_stage");
  // Every exit of a site counts, and two sites of one name share the
  // histogram.
  for (int i = 0; i < 3; ++i) {
    DCL_STAGE("macro_stage");
  }
  { DCL_STAGE("macro_stage"); }
  EXPECT_EQ(span_count("macro_stage"), before + 4);
  set_enabled(was);
}

TEST(JsonExport, SnapshotRoundTrips) {
  Registry reg;
  reg.counter("em.iterations").add(123);
  reg.counter("weird \"name\"\n").add(1);
  reg.gauge("queue.hwm").set(4096.0);
  Histogram& h = reg.histogram("span.fit");
  h.record(0.001);
  h.record(0.002);
  h.record(0.5);

  const std::string json = reg.to_json();
  JsonParser parser(json);
  const JsonValue doc = parser.parse();

  const auto& root = doc.obj();
  ASSERT_TRUE(root.count("counters"));
  ASSERT_TRUE(root.count("gauges"));
  ASSERT_TRUE(root.count("histograms"));

  const auto& counters = root.at("counters").obj();
  EXPECT_DOUBLE_EQ(counters.at("em.iterations").num(), 123.0);
  EXPECT_EQ(counters.size(), 2u);  // escaped name survived as its own key

  const auto& gauges = root.at("gauges").obj();
  EXPECT_DOUBLE_EQ(gauges.at("queue.hwm").obj().at("value").num(), 4096.0);
  EXPECT_DOUBLE_EQ(gauges.at("queue.hwm").obj().at("max").num(), 4096.0);

  const auto& hist = root.at("histograms").obj().at("span.fit").obj();
  EXPECT_DOUBLE_EQ(hist.at("count").num(), 3.0);
  EXPECT_NEAR(hist.at("sum").num(), 0.503, 1e-9);
  EXPECT_DOUBLE_EQ(hist.at("min").num(), 0.001);
  EXPECT_DOUBLE_EQ(hist.at("max").num(), 0.5);
  // Bucket counts add up to the sample count.
  double bucket_total = 0;
  for (const auto& b : hist.at("buckets").arr())
    bucket_total += b.obj().at("count").num();
  EXPECT_DOUBLE_EQ(bucket_total, 3.0);
}

TEST(JsonExport, EmptyRegistryIsValid) {
  Registry reg;
  JsonParser parser(reg.to_json());
  const JsonValue doc = parser.parse();
  EXPECT_TRUE(doc.obj().at("counters").obj().empty());
  EXPECT_TRUE(doc.obj().at("gauges").obj().empty());
  EXPECT_TRUE(doc.obj().at("histograms").obj().empty());
}

// Splits Prometheus exposition text into {"name{labels}" -> value} plus
// the `# TYPE <name> <kind>` and `# HELP <name> <text>` declarations seen.
struct PromText {
  std::map<std::string, std::string> samples;
  std::map<std::string, std::string> types;
  std::map<std::string, std::string> helps;
};

PromText parse_prometheus(const std::string& text) {
  PromText out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t sp = line.rfind(' ');
      out.types[line.substr(7, sp - 7)] = line.substr(sp + 1);
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) {
      const std::size_t sp = line.find(' ', 7);
      EXPECT_NE(sp, std::string::npos) << "HELP without text: " << line;
      if (sp != std::string::npos)
        out.helps[line.substr(7, sp - 7)] = line.substr(sp + 1);
      continue;
    }
    EXPECT_NE(line[0], '#') << "unexpected comment: " << line;
    const std::size_t sp = line.rfind(' ');
    EXPECT_NE(sp, std::string::npos) << "sample without value: " << line;
    if (sp == std::string::npos) continue;
    out.samples[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return out;
}

TEST(PrometheusExport, SanitizesNamesAndLabelsOriginals) {
  Registry reg;
  reg.counter("em.iterations").add(123);
  reg.counter("plain_total").add(1);
  reg.gauge("queue.hwm").set(2.0);
  reg.gauge("queue.hwm").set(1.0);  // value drops, max stays

  const PromText prom = parse_prometheus(reg.to_prometheus());
  // Dots become underscores and the original survives as a label; names
  // that were already legal carry no label.
  EXPECT_EQ(prom.samples.at("em_iterations{dcl_name=\"em.iterations\"}"),
            "123");
  EXPECT_EQ(prom.samples.at("plain_total"), "1");
  EXPECT_EQ(prom.types.at("em_iterations"), "counter");
  EXPECT_EQ(prom.types.at("plain_total"), "counter");
  EXPECT_EQ(prom.samples.at("queue_hwm{dcl_name=\"queue.hwm\"}"), "1");
  EXPECT_EQ(prom.samples.at("queue_hwm_max{dcl_name=\"queue.hwm\"}"), "2");
  EXPECT_EQ(prom.types.at("queue_hwm"), "gauge");
  EXPECT_EQ(prom.types.at("queue_hwm_max"), "gauge");
}

TEST(PrometheusExport, LeadingDigitGetsUnderscorePrefix) {
  Registry reg;
  reg.counter("9p99 latency").add(7);
  const PromText prom = parse_prometheus(reg.to_prometheus());
  EXPECT_EQ(prom.samples.at("_9p99_latency{dcl_name=\"9p99 latency\"}"), "7");
}

TEST(PrometheusExport, HistogramBucketsAreCumulative) {
  Registry reg;
  Histogram& h = reg.histogram("span.fit");
  h.record(0.001);
  h.record(0.002);
  h.record(0.5);

  const std::string text = reg.to_prometheus();
  const PromText prom = parse_prometheus(text);
  EXPECT_EQ(prom.types.at("span_fit"), "histogram");
  // Buckets appear in the emitted order with non-decreasing cumulative
  // counts, ending at an +Inf bucket equal to the total count.
  double prev = 0.0;
  std::size_t buckets = 0;
  std::size_t pos = 0;
  while ((pos = text.find("span_fit_bucket{", pos)) != std::string::npos) {
    const std::size_t sp = text.rfind(' ', text.find('\n', pos));
    const double cum = std::stod(text.substr(sp + 1));
    EXPECT_GE(cum, prev) << "cumulative bucket counts must not decrease";
    prev = cum;
    ++buckets;
    ++pos;
  }
  EXPECT_GT(buckets, 1u);
  EXPECT_EQ(
      prom.samples.at("span_fit_bucket{dcl_name=\"span.fit\",le=\"+Inf\"}"),
      "3");
  EXPECT_DOUBLE_EQ(prev, 3.0);  // the +Inf bucket is emitted last
  EXPECT_NEAR(
      std::stod(prom.samples.at("span_fit_sum{dcl_name=\"span.fit\"}")), 0.503,
      1e-9);
  EXPECT_EQ(prom.samples.at("span_fit_count{dcl_name=\"span.fit\"}"), "3");
}

TEST(ManifestExport, JsonEmbedsManifestAsFirstKey) {
  Registry reg;
  reg.counter("c").add(2);
  RunManifest m = manifest("obs_test");
  m.seed = 5;
  m.config_digest = digest_hex("config text");
  m.add("scenario", "unit");

  const std::string json = reg.to_json(m);
  JsonParser parser(json);
  const JsonValue doc = parser.parse();
  const auto& root = doc.obj();
  const auto& man = root.at("manifest").obj();
  EXPECT_EQ(std::get<std::string>(man.at("tool").v), "obs_test");
  EXPECT_DOUBLE_EQ(man.at("seed").num(), 5.0);
  EXPECT_FALSE(std::get<std::string>(man.at("hostname").v).empty());
  EXPECT_FALSE(std::get<std::string>(man.at("wall_time_utc").v).empty());
  EXPECT_EQ(std::get<std::string>(man.at("config").obj().at("scenario").v),
            "unit");
  EXPECT_EQ(std::get<std::string>(man.at("config_digest").v).size(), 16u);
  // The metric body is still intact around the spliced manifest.
  EXPECT_DOUBLE_EQ(root.at("counters").obj().at("c").num(), 2.0);
}

TEST(ManifestExport, DigestIsDeterministic) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(digest_hex("abc"), digest_hex("abc"));
  EXPECT_NE(digest_hex("abc"), digest_hex("abd"));
  EXPECT_EQ(digest_hex("abc").size(), 16u);
}

// ---- windowed instruments (obs/window.h) -------------------------------

TEST(WindowedCounter, SharesCumulativeAndWindows) {
  Registry reg;
  auto& wc = reg.windowed_counter("req");
  wc.add(3);
  wc.add(2);
  // The cumulative twin is the registry counter of the same name.
  EXPECT_EQ(reg.counter("req").value(), 5u);
  const auto v = wc.window();
  EXPECT_EQ(v.count, 5u);
  EXPECT_GT(v.rate, 0.0);
}

TEST(WindowedCounter, OldEpochsLeaveTheWindow) {
  Registry reg;
  auto& wc = reg.windowed_counter("req");
  wc.add(7);
  // Force the full window past the epoch the samples landed in.
  window::advance(window::kWindowEpochs);
  EXPECT_EQ(wc.window().count, 0u);
  EXPECT_EQ(reg.counter("req").value(), 7u);  // cumulative unaffected
  wc.add(1);
  EXPECT_EQ(wc.window().count, 1u);
}

TEST(WindowedCounter, PartialRotationKeepsRecentEpochs) {
  Registry reg;
  auto& wc = reg.windowed_counter("req");
  wc.add(4);
  window::advance(1);
  wc.add(6);
  const auto v = wc.window();
  EXPECT_EQ(v.count, 10u);  // both epochs inside the window
}

TEST(WindowedHistogram, QuantilesTrackTheWindowOnly) {
  Registry reg;
  auto& wh = reg.windowed_histogram("lat");
  for (int i = 0; i < 100; ++i) wh.record(1e-3);
  {
    const auto v = wh.window();
    EXPECT_EQ(v.count, 100u);
    // Octave-accurate at the bucket's log-midpoint: within a factor of
    // sqrt(2) of the true value on either side.
    EXPECT_GE(v.p50, 1e-3 / std::sqrt(2.0));
    EXPECT_LE(v.p50, 2.1e-3);
    EXPECT_GE(v.p99, 1e-3 / std::sqrt(2.0));
  }
  window::advance(window::kWindowEpochs);
  for (int i = 0; i < 10; ++i) wh.record(1.0);  // much slower now
  const auto v = wh.window();
  EXPECT_EQ(v.count, 10u);
  EXPECT_GE(v.p50, 0.5);  // the old fast samples aged out
  // Cumulative twin still holds everything.
  EXPECT_EQ(reg.histogram("lat").count(), 110u);
}

TEST(WindowedHistogram, ResetWindowClearsEpochsOnly) {
  Registry reg;
  auto& wh = reg.windowed_histogram("lat");
  wh.record(0.5);
  wh.reset_window();
  EXPECT_EQ(wh.window().count, 0u);
  EXPECT_EQ(reg.histogram("lat").count(), 1u);
}

TEST(WindowedInstruments, AppearInSnapshotAndJson) {
  Registry reg;
  reg.windowed_counter("req").add(2);
  reg.windowed_histogram("lat").record(0.01);
  const Snapshot s = reg.snapshot();
  ASSERT_EQ(s.windows.size(), 2u);
  bool saw_counter = false, saw_histogram = false;
  for (const auto& w : s.windows) {
    if (w.name == "req" && !w.is_histogram && w.count == 2) saw_counter = true;
    if (w.name == "lat" && w.is_histogram && w.count == 1)
      saw_histogram = true;
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_histogram);

  JsonParser parser(reg.to_json());
  const JsonValue doc = parser.parse();
  const auto& windows = doc.obj().at("windows").obj();
  EXPECT_DOUBLE_EQ(windows.at("req").obj().at("count").num(), 2.0);
  EXPECT_DOUBLE_EQ(windows.at("lat").obj().at("count").num(), 1.0);
  EXPECT_GT(windows.at("lat").obj().at("p50").num(), 0.0);
  // Counter windows carry no quantiles.
  EXPECT_EQ(windows.at("req").obj().count("p50"), 0u);
}

TEST(WindowedInstruments, ConcurrentRecordAndSnapshot) {
  Registry reg;
  auto& wh = reg.windowed_histogram("lat");
  auto& wc = reg.windowed_counter("req");
  std::atomic<bool> stop{false};
  // The writer records at least once: on a loaded host it may not be
  // scheduled before the snapshot loop below finishes and stops it.
  std::thread writer([&] {
    do {
      wh.record(1e-4);
      wc.add(1);
    } while (!stop.load(std::memory_order_relaxed));
  });
  std::thread rotator([&] {
    for (int i = 0; i < 50; ++i) window::advance(1);
  });
  for (int i = 0; i < 50; ++i) {
    const Snapshot s = reg.snapshot();
    for (const auto& w : s.windows) EXPECT_GE(w.rate, 0.0);
    (void)reg.to_prometheus();
  }
  rotator.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  // Cumulative twins keep every sample even under racing epoch rotation
  // (only *window* attribution is lossy by contract).
  EXPECT_GT(reg.counter("req").value(), 0u);
  EXPECT_GT(reg.histogram("lat").count(), 0u);
}

// ---- Prometheus exposition: HELP/TYPE, windows, build_info -------------

TEST(PrometheusExport, EveryFamilyCarriesHelpAndType) {
  Registry reg;
  reg.counter("em.iterations").add(1);
  reg.gauge("queue.hwm").set(1.0);
  reg.histogram("span.fit").record(0.01);
  reg.windowed_counter("req").add(1);
  const PromText prom = parse_prometheus(reg.to_prometheus());
  for (const auto& [name, type] : prom.types)
    EXPECT_EQ(prom.helps.count(name), 1u) << "family without HELP: " << name;
  for (const auto& [name, help] : prom.helps)
    EXPECT_FALSE(help.empty()) << "empty HELP for " << name;
}

TEST(PrometheusExport, WindowedGaugesAccompanyCumulative) {
  Registry reg;
  reg.windowed_counter("req").add(4);
  reg.windowed_histogram("span.fit").record(0.01);
  const PromText prom = parse_prometheus(reg.to_prometheus());
  EXPECT_EQ(prom.samples.at("req_w_count"), "4");
  EXPECT_EQ(prom.types.at("req_w_count"), "gauge");
  EXPECT_EQ(prom.types.at("req_w_rate"), "gauge");
  EXPECT_EQ(prom.samples.at("span_fit_w_count{dcl_name=\"span.fit\"}"), "1");
  EXPECT_EQ(prom.types.at("span_fit_w_p50"), "gauge");
  EXPECT_EQ(prom.types.at("span_fit_w_p95"), "gauge");
  EXPECT_EQ(prom.types.at("span_fit_w_p99"), "gauge");
  // Cumulative families still present.
  EXPECT_EQ(prom.samples.at("req"), "4");
  EXPECT_EQ(prom.types.at("span_fit"), "histogram");
}

TEST(PrometheusExport, BuildInfoCarriesEscapedManifestLabels) {
  Registry reg;
  reg.counter("c").add(1);
  RunManifest m = manifest("obs_test");
  m.config_digest = "abc123";
  m.version = "1.0\"x\\y";  // exercises label escaping
  const std::string text = reg.to_prometheus(m);
  const PromText prom = parse_prometheus(text);
  EXPECT_EQ(prom.types.at("dcl_build_info"), "gauge");
  EXPECT_EQ(prom.helps.count("dcl_build_info"), 1u);
  bool found = false;
  for (const auto& [key, value] : prom.samples) {
    if (key.rfind("dcl_build_info{", 0) != 0) continue;
    found = true;
    EXPECT_EQ(value, "1");
    EXPECT_NE(key.find("tool=\"obs_test\""), std::string::npos);
    EXPECT_NE(key.find("config_digest=\"abc123\""), std::string::npos);
    EXPECT_NE(key.find("version=\"1.0\\\"x\\\\y\""), std::string::npos);
  }
  EXPECT_TRUE(found);
  // The regular exposition follows the build_info preamble.
  EXPECT_EQ(prom.samples.count("c"), 1u);
}

// ---- structured logger (obs/log.h) -------------------------------------

std::string& log_capture() {
  static std::string s;
  return s;
}
// The logger hands each finished line to the sink in one call but does not
// serialize sink calls (a sink must be thread-safe, as stderr's fwrite
// is), so concurrent writers append under a lock.
std::mutex& log_capture_mutex() {
  static std::mutex m;
  return m;
}
void log_capture_sink(const char* line, std::size_t len) {
  std::lock_guard<std::mutex> lock(log_capture_mutex());
  log_capture().append(line, len);
}

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log_capture().clear();
    log::set_sink(&log_capture_sink);
    log::set_level(log::Level::kDebug);
    log::set_json(true);
  }
  void TearDown() override {
    log::set_sink(nullptr);
    log::set_level(log::Level::kError);
    log::set_json(true);
  }
};

TEST_F(LogTest, JsonLinesParseAndCarryFields) {
  log::info("em.start", {{"restarts", "4"}, {"model", "mmhd"}});
  ASSERT_FALSE(log_capture().empty());
  EXPECT_EQ(log_capture().back(), '\n');
  JsonParser parser(log_capture());
  const JsonValue doc = parser.parse();
  const auto& obj = doc.obj();
  EXPECT_EQ(std::get<std::string>(obj.at("level").v), "info");
  EXPECT_EQ(std::get<std::string>(obj.at("event").v), "em.start");
  EXPECT_EQ(std::get<std::string>(obj.at("restarts").v), "4");
  EXPECT_EQ(std::get<std::string>(obj.at("model").v), "mmhd");
  const std::string ts = std::get<std::string>(obj.at("ts").v);
  EXPECT_EQ(ts.size(), 24u);  // 2026-01-02T03:04:05.678Z
  EXPECT_EQ(ts.back(), 'Z');
}

TEST_F(LogTest, SeverityFilterSuppressesBelowThreshold) {
  log::set_level(log::Level::kWarn);
  log::debug("quiet");
  log::info("quiet");
  EXPECT_TRUE(log_capture().empty());
  log::warn("loud");
  EXPECT_NE(log_capture().find("loud"), std::string::npos);
}

TEST_F(LogTest, EscapesFieldValues) {
  log::info("ev", {{"msg", "a \"quoted\"\nvalue"}});
  JsonParser parser(log_capture());
  const JsonValue doc = parser.parse();
  EXPECT_EQ(std::get<std::string>(doc.obj().at("msg").v),
            "a \"quoted\"\nvalue");
}

TEST_F(LogTest, HumanFormatIsOneLine) {
  log::set_json(false);
  log::warnf("sanitize", "dropped %d records", 3);
  const std::string& line = log_capture();
  EXPECT_NE(line.find(" warn sanitize msg=dropped 3 records"),
            std::string::npos);
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
}

TEST_F(LogTest, WarnAndErrorFeedTheRecentErrorsRing) {
  const std::uint64_t before = log::recent_errors_total();
  log::set_level(log::Level::kOff);  // ring capture is sink-independent
  log::warn("sanitize.drop", {{"records", "3"}});
  log::error("em.diverged", {{"ll", "nan"}});
  EXPECT_EQ(log::recent_errors_total(), before + 2);
  const auto errs = log::recent_errors();
  ASSERT_GE(errs.size(), 2u);
  const auto& last = errs.back();
  EXPECT_EQ(last.code, "em.diverged");
  EXPECT_EQ(last.level, log::Level::kError);
  EXPECT_EQ(last.message, "ll=nan");
  EXPECT_GT(last.seq, errs[errs.size() - 2].seq);
}

TEST_F(LogTest, RingKeepsOnlyTheMostRecentSlots) {
  log::set_level(log::Level::kOff);
  for (int i = 0; i < static_cast<int>(log::kRecentErrorSlots) + 10; ++i)
    log::warnf("flood", "%d", i);
  const auto errs = log::recent_errors();
  EXPECT_LE(errs.size(), log::kRecentErrorSlots);
  ASSERT_FALSE(errs.empty());
  // Oldest-first and contiguous at the tail of the sequence space.
  for (std::size_t i = 1; i < errs.size(); ++i)
    EXPECT_EQ(errs[i].seq, errs[i - 1].seq + 1);
}

TEST_F(LogTest, RecentErrorsJsonIsParseable) {
  log::set_level(log::Level::kOff);
  log::warn("w1", {{"k", "v\"x"}});
  JsonParser parser(log::recent_errors_json());
  const JsonValue doc = parser.parse();
  const auto& arr = doc.arr();
  ASSERT_FALSE(arr.empty());
  EXPECT_EQ(std::get<std::string>(arr.back().obj().at("code").v), "w1");
}

TEST_F(LogTest, ErrorListenerCapturesTypedThrows) {
  log::install_error_listener();
  const std::uint64_t before = log::recent_errors_total();
  try {
    util::raise(util::ErrorCode::kInvalidInput, "bad probe record",
                util::Severity::kRecoverable);
  } catch (const util::Error&) {
  }
  EXPECT_EQ(log::recent_errors_total(), before + 1);
  const auto errs = log::recent_errors();
  ASSERT_FALSE(errs.empty());
  EXPECT_EQ(errs.back().code, "invalid_input");
  EXPECT_EQ(errs.back().message, "bad probe record");
  // The windowed error counter in the global registry ticked too.
  EXPECT_GE(
      Registry::global().counter("log.errors.invalid_input").value(), 1u);
  util::set_error_listener(nullptr);
}

TEST_F(LogTest, ConcurrentWritersDoNotInterleaveLines) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i)
        log::infof("thread", "t=%d i=%d 0123456789abcdef", t, i);
    });
  for (auto& th : threads) th.join();
  // Every line is complete: starts with '{' and ends with '}'.
  std::stringstream ss(log_capture());
  std::string line;
  int lines = 0;
  while (std::getline(ss, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, 200);
}

}  // namespace
}  // namespace dcl::obs
