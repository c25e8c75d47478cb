// Tests for the dcl::obs::trace flight recorder: Chrome trace-event JSON
// structure (parsed back with a minimal validating parser), per-thread
// nesting, ring-buffer wrap accounting, disabled-mode behaviour, intern
// stability, and a concurrent emit/drain test meant to run under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <map>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "obs/manifest.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace dcl::obs::trace {
namespace {

// ---- minimal JSON parser (objects, arrays, strings, numbers, bools) ----
// Same shape as the one in obs_test.cpp: just enough to validate the
// exporter's output structurally and read leaves back out.
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
  const std::string& str() const { return std::get<std::string>(v); }
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

// Tests share the process-wide session; this fixture guarantees each test
// leaves tracing disabled (start() discards the previous test's buffers).
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { TraceSession::instance().stop(); }
};

std::size_t count_kind(const std::vector<Event>& events, EventKind k) {
  std::size_t n = 0;
  for (const Event& e : events) n += e.kind == k ? 1 : 0;
  return n;
}

TEST_F(TraceTest, InternIsIdempotentAndStable) {
  const std::string dynamic = "link" + std::to_string(3) + ".queue_bytes";
  const char* a = intern(dynamic);
  const char* b = intern("link3.queue_bytes");
  EXPECT_EQ(a, b);  // same pointer for the same content
  EXPECT_STREQ(a, "link3.queue_bytes");
  EXPECT_NE(a, intern("link4.queue_bytes"));
}

TEST_F(TraceTest, DisabledModeEmitsNothing) {
  auto& session = TraceSession::instance();
  session.start(128);  // discard any earlier buffers...
  session.stop();      // ...then disable before emitting
  EXPECT_FALSE(enabled());
  begin("dead");
  end("dead");
  instant("dead");
  counter("dead", 1.0);
  sim_counter("dead", 1.0, 2.0);
  set_thread_name("dead");
  { DCL_STAGE("dead"); }
  EXPECT_TRUE(session.drain().empty());
  EXPECT_EQ(session.thread_count(), 0u);  // no thread ever registered
  EXPECT_EQ(session.dropped(), 0u);
}

TEST_F(TraceTest, ScopeCapturesEnabledAtConstruction) {
  auto& session = TraceSession::instance();
  session.start(128);
  {
    DCL_STAGE("mid_session");
    session.stop();  // session ends while the stage is open
  }                  // destructor must not emit an unmatched end
  const auto events = session.drain();
  EXPECT_EQ(count_kind(events, EventKind::kBegin), 1u);
  EXPECT_EQ(count_kind(events, EventKind::kEnd), 0u);

  // Mirror image: a stage entered while disabled stays silent even if a
  // session starts before its destructor runs.
  session.start(128);
  session.stop();
  {
    DCL_STAGE("off_session");
    set_enabled(true);
  }
  set_enabled(false);
  EXPECT_TRUE(session.drain().empty());
}

TEST_F(TraceTest, SpanEmitsTraceScopeWhenRecording) {
  auto& session = TraceSession::instance();
  session.start(128);
  const bool metrics_was = obs::enabled();
  obs::set_enabled(true);
  Histogram& span = Registry::global().histogram("span.traced_stage");
  const std::uint64_t before = span.count();
  { DCL_STAGE("traced_stage"); }
  obs::set_enabled(metrics_was);
  session.stop();
  const auto events = session.drain();
  ASSERT_EQ(count_kind(events, EventKind::kBegin), 1u);
  ASSERT_EQ(count_kind(events, EventKind::kEnd), 1u);
  for (const Event& e : events) {
    if (e.kind != EventKind::kThreadName) {
      EXPECT_STREQ(e.name, "traced_stage");
    }
  }
  // The metrics side records the same stage under the same name.
  EXPECT_EQ(span.count(), before + 1);
}

TEST_F(TraceTest, RingWrapDropsOldestAndCountsDropped) {
  auto& session = TraceSession::instance();
  session.start(64);  // smallest ring the recorder allows
  constexpr int kEmitted = 200;
  for (int i = 0; i < kEmitted; ++i)
    instant("wrap", static_cast<double>(i));
  session.stop();

  const auto events = session.drain();
  ASSERT_EQ(events.size(), 64u);  // exactly one ring of the newest events
  EXPECT_EQ(session.dropped(), static_cast<std::uint64_t>(kEmitted - 64));
  // The survivors are the newest 64, in emission order.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_DOUBLE_EQ(events[i].value,
                     static_cast<double>(kEmitted - 64 + i));
  // drain() mirrors the loss into the global registry.
  EXPECT_EQ(Registry::global().counter("trace.dropped").value(),
            session.dropped());
}

TEST_F(TraceTest, ChromeJsonParsesAndEmbedsManifest) {
  auto& session = TraceSession::instance();
  session.start(1u << 10);
  set_thread_name("main");
  {
    DCL_STAGE("outer");
    { DCL_STAGE_V("inner", 7.0); }
    instant("marker", 3.0);
    counter("wall.counter", 42.0);
  }
  sim_counter("link0.queue_bytes", 1.5, 1000.0);
  sim_instant("link0.drop", 2.0);
  session.stop();

  auto man = obs::manifest("trace_test");
  man.seed = 7;
  man.add("scenario", "unit");
  const std::string json = session.to_chrome_json(&man);
  JsonParser parser(json);
  const JsonValue doc = parser.parse();
  const auto& root = doc.obj();
  ASSERT_TRUE(root.count("traceEvents"));
  const auto& events = root.at("traceEvents").arr();
  ASSERT_GT(events.size(), 6u);

  bool saw_thread_name = false, saw_sim_process = false, saw_sim_counter = false;
  bool saw_instant = false;
  for (const auto& ev : events) {
    const auto& e = ev.obj();
    const std::string& name = e.at("name").str();
    const std::string& ph = e.at("ph").str();
    if (ph == "M" && name == "thread_name")
      saw_thread_name |= e.at("args").obj().at("name").str() == "main";
    if (ph == "M" && name == "process_name")
      saw_sim_process |= e.at("pid").num() == 2.0;
    if (name == "link0.queue_bytes") {
      saw_sim_counter = true;
      EXPECT_EQ(ph, "C");
      EXPECT_DOUBLE_EQ(e.at("pid").num(), 2.0);  // simulated-time process
      EXPECT_NEAR(e.at("ts").num(), 1.5e6, 1.0);  // 1.5 sim-seconds in µs
      EXPECT_DOUBLE_EQ(e.at("args").obj().at("value").num(), 1000.0);
    }
    if (name == "marker") {
      saw_instant = true;
      EXPECT_EQ(ph, "i");
      EXPECT_DOUBLE_EQ(e.at("args").obj().at("v").num(), 3.0);
    }
  }
  EXPECT_TRUE(saw_thread_name);
  EXPECT_TRUE(saw_sim_process);
  EXPECT_TRUE(saw_sim_counter);
  EXPECT_TRUE(saw_instant);

  // "outer" strictly contains "inner" on the wall-clock timeline.
  double outer_b = -1, inner_b = -1, inner_e = -1, outer_e = -1;
  for (const auto& ev : events) {
    const auto& e = ev.obj();
    const std::string& name = e.at("name").str();
    const std::string& ph = e.at("ph").str();
    if (name == "outer" && ph == "B") outer_b = e.at("ts").num();
    if (name == "inner" && ph == "B") inner_b = e.at("ts").num();
    if (name == "inner" && ph == "E") inner_e = e.at("ts").num();
    if (name == "outer" && ph == "E") outer_e = e.at("ts").num();
  }
  ASSERT_GE(outer_b, 0.0);
  EXPECT_LE(outer_b, inner_b);
  EXPECT_LE(inner_b, inner_e);
  EXPECT_LE(inner_e, outer_e);

  const auto& other = root.at("otherData").obj();
  EXPECT_TRUE(other.count("dropped"));
  const auto& manifest = other.at("manifest").obj();
  EXPECT_EQ(manifest.at("tool").str(), "trace_test");
  EXPECT_DOUBLE_EQ(manifest.at("seed").num(), 7.0);
  EXPECT_FALSE(manifest.at("git").str().empty());
  EXPECT_FALSE(manifest.at("hostname").str().empty());
  EXPECT_FALSE(manifest.at("wall_time_utc").str().empty());
  EXPECT_EQ(manifest.at("config").obj().at("scenario").str(), "unit");
}

// Every exported track must be well-nested even after a ring wrap destroys
// begin events whose ends survive: the exporter suppresses orphan ends.
TEST_F(TraceTest, ExportStaysWellNestedAfterRingWrap) {
  auto& session = TraceSession::instance();
  session.start(64);
  begin("doomed");  // its slot will be overwritten below
  for (int i = 0; i < 100; ++i) instant("filler", static_cast<double>(i));
  end("doomed");  // orphan: the matching begin is gone from the ring
  session.stop();
  EXPECT_GT(session.dropped(), 0u);

  JsonParser parser(session.to_chrome_json());
  const JsonValue doc = parser.parse();
  std::map<double, int> depth;  // per exported tid
  for (const auto& ev : doc.obj().at("traceEvents").arr()) {
    const auto& e = ev.obj();
    const std::string& ph = e.at("ph").str();
    if (ph == "B") ++depth[e.at("tid").num()];
    if (ph == "E") {
      --depth[e.at("tid").num()];
      EXPECT_GE(depth[e.at("tid").num()], 0) << "unmatched end exported";
    }
  }
}

// Concurrent emitters on their own rings plus a racing drain from the main
// thread: exercises the publication protocol. Run under TSan via check.sh.
TEST_F(TraceTest, ConcurrentEmitAndDrainIsClean) {
  auto& session = TraceSession::instance();
  session.start(1u << 12);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&go, t] {
      set_thread_name(intern("emitter." + std::to_string(t)));
      const char* track = intern("track." + std::to_string(t));
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        DCL_STAGE("work");
        counter(track, static_cast<double>(i));
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Racing drains while the writers run: allowed to miss or skip events,
  // never to crash or tear one.
  for (int i = 0; i < 5; ++i) (void)session.drain();
  for (auto& t : threads) t.join();
  session.stop();

  const auto events = session.drain();
  EXPECT_GE(session.thread_count(), static_cast<std::size_t>(kThreads));
  // Each thread emitted 3x kPerThread events into a 4096-slot ring: the
  // drain holds at most one ring per thread and the rest is accounted.
  EXPECT_GT(events.size(), 0u);
  const std::uint64_t emitted =
      static_cast<std::uint64_t>(kThreads) * 3u * kPerThread;
  EXPECT_GE(events.size() + session.dropped(), emitted);
  // Quiescent drain: every surviving counter value sequence is increasing
  // per thread (emission order is preserved within a ring).
  std::map<std::uint32_t, double> last;
  for (const Event& e : events) {
    if (e.kind != EventKind::kCounter) continue;
    auto it = last.find(e.tid);
    if (it != last.end()) {
      EXPECT_GT(e.value, it->second);
    }
    last[e.tid] = e.value;
  }
  EXPECT_EQ(last.size(), static_cast<std::size_t>(kThreads));
}

}  // namespace
}  // namespace dcl::obs::trace
