#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "obs/manifest.h"
#include "obs/obs.h"

namespace dcl::obs::trace {

namespace {

// Session generation: bumped by TraceSession::start() so cached
// thread-local buffer pointers from an earlier session are never
// dereferenced (the epoch test fails and the thread re-registers).
std::atomic<std::uint64_t> g_epoch{1};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t double_bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

double bits_double(std::uint64_t b) {
  double x;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

std::size_t round_pow2(std::size_t n) {
  std::size_t p = 64;  // floor: a ring too small to hold one scope is useless
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

namespace detail {

// One ring slot. Every field is a relaxed atomic so concurrent
// overwrite-while-drain never races under TSan; `seq` carries the 1-based
// event index occupying the slot and is the publication point (release
// store after the payload, validated before and after a drain read).
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> ts_ns{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> value_bits{0};
  std::atomic<std::uint32_t> kind{0};
};

class ThreadBuffer {
 public:
  ThreadBuffer(std::uint32_t tid, std::size_t capacity_pow2)
      : tid_(tid), slots_(capacity_pow2), mask_(capacity_pow2 - 1) {}

  void push(EventKind k, const char* name, std::uint64_t ts,
            double value) {
    const std::uint64_t idx = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[idx & mask_];
    s.seq.store(0, std::memory_order_release);  // invalidate while writing
    s.ts_ns.store(ts, std::memory_order_relaxed);
    s.name.store(name, std::memory_order_relaxed);
    s.value_bits.store(double_bits(value), std::memory_order_relaxed);
    s.kind.store(static_cast<std::uint32_t>(k), std::memory_order_relaxed);
    s.seq.store(idx + 1, std::memory_order_release);
    head_.store(idx + 1, std::memory_order_release);
    if (idx >= slots_.size())  // overwrote the oldest buffered event
      dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  void drain_into(std::vector<Event>& out) const {
    const char* tname = name_.load(std::memory_order_relaxed);
    if (tname != nullptr)
      out.push_back(Event{0, tname, 0.0, tid_, EventKind::kThreadName});
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t lo = h > slots_.size() ? h - slots_.size() : 0;
    for (std::uint64_t i = lo; i < h; ++i) {
      const Slot& s = slots_[i & mask_];
      if (s.seq.load(std::memory_order_acquire) != i + 1) {
        race_dropped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Event e;
      e.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
      e.name = s.name.load(std::memory_order_relaxed);
      e.value = bits_double(s.value_bits.load(std::memory_order_relaxed));
      e.kind = static_cast<EventKind>(s.kind.load(std::memory_order_relaxed));
      e.tid = tid_;
      if (s.seq.load(std::memory_order_acquire) != i + 1) {
        race_dropped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      out.push_back(e);
    }
  }

  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed) +
           race_dropped_.load(std::memory_order_relaxed);
  }

  std::uint64_t overwritten() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  std::uint64_t race_dropped() const {
    return race_dropped_.load(std::memory_order_relaxed);
  }

  void set_name(const char* n) {
    name_.store(n, std::memory_order_relaxed);
  }

  std::uint32_t tid() const { return tid_; }

 private:
  std::uint32_t tid_;
  std::vector<Slot> slots_;
  std::uint64_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::atomic<std::uint64_t> race_dropped_{0};
  std::atomic<const char*> name_{nullptr};
};

}  // namespace detail

namespace {

struct SessionState {
  std::mutex mu;
  std::vector<std::shared_ptr<detail::ThreadBuffer>> buffers;
  // The previous session's buffers, kept one generation so a straggler
  // thread that cached a pointer across start() (violating the quiescence
  // contract) still points at live memory until the next start().
  std::vector<std::shared_ptr<detail::ThreadBuffer>> retired;
  std::size_t capacity = TraceSession::kDefaultCapacity;
  std::uint64_t start_ns = 0;
};

SessionState& state() {
  static SessionState* s = new SessionState();  // never destroyed: exit-safe
  return *s;
}

struct TlsCache {
  detail::ThreadBuffer* buf = nullptr;
  std::uint64_t epoch = 0;
};
thread_local TlsCache t_cache;

detail::ThreadBuffer* local_buffer() {
  const std::uint64_t ep = g_epoch.load(std::memory_order_relaxed);
  if (t_cache.epoch == ep) return t_cache.buf;
  SessionState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  auto buf = std::make_shared<detail::ThreadBuffer>(
      static_cast<std::uint32_t>(st.buffers.size()), st.capacity);
  st.buffers.push_back(buf);
  t_cache = TlsCache{buf.get(), ep};
  return t_cache.buf;
}

void emit(EventKind k, const char* name, std::uint64_t ts, double value) {
  local_buffer()->push(k, name, ts, value);
}

}  // namespace

const char* intern(std::string_view name) {
  static std::mutex* mu = new std::mutex();
  // node-based: element addresses (hence c_str) are stable forever
  static auto* pool = new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> lock(*mu);
  return pool->emplace(name).first->c_str();
}

void begin(const char* name, double value) {
  if (!enabled()) return;
  emit(EventKind::kBegin, name, now_ns(), value);
}

void end(const char* name) {
  if (!enabled()) return;
  emit(EventKind::kEnd, name, now_ns(), 0.0);
}

void instant(const char* name, double value) {
  if (!enabled()) return;
  emit(EventKind::kInstant, name, now_ns(), value);
}

void counter(const char* name, double value) {
  if (!enabled()) return;
  emit(EventKind::kCounter, name, now_ns(), value);
}

void sim_instant(const char* name, double sim_time_s, double value) {
  if (!enabled()) return;
  emit(EventKind::kSimInstant, name,
       static_cast<std::uint64_t>(sim_time_s * 1e9), value);
}

void sim_counter(const char* name, double sim_time_s, double value) {
  if (!enabled()) return;
  emit(EventKind::kSimCounter, name,
       static_cast<std::uint64_t>(sim_time_s * 1e9), value);
}

void set_thread_name(const char* name) {
  if (!enabled()) return;
  local_buffer()->set_name(name);
}

TraceSession& TraceSession::instance() {
  static TraceSession* s = new TraceSession();
  return *s;
}

void TraceSession::start(std::size_t events_per_thread) {
  SessionState& st = state();
  {
    std::lock_guard<std::mutex> lock(st.mu);
    st.retired = std::move(st.buffers);
    st.buffers.clear();
    st.capacity = round_pow2(events_per_thread);
    st.start_ns = now_ns();
  }
  g_epoch.fetch_add(1, std::memory_order_relaxed);
  set_enabled(true);
}

void TraceSession::stop() { set_enabled(false); }

std::uint64_t TraceSession::start_ns() const {
  SessionState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.start_ns;
}

std::vector<Event> TraceSession::drain() const {
  std::vector<std::shared_ptr<detail::ThreadBuffer>> buffers;
  {
    SessionState& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    buffers = st.buffers;
  }
  std::vector<Event> out;
  for (const auto& b : buffers) b->drain_into(out);
  Registry::global().counter("trace.dropped").set(dropped());
  return out;
}

std::uint64_t TraceSession::dropped() const {
  const DropStats d = drop_stats();
  return d.overwritten + d.race_dropped;
}

TraceSession::DropStats TraceSession::drop_stats() const {
  std::vector<std::shared_ptr<detail::ThreadBuffer>> buffers;
  {
    SessionState& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    buffers = st.buffers;
  }
  DropStats d;
  for (const auto& b : buffers) {
    d.overwritten += b->overwritten();
    d.race_dropped += b->race_dropped();
  }
  return d;
}

std::size_t TraceSession::thread_count() const {
  SessionState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.buffers.size();
}

std::string TraceSession::to_chrome_json(const RunManifest* manifest) const {
  const std::uint64_t t0 = start_ns();
  const std::vector<Event> events = drain();

  std::string out;
  out.reserve(events.size() * 96 + 1024);
  out += "{\"traceEvents\": [\n";
  out +=
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"wall clock\"}}";

  bool have_sim = false;
  for (const Event& e : events)
    have_sim = have_sim || e.kind == EventKind::kSimInstant ||
               e.kind == EventKind::kSimCounter;
  if (have_sim)
    out +=
        ",\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
        "\"tid\": 0, \"args\": {\"name\": \"simulated time\"}}";

  // A wrapped ring can overwrite a begin whose end survives; suppress such
  // orphan ends so every exported track stays well-nested. Events arrive
  // grouped per thread in emission order, so a per-tid depth suffices.
  std::vector<char> skip(events.size(), 0);
  {
    std::unordered_map<std::uint32_t, std::uint64_t> depth;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.kind == EventKind::kBegin) {
        ++depth[e.tid];
      } else if (e.kind == EventKind::kEnd) {
        auto it = depth.find(e.tid);
        if (it == depth.end() || it->second == 0)
          skip[i] = 1;
        else
          --it->second;
      }
    }
  }

  char buf[64];
  auto ts_us = [&](const Event& e) -> double {
    if (e.kind == EventKind::kSimInstant || e.kind == EventKind::kSimCounter)
      return static_cast<double>(e.ts_ns) * 1e-3;
    return e.ts_ns >= t0 ? static_cast<double>(e.ts_ns - t0) * 1e-3 : 0.0;
  };

  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (skip[i]) continue;
    const char* name = e.name != nullptr ? e.name : "?";
    if (e.kind == EventKind::kThreadName) {
      std::snprintf(buf, sizeof buf,
                    ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", "
                    "\"pid\": 1, \"tid\": %u",
                    e.tid);
      out += buf;
      out += ", \"args\": {\"name\": \"" + json_escape(name) + "\"}}";
      continue;
    }
    const bool sim = e.kind == EventKind::kSimInstant ||
                     e.kind == EventKind::kSimCounter;
    out += ",\n  {\"name\": \"";
    out += json_escape(name);
    out += "\", \"ph\": \"";
    switch (e.kind) {
      case EventKind::kBegin: out += 'B'; break;
      case EventKind::kEnd: out += 'E'; break;
      case EventKind::kInstant:
      case EventKind::kSimInstant: out += 'i'; break;
      case EventKind::kCounter:
      case EventKind::kSimCounter: out += 'C'; break;
      case EventKind::kThreadName: break;  // handled above
    }
    out += '"';
    std::snprintf(buf, sizeof buf, ", \"ts\": %.3f, \"pid\": %d, \"tid\": %u",
                  ts_us(e), sim ? 2 : 1, e.tid);
    out += buf;
    if (e.kind == EventKind::kInstant || e.kind == EventKind::kSimInstant)
      out += ", \"s\": \"t\"";
    if (e.kind == EventKind::kCounter || e.kind == EventKind::kSimCounter) {
      out += ", \"args\": {\"value\": " + json_number(e.value) + '}';
    } else if (e.value != 0.0) {
      out += ", \"args\": {\"v\": " + json_number(e.value) + '}';
    }
    out += '}';
  }

  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped\": " +
         std::to_string(dropped());
  if (manifest != nullptr) out += ", \"manifest\": " + manifest->to_json();
  out += "}}\n";
  return out;
}

bool TraceSession::write_chrome_json(const std::string& path,
                                     const RunManifest* manifest) const {
  const std::string json = to_chrome_json(manifest);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0 && n == json.size();
}

}  // namespace dcl::obs::trace
