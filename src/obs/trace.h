// dcl::obs::trace — a low-overhead flight recorder.
//
// Per-thread lock-free ring buffers of fixed-size trace events (begin/end
// scopes, instants, counter samples; monotonic-clock timestamps) feed a
// process-wide TraceSession that drains them into Chrome trace-event JSON
// loadable in Perfetto / chrome://tracing. Two clock domains share one
// trace: wall-clock events (pid 1; pipeline stages, thread-pool tasks, EM
// restarts/iterations) and simulated-time events (pid 2; per-link queue
// occupancy, drops, probe lifecycle), so the inference engine's concurrency
// and the simulated network's dynamics are inspectable side by side.
//
// Scopes come from DCL_STAGE (obs/obs.h), which opens one here while the
// recorder runs, alongside its profiler tag and `span.<name>` histogram.
//
// Overhead contract: when tracing is disabled (the default), every emit
// helper costs a single relaxed atomic load and a branch — no clock read,
// no TLS touch (bench_micro's BM_TraceEvent* quantifies this). When
// enabled, an emit is a TLS lookup, one steady_clock read, and five
// relaxed atomic stores into the calling thread's own ring; no locks and
// no allocation on the hot path. A full ring overwrites the
// oldest events and counts them (TraceSession::dropped, mirrored to the
// `trace.dropped` registry counter at drain).
//
// Drain protocol: writers publish each slot with a release store of its
// 1-based sequence number after the payload stores; the drain validates the
// sequence before and after reading a slot and skips events overwritten
// mid-read. Draining is therefore safe at any time, but a quiescent drain
// (after worker pools joined — what dclid and the benches do) is the only
// way to get a complete, well-nested trace.
//
// Event names must outlive the session: pass string literals, or intern
// dynamic names once via trace::intern() (stable for process lifetime).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dcl::obs {

struct RunManifest;

namespace trace {

namespace detail {
class ThreadBuffer;
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

// Global on/off switch, independent of obs::enabled(): metrics stay cheap
// to keep on always, a flight recorder is opt-in per run. Inline so a
// disabled DCL_STAGE never calls out.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

enum class EventKind : std::uint8_t {
  kBegin = 0,       // wall clock, opens a scope on the emitting thread
  kEnd = 1,         // wall clock, closes the innermost open scope
  kInstant = 2,     // wall clock, zero-duration marker
  kCounter = 3,     // wall clock, (name, value) counter sample
  kSimInstant = 4,  // simulated time, zero-duration marker
  kSimCounter = 5,  // simulated time, counter sample
  kThreadName = 6,  // names the emitting thread's track
};

// One drained event. `ts_ns` is nanoseconds on the steady clock for wall
// events and simulated-seconds * 1e9 for kSim* events.
struct Event {
  std::uint64_t ts_ns = 0;
  const char* name = nullptr;
  double value = 0.0;
  std::uint32_t tid = 0;
  EventKind kind = EventKind::kInstant;
};

// Copies `name` into a process-lifetime intern pool and returns the stable
// pointer (idempotent per distinct string). For names built at runtime —
// per-link counter tracks, per-restart series.
const char* intern(std::string_view name);

// Emit helpers. All are no-ops (one relaxed load + branch) while tracing
// is disabled. `value` is exported as args {"v": value} when non-zero.
void begin(const char* name, double value = 0.0);
void end(const char* name);
void instant(const char* name, double value = 0.0);
void counter(const char* name, double value);
// Simulated-clock events carry an explicit timestamp in simulated seconds.
void sim_instant(const char* name, double sim_time_s, double value = 0.0);
void sim_counter(const char* name, double sim_time_s, double value);
// Names the calling thread's track in the exported trace.
void set_thread_name(const char* name);

// Process-wide session: owns every thread's ring buffer (threads register
// on their first event after start()) and exports the merged timeline.
class TraceSession {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;  // events/thread

  static TraceSession& instance();

  // Discards any previous buffers, sets the per-thread ring capacity
  // (rounded up to a power of two), and enables tracing.
  void start(std::size_t events_per_thread = kDefaultCapacity);
  // Disables tracing. Buffered events stay drainable until the next start().
  void stop();
  bool active() const { return enabled(); }

  // Steady-clock origin of the session (subtracted by the exporter so
  // traces start near t=0).
  std::uint64_t start_ns() const;

  // Snapshot of every buffered event, ordered by (tid, ts). Complete only
  // when instrumented threads are quiescent; see the drain protocol above.
  std::vector<Event> drain() const;

  // Events lost so far: ring-buffer overwrites plus slots skipped by a
  // racing drain. Mirrored into Registry::global() counter "trace.dropped"
  // by drain()/exports.
  std::uint64_t dropped() const;

  // Same loss, split by cause — overwritten (ring wrapped before a drain)
  // vs race_dropped (slot invalidated mid-read by a writer). The split is
  // what /statusz reports: overwrites mean the ring is undersized,
  // race-drops mean a drain raced hot writers.
  struct DropStats {
    std::uint64_t overwritten = 0;
    std::uint64_t race_dropped = 0;
  };
  DropStats drop_stats() const;

  // Number of thread buffers registered since the last start().
  std::size_t thread_count() const;

  // Chrome trace-event JSON ({"traceEvents": [...], "otherData": {...}});
  // embeds `manifest` (and the dropped-event count) under otherData when
  // given. Loadable in Perfetto / chrome://tracing.
  std::string to_chrome_json(const RunManifest* manifest = nullptr) const;
  bool write_chrome_json(const std::string& path,
                         const RunManifest* manifest = nullptr) const;

 private:
  TraceSession() = default;
  friend class detail::ThreadBuffer;
};

}  // namespace trace
}  // namespace dcl::obs
