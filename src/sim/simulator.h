// Discrete-event scheduler. Events fire in (time, sequence) order, where
// the sequence number is taken when the event is scheduled: same-time
// events run in scheduling order, and every run is deterministic.
//
// Each event is a plain 32-byte record {t, seq, target, arg} in a binary
// heap the scheduler keeps on a std::vector; scheduling and popping move
// only these records. An event fires in one of two ways:
//   * typed: target->on_event(arg). Links schedule their transmission-end
//     and delivery events this way, so the bulk of a run allocates nothing
//     and builds no callable.
//   * callable: with no target, the std::function stored in slot `arg` of
//     a free-listed pool runs. Agents (probers, traffic sources, TCP
//     timers, tracer ghosts) use this through schedule_at/schedule_in.
// Because seq is unique, the order in which events pop does not depend on
// the heap's shape.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.h"

namespace dcl::sim {

// Receiver of typed events. A target must outlive every event scheduled
// for it.
class EventTarget {
 public:
  virtual void on_event(std::uint64_t arg) = 0;

 protected:
  ~EventTarget() = default;
};

class Simulator {
 public:
  Time now() const { return now_; }

  // Schedules `fn` at absolute time `t` (>= now).
  void schedule_at(Time t, std::function<void()> fn);

  // Schedules `fn` `delay` seconds from now (delay >= 0).
  void schedule_in(Time delay, std::function<void()> fn);

  // Schedules `target.on_event(arg)` at absolute time `t` (>= now).
  void schedule_at(Time t, EventTarget& target, std::uint64_t arg);

  // Runs events with timestamp <= t_end, then advances the clock to t_end.
  void run_until(Time t_end);

  // Runs until the event queue is empty.
  void run();

  std::uint64_t events_processed() const { return processed_; }
  bool empty() const { return heap_.empty(); }

 private:
  struct Event {
    Time t;
    std::uint64_t seq;
    EventTarget* target;  // nullptr: run the callable in slot `arg`
    std::uint64_t arg;
  };
  static bool earlier(const Event& a, const Event& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }

  void ensure_not_past(Time t) const;
  void push(Time t, EventTarget* target, std::uint64_t arg);
  Event pop();
  // Pops the earliest event, advances the clock to it and fires it.
  void step();

  std::vector<Event> heap_;
  std::vector<std::function<void()>> callables_;
  std::vector<std::uint64_t> free_slots_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace dcl::sim
