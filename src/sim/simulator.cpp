#include "sim/simulator.h"

#include <utility>

#include "obs/obs.h"
#include "util/error.h"

namespace dcl::sim {

namespace {
// Events between "sim.events_processed" counter samples: frequent enough
// to show event-loop progress, sparse enough not to dominate the ring.
constexpr std::uint64_t kTraceSampleEvery = 1024;
}  // namespace

void Simulator::ensure_not_past(Time t) const {
  DCL_ENSURE_MSG(t >= now_, "cannot schedule in the past: t=" << t
                                                              << " now=" << now_);
}

void Simulator::schedule_at(Time t, std::function<void()> fn) {
  ensure_not_past(t);
  std::uint64_t slot;
  if (free_slots_.empty()) {
    slot = callables_.size();
    callables_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callables_[slot] = std::move(fn);
  }
  push(t, nullptr, slot);
}

void Simulator::schedule_in(Time delay, std::function<void()> fn) {
  DCL_ENSURE(delay >= 0.0);
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(Time t, EventTarget& target, std::uint64_t arg) {
  ensure_not_past(t);
  push(t, &target, arg);
}

void Simulator::push(Time t, EventTarget* target, std::uint64_t arg) {
  const Event ev{t, next_seq_++, target, arg};
  std::size_t i = heap_.size();
  heap_.push_back(ev);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(ev, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
}

Simulator::Event Simulator::pop() {
  const Event top = heap_.front();
  const Event last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Sift the hole left at the root down to where `last` belongs.
    std::size_t i = 0;
    for (;;) {
      std::size_t c = 2 * i + 1;
      if (c >= n) break;
      if (c + 1 < n && earlier(heap_[c + 1], heap_[c])) ++c;
      if (!earlier(heap_[c], last)) break;
      heap_[i] = heap_[c];
      i = c;
    }
    heap_[i] = last;
  }
  return top;
}

void Simulator::step() {
  const Event ev = pop();
  now_ = ev.t;
  ++processed_;
  if (processed_ % kTraceSampleEvery == 0)
    obs::trace::counter("sim.events_processed",
                        static_cast<double>(processed_));
  if (ev.target != nullptr) {
    ev.target->on_event(ev.arg);
    return;
  }
  // Free the slot before the call: the callable may schedule more events,
  // and the pool may grow (moving its elements) while it runs.
  std::function<void()> fn = std::move(callables_[ev.arg]);
  free_slots_.push_back(ev.arg);
  fn();
}

void Simulator::run_until(Time t_end) {
  DCL_STAGE_V("sim.run_until", t_end);
  while (!heap_.empty() && heap_.front().t <= t_end) step();
  now_ = t_end;
}

void Simulator::run() {
  DCL_STAGE("sim.run");
  while (!heap_.empty()) step();
}

}  // namespace dcl::sim
