#include "sim/link.h"

#include <string>
#include <utility>

#include "obs/trace.h"
#include "sim/node.h"
#include "util/error.h"

namespace dcl::sim {

Link::Link(int id, Simulator& sim, Node& from, Node& to, double bandwidth_bps,
           Time prop_delay, std::unique_ptr<Queue> queue)
    : id_(id),
      sim_(sim),
      from_(from),
      to_(to),
      bandwidth_bps_(bandwidth_bps),
      prop_delay_(prop_delay),
      queue_(std::move(queue)) {
  DCL_ENSURE(bandwidth_bps_ > 0.0);
  DCL_ENSURE(prop_delay_ >= 0.0);
  DCL_ENSURE(queue_ != nullptr);
}

double Link::current_queuing_delay(Time now) const {
  double residual = 0.0;
  if (busy_ && service_end_ > now) residual = service_end_ - now;
  return residual +
         static_cast<double>(queue_->backlog_bytes()) * 8.0 / bandwidth_bps_;
}

// Interns the per-link flight-recorder track names once. Called only when
// tracing is enabled, so untraced runs never touch the intern pool.
void Link::trace_tracks() {
  if (tr_queue_ != nullptr) return;
  const std::string base = "link" + std::to_string(id_) + "." + from_.name() +
                           "->" + to_.name();
  tr_queue_ = obs::trace::intern(base + ".queue_bytes");
  tr_drop_ = obs::trace::intern(base + ".drop");
  tr_probe_send_ = obs::trace::intern(base + ".probe.send");
  tr_probe_recv_ = obs::trace::intern(base + ".probe.recv");
  tr_probe_loss_ = obs::trace::intern(base + ".probe.loss");
}

void Link::send(Packet p) {
  const Time now = sim_.now();
  const bool is_probe = p.type == PacketType::kProbe;
  const double qdelay = is_probe ? current_queuing_delay(now) : 0.0;
  const bool traced = obs::trace::enabled();
  if (traced) trace_tracks();
  if (!queue_->try_enqueue(p, now)) {
    ++dropped_;
    if (traced) {
      obs::trace::sim_instant(tr_drop_, now,
                              static_cast<double>(p.size_bytes));
      if (is_probe)
        obs::trace::sim_instant(tr_probe_loss_, now,
                                static_cast<double>(p.seq));
    }
    if (is_probe && observer_ != nullptr) observer_->on_probe_dropped(*this, p, now);
    return;
  }
  ++enqueued_;
  if (traced) {
    obs::trace::sim_counter(tr_queue_, now,
                            static_cast<double>(queue_->backlog_bytes()));
    if (is_probe)
      obs::trace::sim_instant(tr_probe_send_, now,
                              static_cast<double>(p.seq));
  }
  if (is_probe && observer_ != nullptr)
    observer_->on_probe_enqueued(*this, p, qdelay, now);
  start_service_if_idle();
}

void Link::start_service_if_idle() {
  if (busy_) return;
  auto head = queue_->dequeue(sim_.now());
  if (!head) return;
  if (obs::trace::enabled()) {
    trace_tracks();
    obs::trace::sim_counter(tr_queue_, sim_.now(),
                            static_cast<double>(queue_->backlog_bytes()));
  }
  busy_ = true;
  const double tx = tx_time(*head);
  service_end_ = sim_.now() + tx;
  in_flight_.push_back(*head);
  sim_.schedule_at(service_end_, *this, kTransmissionEnd);
}

void Link::on_event(std::uint64_t kind) {
  if (kind == kTransmissionEnd) {
    busy_ = false;
    // now + prop_delay_, exactly as schedule_in would form it.
    sim_.schedule_at(sim_.now() + prop_delay_, *this, kDelivery);
    start_service_if_idle();
    return;
  }
  const Packet p = in_flight_.pop_front();
  ++delivered_;
  if (p.type == PacketType::kProbe && obs::trace::enabled()) {
    trace_tracks();
    obs::trace::sim_instant(tr_probe_recv_, sim_.now(),
                            static_cast<double>(p.seq));
  }
  to_.receive(p, sim_.now());
}

}  // namespace dcl::sim
