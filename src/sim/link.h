// Unidirectional link: an output queue plus a transmitter (bandwidth) and a
// propagation delay. Packets are served FIFO from the queue; the head
// packet occupies the transmitter for size*8/bandwidth seconds and is then
// delivered to the downstream node after the propagation delay.
//
// The link drives itself with two typed simulator events, transmission end
// and delivery, neither of which carries the packet. A packet enters the
// link's in-flight FIFO when its service starts and leaves it when it is
// delivered. Deliveries on one link happen in service order, so the FIFO's
// head is always the packet being delivered: each transmission ends at or
// after the one before it (a service starts no earlier than the previous
// one ends) and the propagation delay is constant, so delivery times never
// decrease; an exact tie (zero-length transmissions) is broken by the event
// sequence number, and each delivery is scheduled at its transmission end,
// which comes before the next packet's.
//
// The queuing delay an arriving packet experiences equals the residual
// transmission time of the in-service packet plus the backlog drain time;
// the maximum queuing delay Q_k = buffer/bandwidth is the paper's
// "time required to drain a full queue".
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/packet.h"
#include "sim/packet_fifo.h"
#include "sim/queue.h"
#include "sim/simulator.h"
#include "sim/types.h"

namespace dcl::sim {

class Node;
class Link;

// Hooks invoked for probe packets only; used by the virtual-probe tracer.
class LinkObserver {
 public:
  virtual ~LinkObserver() = default;
  // The probe was admitted; `queuing_delay` is what it will wait before
  // entering service.
  virtual void on_probe_enqueued(Link& link, const Packet& p,
                                 double queuing_delay, Time now) = 0;
  // The probe was dropped by the queue discipline.
  virtual void on_probe_dropped(Link& link, const Packet& p, Time now) = 0;
};

class Link final : public EventTarget {
 public:
  Link(int id, Simulator& sim, Node& from, Node& to, double bandwidth_bps,
       Time prop_delay, std::unique_ptr<Queue> queue);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Entry point from the upstream node: enqueue (or drop) and start the
  // transmitter when idle.
  void send(Packet p);

  int id() const { return id_; }
  Node& from() { return from_; }
  Node& to() { return to_; }
  const Node& to() const { return to_; }
  double bandwidth_bps() const { return bandwidth_bps_; }
  Time prop_delay() const { return prop_delay_; }
  Queue& queue() { return *queue_; }
  const Queue& queue() const { return *queue_; }

  double tx_time(const Packet& p) const {
    return static_cast<double>(p.size_bytes) * 8.0 / bandwidth_bps_;
  }

  // Queuing delay a packet arriving now would experience (residual service
  // time of the packet on the wire plus backlog drain time).
  double current_queuing_delay(Time now) const;

  // Q_k: time to drain a full buffer.
  double max_queuing_delay() const {
    return static_cast<double>(queue_->capacity_bytes()) * 8.0 /
           bandwidth_bps_;
  }

  void set_observer(LinkObserver* obs) { observer_ = obs; }

  std::uint64_t delivered() const { return delivered_; }
  // Packets admitted to / rejected by the output queue at this link.
  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  enum EventKind : std::uint64_t { kTransmissionEnd, kDelivery };
  void on_event(std::uint64_t kind) override;
  void start_service_if_idle();
  // Interns this link's flight-recorder track names on first use (names
  // follow Network::export_metrics: "link<id>.<from>-><to>.<metric>").
  void trace_tracks();

  int id_;
  Simulator& sim_;
  Node& from_;
  Node& to_;
  double bandwidth_bps_;
  Time prop_delay_;
  std::unique_ptr<Queue> queue_;
  LinkObserver* observer_ = nullptr;

  bool busy_ = false;
  Time service_end_ = 0.0;
  // Packets from the start of their service until their delivery.
  PacketFifo in_flight_;
  std::uint64_t delivered_ = 0;
  std::uint64_t enqueued_ = 0;
  std::uint64_t dropped_ = 0;

  // Interned trace track names, set by trace_tracks() when a flight
  // recorder is active (nullptr otherwise).
  const char* tr_queue_ = nullptr;
  const char* tr_drop_ = nullptr;
  const char* tr_probe_send_ = nullptr;
  const char* tr_probe_recv_ = nullptr;
  const char* tr_probe_loss_ = nullptr;
};

}  // namespace dcl::sim
