// Droptail (FIFO, finite buffer) queue — the paper's default router model.
// A packet is dropped exactly when the buffer cannot hold it, so a lost
// probe is guaranteed to have seen a (nearly) full queue; this is the
// assumption behind the virtual-queuing-delay construction.
//
// Capacity is enforced in bytes and, optionally, in packets. The packet
// limit mirrors ns's packet-counted queues: without it a 10-byte probe
// would almost never drop at a buffer otherwise filled by 1000-byte data
// packets, and probe loss would no longer reflect data-packet loss.
// Router queues in the experiments use both limits with
// capacity_pkts = capacity_bytes / data packet size.
#pragma once

#include "sim/packet_fifo.h"
#include "sim/queue.h"

namespace dcl::sim {

class DropTailQueue final : public Queue {
 public:
  // capacity_pkts == 0 disables the packet-count limit.
  explicit DropTailQueue(std::size_t capacity_bytes,
                         std::size_t capacity_pkts = 0);

  bool try_enqueue(const Packet& p, Time now) override;
  std::optional<Packet> dequeue(Time now) override;
  std::size_t backlog_bytes() const override { return backlog_; }
  std::size_t backlog_pkts() const override { return q_.size(); }
  std::size_t capacity_bytes() const override { return capacity_; }
  bool empty() const override { return q_.empty(); }

  std::size_t capacity_pkts() const { return capacity_pkts_; }

 private:
  std::size_t capacity_;
  std::size_t capacity_pkts_;
  std::size_t backlog_ = 0;
  PacketFifo q_;
};

}  // namespace dcl::sim
