// Virtual-probe ground truth (the paper's "ns virtual" curves).
//
// The paper defines the *virtual queuing delay* of a lost probe: imagine
// the probe experiences the maximum queuing delay Q_k of the link that
// dropped it, then continues along the path, at each later hop experiencing
// the queuing delay implied by the instantaneous queue occupancy at its
// (virtual) arrival time, without occupying any buffer space. Its virtual
// one-way delay is the virtual sink arrival time minus its send time.
//
// VirtualProbeTracer implements exactly that: when a link drops a probe it
// spawns a "ghost" whose remaining hops are walked through future simulator
// events so each queue is sampled at the correct instant. It also records,
// per flow, which link dropped each probe (loss attribution) and the sum of
// per-hop queuing delays of received probes.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "sim/link.h"
#include "sim/network.h"
#include "sim/packet.h"

namespace dcl::sim {

struct ProbeLossRecord {
  std::uint64_t seq = 0;
  int loss_link_id = -1;
  Time send_time = 0.0;
  // Virtual one-way delay (send to virtual sink arrival); NaN until the
  // ghost reaches the sink (or forever, if simulation ended first).
  double virtual_owd = std::numeric_limits<double>::quiet_NaN();
  bool completed = false;
  // Occupancy of the dropping queue when the probe was refused.
  std::size_t backlog_bytes_at_drop = 0;
  std::size_t backlog_pkts_at_drop = 0;
};

class VirtualProbeTracer final : public LinkObserver {
 public:
  explicit VirtualProbeTracer(Network& net) : net_(net) {}

  void on_probe_enqueued(Link& link, const Packet& p, double queuing_delay,
                         Time now) override;
  void on_probe_dropped(Link& link, const Packet& p, Time now) override;

  // Loss records for `flow`, keyed by probe sequence number.
  const std::map<std::uint64_t, ProbeLossRecord>& losses(FlowId flow) const;

  // Completed virtual one-way delays (seconds) of the lost probes of `flow`.
  std::vector<double> virtual_owds(FlowId flow) const;

  // Number of probes of `flow` dropped by each link id.
  std::unordered_map<int, std::uint64_t> loss_link_counts(FlowId flow) const;

  // Sum of queuing delays accumulated so far by a received probe would need
  // per-probe state; we only keep the aggregate per (flow, link) for
  // diagnostics.
  double mean_queuing_delay(FlowId flow, int link_id) const;

 private:
  void ghost_step(Packet p, NodeId at, std::size_t hops_left);

  Network& net_;
  std::unordered_map<FlowId, std::map<std::uint64_t, ProbeLossRecord>> losses_;
  struct QStat {
    double sum = 0.0;
    std::uint64_t n = 0;
  };
  // Indexed [flow][link id]; rows grow on a flow's first enqueue.
  std::vector<std::vector<QStat>> qstats_;
  static const std::map<std::uint64_t, ProbeLossRecord> kEmpty;
};

}  // namespace dcl::sim
