#include "sim/probe_trace.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace dcl::sim {

const std::map<std::uint64_t, ProbeLossRecord> VirtualProbeTracer::kEmpty{};

void VirtualProbeTracer::on_probe_enqueued(Link& link, const Packet& p,
                                           double queuing_delay,
                                           Time /*now*/) {
  if (p.flow >= qstats_.size()) qstats_.resize(p.flow + 1);
  auto& row = qstats_[p.flow];
  const auto l = static_cast<std::size_t>(link.id());
  if (l >= row.size()) row.resize(std::max(l + 1, net_.links().size()));
  auto& st = row[l];
  st.sum += queuing_delay;
  ++st.n;
}

void VirtualProbeTracer::on_probe_dropped(Link& link, const Packet& p,
                                          Time now) {
  ProbeLossRecord rec;
  rec.seq = p.seq;
  rec.loss_link_id = link.id();
  rec.send_time = p.send_time;
  rec.backlog_bytes_at_drop = link.queue().backlog_bytes();
  rec.backlog_pkts_at_drop = link.queue().backlog_pkts();
  losses_[p.flow][p.seq] = rec;

  // The ghost experiences the full queue it found at the dropping link, is
  // "transmitted", and propagates to the downstream node; from there it
  // walks the rest of the path hop by hop, sampling each queue at its
  // virtual arrival instant. The drain time of the queue as found
  // (current_queuing_delay) equals Q_k when the buffer is byte-full; with
  // packet-counted buffers holding a mix of sizes it is the exact time the
  // virtual probe would have waited, which is what the definition intends.
  const double delay =
      link.current_queuing_delay(now) + link.tx_time(p) + link.prop_delay();
  const NodeId next = link.to().id();
  net_.sim().schedule_at(now + delay, [this, p, next]() {
    ghost_step(p, next, net_.node_count());
  });
}

void VirtualProbeTracer::ghost_step(Packet p, NodeId at,
                                    std::size_t hops_left) {
  const Time t = net_.sim().now();
  if (at == p.dst) {
    auto& rec = losses_[p.flow][p.seq];
    rec.virtual_owd = t - p.send_time;
    rec.completed = true;
    return;
  }
  DCL_ENSURE_MSG(hops_left > 0, "ghost probe stuck in a routing loop");
  Link* l = net_.node(at).next_hop(p.dst);
  DCL_ENSURE_MSG(l != nullptr, "ghost probe has no route at node " << at);
  const double delay =
      l->current_queuing_delay(t) + l->tx_time(p) + l->prop_delay();
  const NodeId next = l->to().id();
  net_.sim().schedule_at(t + delay, [this, p, next, hops_left]() {
    ghost_step(p, next, hops_left - 1);
  });
}

const std::map<std::uint64_t, ProbeLossRecord>& VirtualProbeTracer::losses(
    FlowId flow) const {
  auto it = losses_.find(flow);
  return it == losses_.end() ? kEmpty : it->second;
}

std::vector<double> VirtualProbeTracer::virtual_owds(FlowId flow) const {
  std::vector<double> owds;
  for (const auto& [seq, rec] : losses(flow))
    if (rec.completed) owds.push_back(rec.virtual_owd);
  return owds;
}

std::unordered_map<int, std::uint64_t> VirtualProbeTracer::loss_link_counts(
    FlowId flow) const {
  std::unordered_map<int, std::uint64_t> counts;
  for (const auto& [seq, rec] : losses(flow)) ++counts[rec.loss_link_id];
  return counts;
}

double VirtualProbeTracer::mean_queuing_delay(FlowId flow, int link_id) const {
  if (flow >= qstats_.size() || link_id < 0) return 0.0;
  const auto& row = qstats_[flow];
  const auto l = static_cast<std::size_t>(link_id);
  if (l >= row.size() || row[l].n == 0) return 0.0;
  return row[l].sum / static_cast<double>(row[l].n);
}

}  // namespace dcl::sim
