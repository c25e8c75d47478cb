#include "sim/node.h"

#include "sim/link.h"
#include "util/error.h"

namespace dcl::sim {

namespace {
// Flow ids index a table per node; this bound only catches ids that were
// not allocated by Network::new_flow_id.
constexpr FlowId kMaxFlowId = FlowId{1} << 24;
}  // namespace

void Node::set_next_hop(NodeId dst, Link* link) {
  DCL_ENSURE(dst >= 0);
  const auto i = static_cast<std::size_t>(dst);
  if (i >= routes_.size()) routes_.resize(i + 1, nullptr);
  routes_[i] = link;
}

void Node::attach(FlowId flow, Agent* agent) {
  DCL_ENSURE(agent != nullptr);
  DCL_ENSURE_MSG(flow < kMaxFlowId, "flow id " << flow << " out of range");
  if (flow >= agents_.size()) agents_.resize(flow + 1, nullptr);
  agents_[flow] = agent;
}

void Node::receive(Packet p, Time now) {
  if (p.dst == id_) {
    Agent* agent = p.flow < agents_.size() ? agents_[p.flow] : nullptr;
    if (agent == nullptr) {
      ++undeliverable_;
      return;
    }
    agent->on_receive(std::move(p), now);
    return;
  }
  // Forwarding: decrement the hop limit (but not at the originating host —
  // ttl=1 must expire at the first *router*); on expiry discard the packet
  // and return an ICMP time-exceeded reply (never for ICMP itself).
  if (p.src != id_ && (p.ttl == 0 || --p.ttl == 0)) {
    ++ttl_expired_;
    if (p.type != PacketType::kIcmp) {
      Packet reply;
      reply.type = PacketType::kIcmp;
      reply.src = id_;
      reply.dst = p.src;
      reply.flow = p.flow;
      reply.seq = p.seq;
      reply.aux = static_cast<std::uint64_t>(id_);
      reply.size_bytes = 56;
      reply.send_time = now;
      Link* back = next_hop(reply.dst);
      if (back != nullptr)
        back->send(std::move(reply));
      else
        ++unroutable_;
    }
    return;
  }
  Link* link = next_hop(p.dst);
  if (link == nullptr) {
    ++unroutable_;
    return;
  }
  link->send(std::move(p));
}

}  // namespace dcl::sim
