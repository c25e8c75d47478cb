// Nodes model both routers and end hosts. A node forwards packets destined
// elsewhere via a static next-hop table and delivers packets addressed to
// itself to the Agent registered for the packet's flow. Both tables are
// vectors indexed by id: node ids are dense, and flow ids are small and
// sequential (Network::new_flow_id).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/packet.h"
#include "sim/types.h"

namespace dcl::sim {

class Link;

// An application endpoint (probe sink, TCP endpoint, ...) attached to a
// node under one or more flow ids.
class Agent {
 public:
  virtual ~Agent() = default;
  virtual void on_receive(Packet p, Time now) = 0;
};

class Node {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  void set_next_hop(NodeId dst, Link* link);
  // Next-hop link toward `dst`, or nullptr when unknown.
  Link* next_hop(NodeId dst) const {
    const auto i = static_cast<std::size_t>(dst);
    return i < routes_.size() ? routes_[i] : nullptr;
  }

  void attach(FlowId flow, Agent* agent);
  void detach(FlowId flow) {
    if (flow < agents_.size()) agents_[flow] = nullptr;
  }

  // Delivery/forwarding entry point, called by links.
  void receive(Packet p, Time now);

  void add_out_link(Link* link) { out_links_.push_back(link); }
  const std::vector<Link*>& out_links() const { return out_links_; }

  // Packets addressed to this node whose flow had no registered agent
  // (e.g., segments arriving after an application finished).
  std::uint64_t undeliverable() const { return undeliverable_; }
  // Packets for which no route existed.
  std::uint64_t unroutable() const { return unroutable_; }
  // Packets discarded here because their TTL expired.
  std::uint64_t ttl_expired() const { return ttl_expired_; }

 private:
  NodeId id_;
  std::string name_;
  std::vector<Link*> routes_;    // by destination node id
  std::vector<Agent*> agents_;   // by flow id
  std::vector<Link*> out_links_;
  std::uint64_t undeliverable_ = 0;
  std::uint64_t unroutable_ = 0;
  std::uint64_t ttl_expired_ = 0;
};

}  // namespace dcl::sim
