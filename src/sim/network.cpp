#include "sim/network.h"

#include <deque>
#include <limits>

#include "sim/droptail.h"
#include "util/error.h"

namespace dcl::sim {

NodeId Network::add_node(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  if (name.empty()) name.append("n").append(std::to_string(id));
  nodes_.push_back(std::make_unique<Node>(id, std::move(name)));
  return id;
}

Link& Network::add_link(NodeId from, NodeId to, double bandwidth_bps,
                        Time prop_delay, std::unique_ptr<Queue> queue) {
  Node& f = node(from);
  Node& t = node(to);
  const int id = static_cast<int>(links_.size());
  links_.push_back(std::make_unique<Link>(id, sim_, f, t, bandwidth_bps,
                                          prop_delay, std::move(queue)));
  f.add_out_link(links_.back().get());
  return *links_.back();
}

std::pair<Link*, Link*> Network::add_duplex_link(NodeId a, NodeId b,
                                                 double bandwidth_bps,
                                                 Time prop_delay,
                                                 std::size_t buffer_bytes) {
  Link& fwd = add_link(a, b, bandwidth_bps, prop_delay,
                       std::make_unique<DropTailQueue>(buffer_bytes));
  Link& rev = add_link(b, a, bandwidth_bps, prop_delay,
                       std::make_unique<DropTailQueue>(buffer_bytes));
  return {&fwd, &rev};
}

void Network::compute_routes() {
  const std::size_t n = nodes_.size();
  // BFS from every destination over reversed links: for each node we learn
  // the first hop of a shortest path toward the destination.
  for (std::size_t dst = 0; dst < n; ++dst) {
    std::vector<int> dist(n, std::numeric_limits<int>::max());
    // next_link[v] = out-link of v on a shortest path to dst.
    std::vector<Link*> next_link(n, nullptr);
    dist[dst] = 0;
    std::deque<NodeId> frontier{static_cast<NodeId>(dst)};
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop_front();
      // Scan links entering v: their upstream node can reach dst via v.
      for (const auto& l : links_) {
        if (l->to().id() != v) continue;
        const NodeId u = l->from().id();
        if (dist[u] != std::numeric_limits<int>::max()) continue;
        dist[u] = dist[v] + 1;
        next_link[u] = l.get();
        frontier.push_back(u);
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (v != dst && next_link[v] != nullptr)
        nodes_[v]->set_next_hop(static_cast<NodeId>(dst), next_link[v]);
    }
  }
}

Node& Network::node(NodeId id) {
  DCL_ENSURE(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return *nodes_[static_cast<std::size_t>(id)];
}

const Node& Network::node(NodeId id) const {
  DCL_ENSURE(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
  return *nodes_[static_cast<std::size_t>(id)];
}

Link* Network::find_link(NodeId from, NodeId to) {
  for (const auto& l : links_)
    if (l->from().id() == from && l->to().id() == to) return l.get();
  return nullptr;
}

void Network::set_link_observer(LinkObserver* observer) {
  for (const auto& l : links_) l->set_observer(observer);
}

void Network::export_metrics(obs::Registry& reg,
                             std::string_view prefix) const {
  for (const auto& l : links_) {
    const std::string base = std::string(prefix) + ".link" +
                             std::to_string(l->id()) + "." +
                             l->from().name() + "->" + l->to().name();
    const Queue& q = l->queue();
    reg.counter(base + ".enqueued").set(l->enqueued());
    reg.counter(base + ".dropped").set(l->dropped());
    reg.counter(base + ".delivered").set(l->delivered());
    reg.counter(base + ".arrivals").set(q.arrivals());
    reg.counter(base + ".probe_arrivals").set(q.arrivals(PacketType::kProbe));
    reg.counter(base + ".probe_drops").set(q.drops(PacketType::kProbe));
    reg.gauge(base + ".loss_rate").set(q.loss_rate());
    reg.gauge(base + ".queue_hwm_bytes")
        .set(static_cast<double>(q.high_water_bytes()));
    reg.gauge(base + ".queue_hwm_pkts")
        .set(static_cast<double>(q.high_water_pkts()));
    reg.gauge(base + ".capacity_bytes")
        .set(static_cast<double>(q.capacity_bytes()));
  }
}

std::vector<Link*> Network::route_links(NodeId src, NodeId dst) {
  std::vector<Link*> path;
  NodeId at = src;
  while (at != dst) {
    Link* l = node(at).next_hop(dst);
    if (l == nullptr) return {};
    path.push_back(l);
    at = l->to().id();
    DCL_ENSURE_MSG(path.size() <= nodes_.size(), "routing loop detected");
  }
  return path;
}

double Network::path_min_owd(NodeId src, NodeId dst,
                             std::uint32_t pkt_bytes) {
  const auto path = route_links(src, dst);
  DCL_ENSURE_MSG(!path.empty(), "no route from " << src << " to " << dst);
  double owd = 0.0;
  for (Link* l : path) {
    owd += l->prop_delay();
    owd += static_cast<double>(pkt_bytes) * 8.0 / l->bandwidth_bps();
  }
  return owd;
}

}  // namespace dcl::sim
