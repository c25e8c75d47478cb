#include "scenarios/chain.h"

#include "obs/obs.h"
#include "sim/droptail.h"
#include "util/error.h"
#include "util/rng.h"

namespace dcl::scenarios {

std::unique_ptr<sim::Queue> ChainScenario::make_router_queue(int link_index) {
  const auto i = static_cast<std::size_t>(link_index);
  if (cfg_.queue_kind == ChainConfig::QueueKind::kDropTail) {
    // Packet limit matching ns's packet-counted queues, sized so a full
    // queue of data packets matches the byte capacity (see droptail.h).
    const std::size_t pkts =
        std::max<std::size_t>(2, cfg_.buffer_bytes[i] / 1000);
    return std::make_unique<sim::DropTailQueue>(cfg_.buffer_bytes[i], pkts);
  }
  sim::RedConfig rc;
  rc.capacity_bytes = cfg_.buffer_bytes[i];
  rc.capacity_pkts = std::max<std::size_t>(2, cfg_.buffer_bytes[i] / 1000);
  rc.min_th_bytes = static_cast<std::size_t>(
      cfg_.red_min_th_frac * static_cast<double>(cfg_.buffer_bytes[i]));
  rc.min_th_bytes = std::max<std::size_t>(rc.min_th_bytes, 1000);
  rc.max_th_bytes = 3 * rc.min_th_bytes;  // may exceed the buffer, as in ns
  rc.bandwidth_bps = cfg_.bandwidth_bps[i];
  rc.seed = cfg_.seed * 1000 + static_cast<std::uint64_t>(link_index);
  return std::make_unique<sim::RedQueue>(rc);
}

ChainScenario::ChainScenario(const ChainConfig& cfg) : cfg_(cfg) {
  util::Rng rng(cfg_.seed);

  for (auto& r : routers_) r = net_.add_node();

  // Router chain (forward queues per config; generous reverse queues so
  // ACKs never drop on the reverse path, as in the paper's setup).
  for (int i = 0; i < 3; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    router_links_[i] =
        &net_.add_link(routers_[i], routers_[i + 1], cfg_.bandwidth_bps[idx],
                       cfg_.prop_delay_s[idx], make_router_queue(i));
    net_.add_link(routers_[i + 1], routers_[i], cfg_.bandwidth_bps[idx],
                  cfg_.prop_delay_s[idx],
                  std::make_unique<sim::DropTailQueue>(400000));
  }

  auto add_host = [&](sim::NodeId router) {
    const sim::NodeId h = net_.add_node();
    net_.add_duplex_link(h, router, cfg_.access_bw_bps,
                         rng.uniform(0.001, 0.002), cfg_.access_buffer_bytes);
    return h;
  };

  probe_src_ = add_host(routers_[0]);
  probe_dst_ = add_host(routers_[3]);
  const sim::NodeId tcp_src = add_host(routers_[0]);
  const sim::NodeId tcp_dst = add_host(routers_[3]);
  sim::NodeId udp_src[3], udp_dst[3];
  for (int i = 0; i < 3; ++i) {
    udp_src[i] = add_host(routers_[i]);
    udp_dst[i] = add_host(routers_[i + 1]);
  }

  net_.compute_routes();

  tracer_ = std::make_unique<sim::VirtualProbeTracer>(net_);
  net_.set_link_observer(tracer_.get());

  // Probing: the paper's 10-byte probes — one per 20 ms, or (in pair
  // mode) one back-to-back pair per 40 ms, the same total load.
  if (cfg_.probe_mode == ChainConfig::ProbeMode::kPeriodic) {
    traffic::ProberConfig pc;
    pc.src = probe_src_;
    pc.dst = probe_dst_;
    pc.interval = cfg_.probe_interval_s;
    pc.probe_bytes = cfg_.probe_bytes;
    pc.stop = cfg_.duration_s;
    prober_ = std::make_unique<traffic::PeriodicProber>(net_, pc);
  } else {
    traffic::PairProberConfig ppc;
    ppc.src = probe_src_;
    ppc.dst = probe_dst_;
    ppc.pair_interval = 2.0 * cfg_.probe_interval_s;
    ppc.probe_bytes = cfg_.probe_bytes;
    ppc.stop = cfg_.duration_s;
    pair_prober_ = std::make_unique<traffic::PairProber>(net_, ppc);
  }

  if (cfg_.with_ttl_prober) {
    traffic::TtlProberConfig tpc;
    tpc.src = probe_src_;
    tpc.dst = probe_dst_;
    tpc.max_hops = 4;  // r0..r3
    tpc.interval = 0.010;
    tpc.stop = cfg_.duration_s;
    ttl_prober_ = std::make_unique<traffic::TtlProber>(net_, tpc);
  }

  // End-to-end FTP flows with staggered starts.
  for (int f = 0; f < cfg_.ftp_flows; ++f) {
    traffic::TcpConfig tc;
    tc.src = tcp_src;
    tc.dst = tcp_dst;
    tc.start = rng.uniform(0.0, 5.0);
    const sim::FlowId flow = net_.new_flow_id();
    ftp_receivers_.push_back(
        std::make_unique<traffic::TcpReceiver>(net_, tcp_dst, flow));
    ftp_senders_.push_back(
        std::make_unique<traffic::TcpSender>(net_, tc, flow));
  }

  if (cfg_.http_arrival_rate > 0.0) {
    traffic::HttpConfig hc;
    hc.server = tcp_src;
    hc.client = tcp_dst;
    hc.arrival_rate = cfg_.http_arrival_rate;
    hc.max_concurrent = cfg_.http_max_concurrent;
    hc.stop = cfg_.duration_s;
    hc.seed = cfg_.seed * 7919 + 13;
    http_ = std::make_unique<traffic::HttpWorkload>(net_, hc);
  }

  for (int i = 0; i < 3; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (cfg_.udp_rate_bps[idx] <= 0.0) continue;
    traffic::UdpOnOffConfig uc;
    uc.src = udp_src[i];
    uc.dst = udp_dst[i];
    uc.rate_bps = cfg_.udp_rate_bps[idx];
    uc.pkt_bytes = 1000;  // align with the routers' packet-counted buffers
    uc.mean_on = cfg_.udp_mean_on_s[idx];
    uc.mean_off = cfg_.udp_mean_off_s[idx];
    uc.pareto_shape = cfg_.udp_period_shape[idx];
    uc.stop = cfg_.duration_s;
    uc.seed = cfg_.seed * 104729 + static_cast<std::uint64_t>(i);
    udp_.push_back(std::make_unique<traffic::UdpOnOffSource>(net_, uc));
  }
}

void ChainScenario::run() {
  DCL_ENSURE_MSG(!ran_, "scenario already ran");
  if (prober_) prober_->start();
  if (pair_prober_) pair_prober_->start();
  if (ttl_prober_) ttl_prober_->start();
  for (auto& s : ftp_senders_) s->start();
  if (http_) http_->start();
  for (auto& u : udp_) u->start();
  {
    DCL_STAGE("simulate");
    net_.sim().run_until(cfg_.duration_s + cfg_.drain_s);
  }
  ran_ = true;
  // When observability is on, publish the per-link queue accounting so a
  // metrics snapshot taken after the run carries the simulator telemetry.
  if (obs::enabled()) net_.export_metrics(obs::Registry::global());
}

inference::ObservationSequence ChainScenario::observations() const {
  return observations(window_start(), window_end());
}

inference::ObservationSequence ChainScenario::observations(double t0,
                                                           double t1) const {
  DCL_ENSURE(ran_);
  DCL_ENSURE_MSG(prober_ != nullptr,
                 "observations() requires ProbeMode::kPeriodic");
  return prober_->observations(t0, t1);
}

std::vector<double> ChainScenario::send_times(double t0, double t1) const {
  DCL_ENSURE_MSG(prober_ != nullptr, "requires ProbeMode::kPeriodic");
  DCL_ENSURE(ran_);
  std::vector<double> times;
  for (std::uint64_t seq : prober_->seqs_in(t0, t1))
    times.push_back(prober_->send_times()[seq]);
  return times;
}

std::vector<double> ChainScenario::ground_truth_virtual_owds() const {
  DCL_ENSURE_MSG(prober_ != nullptr, "requires ProbeMode::kPeriodic");
  DCL_ENSURE(ran_);
  std::vector<double> owds;
  for (const auto& [seq, rec] : tracer_->losses(prober_->flow())) {
    if (!rec.completed) continue;
    if (rec.send_time < window_start() || rec.send_time > window_end())
      continue;
    owds.push_back(rec.virtual_owd);
  }
  return owds;
}

std::vector<double> ChainScenario::ground_truth_virtual_owds_at(
    int link_index) const {
  DCL_ENSURE_MSG(prober_ != nullptr, "requires ProbeMode::kPeriodic");
  DCL_ENSURE(ran_);
  DCL_ENSURE(link_index >= 0 && link_index < 3);
  std::vector<double> owds;
  for (const auto& [seq, rec] : tracer_->losses(prober_->flow())) {
    if (!rec.completed) continue;
    if (rec.send_time < window_start() || rec.send_time > window_end())
      continue;
    if (rec.loss_link_id != router_links_[link_index]->id()) continue;
    owds.push_back(rec.virtual_owd);
  }
  return owds;
}

std::vector<std::pair<double, double>> ChainScenario::ground_truth_losses_at(
    int link_index) const {
  DCL_ENSURE_MSG(prober_ != nullptr, "requires ProbeMode::kPeriodic");
  DCL_ENSURE(ran_);
  DCL_ENSURE(link_index >= 0 && link_index < 3);
  std::vector<std::pair<double, double>> out;
  for (const auto& [seq, rec] : tracer_->losses(prober_->flow())) {
    if (!rec.completed) continue;
    if (rec.send_time < window_start() || rec.send_time > window_end())
      continue;
    if (rec.loss_link_id != router_links_[link_index]->id()) continue;
    out.emplace_back(rec.send_time, rec.virtual_owd);
  }
  return out;
}

std::array<std::uint64_t, 3> ChainScenario::probe_losses_by_link() const {
  DCL_ENSURE_MSG(prober_ != nullptr, "requires ProbeMode::kPeriodic");
  DCL_ENSURE(ran_);
  std::array<std::uint64_t, 3> counts{0, 0, 0};
  for (const auto& [seq, rec] : tracer_->losses(prober_->flow())) {
    if (rec.send_time < window_start() || rec.send_time > window_end())
      continue;
    for (int i = 0; i < 3; ++i)
      if (rec.loss_link_id == router_links_[i]->id())
        ++counts[static_cast<std::size_t>(i)];
  }
  return counts;
}

int ChainScenario::router_link_for_node(sim::NodeId router) const {
  // A TTL probe expiring at router r_i queued at the link *entering* r_i
  // (L_{i-1}); r0 is reached through the access link only.
  for (int i = 1; i < 4; ++i)
    if (routers_[i] == router) return i - 1;
  return -1;
}

double ChainScenario::true_qmax(int link_index) const {
  DCL_ENSURE(link_index >= 0 && link_index < 3);
  return router_links_[link_index]->max_queuing_delay();
}

double ChainScenario::link_loss_rate(int link_index) const {
  DCL_ENSURE(link_index >= 0 && link_index < 3);
  return router_links_[link_index]->queue().loss_rate();
}

double ChainScenario::true_propagation_delay() {
  return net_.path_min_owd(probe_src_, probe_dst_, cfg_.probe_bytes);
}

std::vector<double> ChainScenario::loss_pair_owds() const {
  DCL_ENSURE(ran_);
  DCL_ENSURE_MSG(pair_prober_ != nullptr,
                 "loss_pair_owds() requires ProbeMode::kPairs");
  return pair_prober_->loss_pair_owds(window_start(), window_end());
}

}  // namespace dcl::scenarios
