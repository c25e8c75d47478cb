// TCP Reno/NewReno behavioral tests: reliability, throughput, congestion
// response, and recovery mechanics.
#include <gtest/gtest.h>

#include <memory>

#include "sim/droptail.h"
#include "sim/network.h"
#include "traffic/tcp.h"

namespace dcl::traffic {
namespace {

struct Duplex {
  sim::Network net;
  sim::NodeId a, b;
};

// Two hosts joined by a duplex bottleneck of the given bandwidth/buffer.
void build_duplex(Duplex& d, double bw_bps, std::size_t buf_bytes,
                  double prop = 0.010) {
  d.a = d.net.add_node();
  d.b = d.net.add_node();
  d.net.add_link(d.a, d.b, bw_bps, prop,
                 std::make_unique<sim::DropTailQueue>(buf_bytes));
  d.net.add_link(d.b, d.a, bw_bps, prop,
                 std::make_unique<sim::DropTailQueue>(1000000));
  d.net.compute_routes();
}

TEST(Tcp, TransfersFixedAmountReliably) {
  Duplex d;
  build_duplex(d, 1e6, 20000);
  TcpConfig cfg;
  cfg.src = d.a;
  cfg.dst = d.b;
  cfg.total_segments = 500;
  const sim::FlowId flow = d.net.new_flow_id();
  TcpReceiver rcv(d.net, d.b, flow);
  TcpSender snd(d.net, cfg, flow);
  bool finished_cb = false;
  snd.set_on_finished([&] { finished_cb = true; });
  snd.start();
  d.net.sim().run_until(100.0);
  EXPECT_TRUE(snd.finished());
  EXPECT_TRUE(finished_cb);
  EXPECT_EQ(rcv.delivered_in_order(), 500u);
  EXPECT_EQ(snd.segments_acked(), 500u);
}

// An HTTP transfer frees its sender while the sender's retransmission
// timer and jittered sends may still be pending. The timer must become a
// no-op and the already-formed segments must still be injected, without
// touching the freed sender (the sanitized build checks the latter).
TEST(Tcp, FreedSenderLeavesPendingEventsHarmless) {
  Duplex d;
  build_duplex(d, 1e6, 20000);
  TcpConfig cfg;
  cfg.src = d.a;
  cfg.dst = d.b;
  cfg.total_segments = 50;
  cfg.send_jitter_s = 0.2;  // the first window waits up to 200 ms
  const sim::FlowId flow = d.net.new_flow_id();
  auto rcv = std::make_unique<TcpReceiver>(d.net, d.b, flow);
  auto snd = std::make_unique<TcpSender>(d.net, cfg, flow);
  snd->start();
  d.net.sim().run_until(0.001);
  EXPECT_EQ(d.net.find_link(d.a, d.b)->enqueued(), 0u);
  snd.reset();
  rcv.reset();
  d.net.sim().run_until(10.0);
  // The initial window's two segments arrived with nobody to take them;
  // nothing else was sent.
  EXPECT_EQ(d.net.node(d.b).undeliverable(), 2u);
  EXPECT_EQ(d.net.find_link(d.a, d.b)->delivered(), 2u);
  EXPECT_TRUE(d.net.sim().empty());
}

TEST(Tcp, SaturatesAnUncontendedLink) {
  Duplex d;
  build_duplex(d, 2e6, 40000);
  TcpConfig cfg;
  cfg.src = d.a;
  cfg.dst = d.b;
  // 2 Mb/s for 40 s = 10000 segments of 1000 B; ask for 80% of that.
  cfg.total_segments = 8000;
  const sim::FlowId flow = d.net.new_flow_id();
  TcpReceiver rcv(d.net, d.b, flow);
  TcpSender snd(d.net, cfg, flow);
  snd.start();
  d.net.sim().run_until(40.0);
  EXPECT_TRUE(snd.finished());
  // Goodput >= 80% of capacity despite slow start and any losses.
  EXPECT_GE(rcv.delivered_in_order(), 8000u);
}

TEST(Tcp, ReliableUnderHeavyLoss) {
  // A tiny buffer forces repeated loss episodes; every segment must still
  // arrive (checked via cumulative in-order delivery).
  Duplex d;
  build_duplex(d, 5e5, 4000);
  TcpConfig cfg;
  cfg.src = d.a;
  cfg.dst = d.b;
  cfg.total_segments = 1000;
  const sim::FlowId flow = d.net.new_flow_id();
  TcpReceiver rcv(d.net, d.b, flow);
  TcpSender snd(d.net, cfg, flow);
  snd.start();
  d.net.sim().run_until(300.0);
  EXPECT_TRUE(snd.finished());
  EXPECT_EQ(rcv.delivered_in_order(), 1000u);
  EXPECT_GT(snd.retransmissions(), 0u);
}

TEST(Tcp, LossReducesCongestionWindow) {
  Duplex d;
  build_duplex(d, 1e6, 10000);
  TcpConfig cfg;
  cfg.src = d.a;
  cfg.dst = d.b;
  const sim::FlowId flow = d.net.new_flow_id();
  TcpReceiver rcv(d.net, d.b, flow);
  TcpSender snd(d.net, cfg, flow);
  snd.start();

  // Sample cwnd over time; after the first loss episode the window must
  // have come back down from its slow-start peak.
  double peak = 0.0;
  double after = 1e9;
  for (double t = 0.5; t <= 30.0; t += 0.5) {
    d.net.sim().run_until(t);
    peak = std::max(peak, snd.cwnd());
    after = snd.cwnd();
  }
  EXPECT_GT(snd.retransmissions(), 0u);
  EXPECT_LT(after, peak);
}

TEST(Tcp, FairShareBetweenTwoFlows) {
  Duplex d;
  build_duplex(d, 2e6, 25000);
  const sim::FlowId f1 = d.net.new_flow_id();
  const sim::FlowId f2 = d.net.new_flow_id();
  TcpReceiver r1(d.net, d.b, f1), r2(d.net, d.b, f2);
  TcpConfig cfg;
  cfg.src = d.a;
  cfg.dst = d.b;
  TcpSender s1(d.net, cfg, f1);
  TcpConfig cfg2 = cfg;
  cfg2.start = 0.1;
  TcpSender s2(d.net, cfg2, f2);
  s1.start();
  s2.start();
  d.net.sim().run_until(120.0);
  const auto d1 = static_cast<double>(r1.delivered_in_order());
  const auto d2 = static_cast<double>(r2.delivered_in_order());
  EXPECT_GT(d1, 0.0);
  EXPECT_GT(d2, 0.0);
  // Long-run shares within a factor of ~2 of each other.
  EXPECT_LT(std::max(d1, d2) / std::min(d1, d2), 2.0);
  // Together they use most of the link: 2 Mb/s * 120 s = 30000 segments.
  EXPECT_GT(d1 + d2, 0.75 * 30000.0);
}

TEST(Tcp, RtoEstimatorTracksPathRtt) {
  Duplex d;
  build_duplex(d, 1e7, 1000000, /*prop=*/0.050);
  TcpConfig cfg;
  cfg.src = d.a;
  cfg.dst = d.b;
  cfg.total_segments = 200;
  const sim::FlowId flow = d.net.new_flow_id();
  TcpReceiver rcv(d.net, d.b, flow);
  TcpSender snd(d.net, cfg, flow);
  snd.start();
  d.net.sim().run_until(30.0);
  EXPECT_TRUE(snd.finished());
  // RTT ~ 100 ms + transmission; srtt should be close.
  EXPECT_NEAR(snd.srtt(), 0.1, 0.03);
}

TEST(Tcp, ReceiverReassemblesOutOfOrder) {
  // Directly exercise receiver reassembly with hand-crafted arrivals.
  sim::Network net;
  const sim::NodeId a = net.add_node();
  const sim::NodeId b = net.add_node();
  net.add_duplex_link(a, b, 1e6, 0.001, 100000);
  net.compute_routes();
  TcpReceiver rcv(net, b, 42);
  auto deliver = [&](std::uint64_t seq) {
    sim::Packet p;
    p.type = sim::PacketType::kTcpData;
    p.src = a;
    p.dst = b;
    p.flow = 42;
    p.seq = seq;
    p.size_bytes = 1000;
    rcv.on_receive(p, 0.0);
  };
  deliver(0);
  deliver(2);
  deliver(3);
  EXPECT_EQ(rcv.next_expected(), 1u);  // hole at 1
  deliver(1);
  EXPECT_EQ(rcv.next_expected(), 4u);  // hole filled, buffer drained
  deliver(1);                          // stale duplicate
  EXPECT_EQ(rcv.duplicates(), 1u);
  EXPECT_EQ(rcv.next_expected(), 4u);
}

}  // namespace
}  // namespace dcl::traffic
