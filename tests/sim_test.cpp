// Unit tests for the discrete-event simulator: scheduler ordering, queue
// disciplines, link timing, routing, and the virtual-probe tracer.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/droptail.h"
#include "sim/link.h"
#include "sim/network.h"
#include "sim/probe_trace.h"
#include "sim/red.h"
#include "sim/simulator.h"
#include "util/error.h"
#include "util/rng.h"

namespace dcl::sim {
namespace {

Packet make_packet(NodeId src, NodeId dst, std::uint32_t bytes,
                   PacketType type = PacketType::kUdp, FlowId flow = 1) {
  Packet p;
  p.type = type;
  p.src = src;
  p.dst = dst;
  p.flow = flow;
  p.size_bytes = bytes;
  return p;
}

// Typed-event target that records the argument of every event it gets.
struct Recorder final : EventTarget {
  std::vector<int>* order = nullptr;
  void on_event(std::uint64_t arg) override {
    order->push_back(static_cast<int>(arg));
  }
};

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 3u);

  // Many events over few distinct times, typed and callable mixed, some
  // scheduled while the run is under way: they fire sorted by time, ties
  // in scheduling order.
  Simulator mixed;
  Recorder rec;
  std::vector<int> fired;
  rec.order = &fired;
  std::vector<std::pair<Time, int>> expected;
  util::Rng rng(3);
  int id = 0;
  const auto add = [&](Time t) {
    expected.emplace_back(t, id);
    if (id % 2 == 0)
      mixed.schedule_at(t, rec, static_cast<std::uint64_t>(id));
    else
      mixed.schedule_at(t, [&fired, id] { fired.push_back(id); });
    ++id;
  };
  for (int i = 0; i < 300; ++i) add(static_cast<Time>(rng.uniform_int(0, 9)));
  mixed.schedule_at(4.0, [&] {
    for (int i = 0; i < 50; ++i)
      add(static_cast<Time>(rng.uniform_int(4, 9)));
  });
  mixed.run();
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<int> want;
  for (const auto& [t, i] : expected) want.push_back(i);
  EXPECT_EQ(fired, want);
  EXPECT_EQ(mixed.events_processed(), 351u);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

  // Typed events and callables share one sequence: at one timestamp they
  // fire in scheduling order whichever kind they are, and an event a
  // same-time event schedules runs after those already waiting.
  Simulator mixed;
  Recorder rec;
  order.clear();
  rec.order = &order;
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 0)
      mixed.schedule_at(1.0, rec, static_cast<std::uint64_t>(i));
    else
      mixed.schedule_at(1.0, [&, i] {
        order.push_back(i);
        if (i == 1) mixed.schedule_at(1.0, rec, 6);
      });
  }
  mixed.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(Simulator, RunUntilAdvancesClockAndLeavesFutureEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(10.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run_until(20.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, NestedSchedulingDuringRun) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&]() {
    if (++count < 5) sim.schedule_in(1.0, tick);
  };
  sim.schedule_at(0.0, tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.run_until(10.0);
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), util::Error);
}

TEST(DropTail, AcceptsUntilFullThenDrops) {
  DropTailQueue q(1000);
  Packet p = make_packet(0, 1, 400);
  EXPECT_TRUE(q.try_enqueue(p, 0.0));
  EXPECT_TRUE(q.try_enqueue(p, 0.0));
  EXPECT_FALSE(q.try_enqueue(p, 0.0));  // 1200 > 1000
  EXPECT_EQ(q.backlog_bytes(), 800u);
  EXPECT_EQ(q.arrivals(), 3u);
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_NEAR(q.loss_rate(), 1.0 / 3.0, 1e-12);
}

TEST(DropTail, FifoOrder) {
  DropTailQueue q(10000);
  for (std::uint64_t i = 0; i < 5; ++i) {
    Packet p = make_packet(0, 1, 100);
    p.seq = i;
    q.try_enqueue(p, 0.0);
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto p = q.dequeue(0.0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_FALSE(q.dequeue(0.0).has_value());
  EXPECT_TRUE(q.empty());
}

TEST(DropTail, ExactFitAccepted) {
  DropTailQueue q(1000);
  EXPECT_TRUE(q.try_enqueue(make_packet(0, 1, 1000), 0.0));
  EXPECT_EQ(q.backlog_bytes(), 1000u);
}

TEST(Red, NoDropsBelowMinThreshold) {
  RedConfig cfg;
  cfg.capacity_bytes = 100000;
  cfg.min_th_bytes = 20000;
  cfg.max_th_bytes = 60000;
  RedQueue q(cfg);
  // Fill to just below min_th: no early drops possible.
  for (int i = 0; i < 19; ++i)
    EXPECT_TRUE(q.try_enqueue(make_packet(0, 1, 1000), 0.0));
  EXPECT_EQ(q.drops(), 0u);
}

TEST(Red, ForcedDropWhenBufferFull) {
  RedConfig cfg;
  cfg.capacity_bytes = 5000;
  cfg.min_th_bytes = 1000;
  cfg.max_th_bytes = 3000;
  cfg.adaptive = false;
  RedQueue q(cfg);
  int accepted = 0;
  for (int i = 0; i < 100; ++i)
    accepted += q.try_enqueue(make_packet(0, 1, 1000), 0.0) ? 1 : 0;
  EXPECT_LE(accepted, 5);
  EXPECT_GT(q.drops(), 0u);
  EXPECT_GT(q.forced_drops() + q.early_drops(), 0u);
}

TEST(Red, EarlyDropRateIncreasesWithAverageQueue) {
  // Hold the instantaneous queue at two different levels long enough for
  // the EWMA to track it and compare observed early-drop frequencies.
  auto drop_fraction = [](std::size_t level_bytes) {
    RedConfig cfg;
    cfg.capacity_bytes = 100000;
    cfg.min_th_bytes = 10000;
    cfg.max_th_bytes = 40000;
    cfg.adaptive = false;
    cfg.initial_max_p = 0.1;
    cfg.seed = 99;
    RedQueue q(cfg);
    // Alternate enqueue/dequeue around the target level.
    int drops = 0, arrivals = 0;
    double t = 0.0;
    while (q.backlog_bytes() < level_bytes) {
      q.try_enqueue(make_packet(0, 1, 1000), t);
      t += 1e-4;
    }
    for (int i = 0; i < 5000; ++i) {
      ++arrivals;
      if (!q.try_enqueue(make_packet(0, 1, 1000), t)) ++drops;
      q.dequeue(t);
      t += 1e-4;
    }
    return static_cast<double>(drops) / arrivals;
  };
  const double low = drop_fraction(15000);
  const double high = drop_fraction(35000);
  EXPECT_GT(high, low);
}

TEST(Red, GentleModeDropsHardAboveMaxThreshold) {
  RedConfig cfg;
  cfg.capacity_bytes = 200000;
  cfg.min_th_bytes = 10000;
  cfg.max_th_bytes = 30000;
  cfg.adaptive = false;
  RedQueue q(cfg);
  // Push the average far above 2*max_th: everything must drop.
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    q.try_enqueue(make_packet(0, 1, 1000), t);
    t += 1e-5;
  }
  const std::uint64_t before = q.drops();
  int dropped = 0;
  for (int i = 0; i < 50; ++i)
    dropped += q.try_enqueue(make_packet(0, 1, 1000), t) ? 0 : 1;
  EXPECT_GT(q.drops(), before);
  EXPECT_GT(dropped, 40);
}

// Two nodes, one link: delivery time = queuing + transmission + propagation.
TEST(Link, DeliveryTimingIsExact) {
  Network net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  // 1 Mb/s, 10 ms propagation.
  net.add_link(a, b, 1e6, 0.010, std::make_unique<DropTailQueue>(100000));
  net.compute_routes();

  struct Sink final : Agent {
    std::vector<Time> arrivals;
    void on_receive(Packet, Time now) override { arrivals.push_back(now); }
  } sink;
  net.node(b).attach(7, &sink);

  // Two 1250-byte packets (10 ms transmission each) injected together.
  for (int i = 0; i < 2; ++i) {
    Packet p = make_packet(a, b, 1250);
    p.flow = 7;
    p.seq = static_cast<std::uint64_t>(i);
    net.sim().schedule_at(0.0, [&net, p] { net.inject(p); });
  }
  net.sim().run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_NEAR(sink.arrivals[0], 0.020, 1e-9);  // tx + prop
  EXPECT_NEAR(sink.arrivals[1], 0.030, 1e-9);  // queued behind the first
}

// Zero-byte packets on a zero-propagation link: their transmission ends
// and deliveries fall at one instant, so only event sequence numbers order
// them. Deliveries must still come in service order — including the ties
// between the 1250-byte packet's delivery and those of the zero-byte
// packets queued behind it.
TEST(Link, ZeroPropagationTiesArriveInServiceOrder) {
  Network net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  net.add_link(a, b, 1e6, 0.0, std::make_unique<DropTailQueue>(100000));
  net.compute_routes();

  struct Sink final : Agent {
    std::vector<std::pair<std::uint64_t, Time>> arrivals;
    void on_receive(Packet p, Time now) override {
      arrivals.emplace_back(p.seq, now);
    }
  } sink;
  net.node(b).attach(3, &sink);

  const std::uint32_t sizes[] = {0, 0, 0, 1250, 0, 0};
  net.sim().schedule_at(0.0, [&] {
    for (std::uint64_t i = 0; i < 6; ++i) {
      Packet p = make_packet(a, b, sizes[i], PacketType::kUdp, 3);
      p.seq = i;
      net.inject(p);
    }
  });
  net.sim().run();
  ASSERT_EQ(sink.arrivals.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(sink.arrivals[i].first, i);
    EXPECT_DOUBLE_EQ(sink.arrivals[i].second, i < 3 ? 0.0 : 0.010);
  }
}

TEST(Link, ThroughputMatchesBandwidth) {
  Network net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  net.add_link(a, b, 8e5, 0.0, std::make_unique<DropTailQueue>(1000000));
  net.compute_routes();

  struct Sink final : Agent {
    std::uint64_t bytes = 0;
    Time last = 0.0;
    void on_receive(Packet p, Time now) override {
      bytes += p.size_bytes;
      last = now;
    }
  } sink;
  net.node(b).attach(1, &sink);

  // 100 kB total at 800 kb/s -> exactly 1 second of transmission.
  net.sim().schedule_at(0.0, [&] {
    for (int i = 0; i < 100; ++i) net.inject(make_packet(a, b, 1000));
  });
  net.sim().run();
  EXPECT_EQ(sink.bytes, 100000u);
  EXPECT_NEAR(sink.last, 1.0, 1e-9);
}

TEST(Link, MaxQueuingDelayIsBufferDrainTime) {
  Network net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  Link& l =
      net.add_link(a, b, 1e6, 0.005, std::make_unique<DropTailQueue>(20000));
  EXPECT_NEAR(l.max_queuing_delay(), 20000.0 * 8.0 / 1e6, 1e-12);
}

TEST(Network, BfsRoutesAreShortestHop) {
  // Diamond: 0 -> 1 -> 3 and 0 -> 2 -> 3, plus a direct long path 0 -> 4
  // -> 5 -> 3.
  Network net;
  for (int i = 0; i < 6; ++i) net.add_node();
  auto dt = [] { return std::make_unique<DropTailQueue>(10000); };
  net.add_link(0, 1, 1e6, 0.001, dt());
  net.add_link(1, 3, 1e6, 0.001, dt());
  net.add_link(0, 2, 1e6, 0.001, dt());
  net.add_link(2, 3, 1e6, 0.001, dt());
  net.add_link(0, 4, 1e6, 0.001, dt());
  net.add_link(4, 5, 1e6, 0.001, dt());
  net.add_link(5, 3, 1e6, 0.001, dt());
  net.compute_routes();
  const auto path = net.route_links(0, 3);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path.back()->to().id(), 3);
}

TEST(Network, UnroutablePacketsAreCounted) {
  Network net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  net.add_node();  // isolated node c
  net.add_link(a, b, 1e6, 0.0, std::make_unique<DropTailQueue>(10000));
  net.compute_routes();
  net.sim().schedule_at(0.0, [&] { net.inject(make_packet(a, 2, 100)); });
  net.sim().run();
  EXPECT_EQ(net.node(a).unroutable(), 1u);
}

TEST(Network, UndeliverableFlowsAreCounted) {
  Network net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  net.add_link(a, b, 1e6, 0.0, std::make_unique<DropTailQueue>(10000));
  net.compute_routes();
  net.sim().schedule_at(0.0, [&] { net.inject(make_packet(a, b, 100)); });
  net.sim().run();
  EXPECT_EQ(net.node(b).undeliverable(), 1u);
}

TEST(Network, PathMinOwdSumsHops) {
  Network net;
  for (int i = 0; i < 3; ++i) net.add_node();
  net.add_link(0, 1, 1e6, 0.010, std::make_unique<DropTailQueue>(10000));
  net.add_link(1, 2, 2e6, 0.020, std::make_unique<DropTailQueue>(10000));
  net.compute_routes();
  // 1000 bytes: 8 ms on hop 1, 4 ms on hop 2, + 30 ms propagation.
  EXPECT_NEAR(net.path_min_owd(0, 2, 1000), 0.010 + 0.008 + 0.020 + 0.004,
              1e-12);
}

// Virtual-probe tracer: drop a probe at a full link and verify the ghost's
// virtual delay equals Q_k plus the (empty) downstream path delays.
TEST(VirtualProbeTracer, GhostDelayMatchesHandComputation) {
  Network net;
  for (int i = 0; i < 3; ++i) net.add_node();
  // Hop 0: 1 Mb/s, buffer 10000 bytes (Q_max = 80 ms), prop 5 ms.
  net.add_link(0, 1, 1e6, 0.005, std::make_unique<DropTailQueue>(10000));
  // Hop 1: 10 Mb/s, idle, prop 7 ms.
  net.add_link(1, 2, 1e7, 0.007, std::make_unique<DropTailQueue>(100000));
  net.compute_routes();
  VirtualProbeTracer tracer(net);
  net.set_link_observer(&tracer);

  struct Sink final : Agent {
    int got = 0;
    void on_receive(Packet, Time) override { ++got; }
  } sink;
  net.node(2).attach(5, &sink);  // the probe flow
  net.node(2).attach(1, &sink);  // the filler flow

  net.sim().schedule_at(0.0, [&] {
    // 11 packets: the first enters service immediately, the next 10 fill
    // the buffer exactly; the probe then finds no room and is dropped.
    for (int i = 0; i < 11; ++i) net.inject(make_packet(0, 2, 1000));
    Packet probe = make_packet(0, 2, 100, PacketType::kProbe, 5);
    probe.seq = 1;
    probe.send_time = 0.0;
    net.inject(probe);
  });
  net.sim().run();

  const auto& losses = tracer.losses(5);
  ASSERT_EQ(losses.size(), 1u);
  const auto& rec = losses.at(1);
  EXPECT_TRUE(rec.completed);
  EXPECT_EQ(rec.loss_link_id, 0);
  // Virtual delay at the dropping link: the queue as found = 10 queued
  // packets (80 ms drain) plus the full residual of the in-service packet
  // (8 ms, service started at t=0) = 88 ms, + tx(100B@1Mb/s)=0.8ms +
  // prop 5ms. Hop 1 is (nearly) empty at the ghost's arrival:
  // tx(100B@10Mb/s)=0.08ms + prop 7ms.
  const double expected = 0.088 + 0.0008 + 0.005 + 0.00008 + 0.007;
  EXPECT_NEAR(rec.virtual_owd, expected, 1e-6);
  EXPECT_EQ(sink.got, 11);  // the probe itself never arrived
}

TEST(VirtualProbeTracer, EnqueuedProbesRecordQueuingDelay) {
  Network net;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  net.add_link(a, b, 1e6, 0.0, std::make_unique<DropTailQueue>(100000));
  net.compute_routes();
  VirtualProbeTracer tracer(net);
  net.set_link_observer(&tracer);
  struct Sink final : Agent {
    void on_receive(Packet, Time) override {}
  } sink;
  net.node(b).attach(9, &sink);

  net.sim().schedule_at(0.0, [&] {
    // One 1000-byte packet (8 ms transmission), then a probe: the probe
    // waits the full 8 ms.
    net.inject(make_packet(a, b, 1000));
    Packet probe = make_packet(a, b, 10, PacketType::kProbe, 9);
    net.inject(probe);
  });
  net.sim().run();
  EXPECT_NEAR(tracer.mean_queuing_delay(9, 0), 0.008, 1e-9);
}

}  // namespace
}  // namespace dcl::sim
