// Adaptive RED queue in gentle mode, after Floyd, Gummadi & Shenker,
// "Adaptive RED: an algorithm for increasing the robustness of RED's
// active queue management" (2001). Used by the paper's Section VI-A5 to
// study how AQM (non-droptail) routers affect the identification.
//
// The averaging and thresholds operate in bytes. The drop probability
// ramps linearly from 0 to max_p between min_th and max_th, then (gentle
// mode) from max_p to 1 between max_th and 2*max_th. max_p itself adapts
// every `adapt_interval` so that the average queue settles inside the
// target band [min_th + 0.4*(max_th-min_th), min_th + 0.6*(max_th-min_th)].
#pragma once

#include "sim/packet_fifo.h"
#include "sim/queue.h"
#include "util/rng.h"

namespace dcl::sim {

struct RedConfig {
  std::size_t capacity_bytes = 64000;  // hard buffer limit
  // Optional packet-count limit (0 = disabled), mirroring ns's
  // packet-counted queues; see droptail.h for why probes need it.
  std::size_t capacity_pkts = 0;
  std::size_t min_th_bytes = 0;        // 0 -> capacity/5
  std::size_t max_th_bytes = 0;        // 0 -> 3 * min_th
  double wq = 0.002;                   // EWMA weight for the average queue
  double initial_max_p = 0.1;
  // Used to decay the average across idle periods: the number of "typical"
  // packets that could have been transmitted while idle. Set to the link
  // bandwidth by the topology builder.
  double bandwidth_bps = 1e6;
  double mean_pkt_bytes = 500.0;
  // Adaptive-RED knobs.
  bool adaptive = true;
  double adapt_interval = 0.5;  // seconds
  double beta = 0.9;            // multiplicative decrease of max_p
  double max_p_min = 0.01;
  double max_p_max = 0.5;
  std::uint64_t seed = 1;
};

class RedQueue final : public Queue {
 public:
  explicit RedQueue(const RedConfig& cfg);

  bool try_enqueue(const Packet& p, Time now) override;
  std::optional<Packet> dequeue(Time now) override;
  std::size_t backlog_bytes() const override { return backlog_; }
  std::size_t backlog_pkts() const override { return q_.size(); }
  std::size_t capacity_bytes() const override { return cfg_.capacity_bytes; }
  bool empty() const override { return q_.empty(); }

  double avg_queue_bytes() const { return avg_; }
  double max_p() const { return max_p_; }
  std::uint64_t early_drops() const { return early_drops_; }
  std::uint64_t forced_drops() const { return forced_drops_; }

 private:
  void update_average(Time now);
  void maybe_adapt(Time now);
  // Probability of an early drop for the current average.
  double drop_probability();

  RedConfig cfg_;
  util::Rng rng_;
  PacketFifo q_;
  std::size_t backlog_ = 0;
  double avg_ = 0.0;
  // Packets since the last (early or forced) drop while in the dropping
  // region; used by RED's uniformization of drop spacing.
  long count_ = -1;
  double max_p_;
  Time idle_since_ = 0.0;
  bool idle_ = true;
  Time last_adapt_ = 0.0;
  std::uint64_t early_drops_ = 0;
  std::uint64_t forced_drops_ = 0;
};

}  // namespace dcl::sim
