// Emulated wide-area Internet paths — the reproduction's substitute for
// the paper's PlanetLab experiments (Section VI-B).
//
// A path of `router_hops` routers carries the probe stream end to end.
// Every hop has light background cross traffic (delay jitter); selected
// hops are *congested*: lower capacity, a finite buffer, and heavy bursty
// load that produces losses at the paper's observed rates (0.05%-1%).
// An optional ADSL-like last-mile link models the paper's ADSL receiver.
//
// Hosts' clocks are not synchronized: the measured one-way delays include
// a configurable constant offset and linear skew, so the full pipeline —
// convex-hull skew removal, then model-based identification — is exercised
// exactly as on real traces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "inference/observation.h"
#include "sim/network.h"
#include "sim/probe_trace.h"
#include "traffic/probes.h"
#include "traffic/tcp.h"
#include "traffic/udp_onoff.h"

namespace dcl::emu {

struct CongestedHop {
  int index = 0;  // which router link (0-based from the sender side)
  double bandwidth_bps = 2e6;
  std::size_t buffer_bytes = 25000;
  double udp_rate_bps = 2.2e6;   // burst rate of the hop's on-off load
  double udp_mean_on_s = 0.2;
  double udp_mean_off_s = 2.0;
  int ftp_flows = 0;             // long-lived TCP crossing only this hop
};

struct InternetPathConfig {
  int router_hops = 11;      // routers; router links = router_hops - 1
  double core_bw_bps = 50e6;
  std::size_t core_buffer_bytes = 500000;
  // Background jitter load per hop, as a fraction of that hop's capacity.
  double background_load = 0.15;
  std::vector<CongestedHop> congested;
  // >0 replaces the final router link with an ADSL-like access link.
  double last_mile_bw_bps = 0.0;
  std::size_t last_mile_buffer_bytes = 30000;

  double probe_interval_s = 0.020;
  std::uint32_t probe_bytes = 10;

  double duration_s = 1300.0;
  double warmup_s = 60.0;
  double drain_s = 10.0;

  // Receiver clock error relative to the sender: measured one-way delay =
  // true delay + offset + skew * send_time.
  double clock_offset_s = 0.0;
  double clock_skew = 0.0;

  std::uint64_t seed = 1;
};

class InternetPathScenario {
 public:
  explicit InternetPathScenario(const InternetPathConfig& cfg);

  void run();

  const InternetPathConfig& config() const { return cfg_; }
  double window_start() const { return cfg_.warmup_s; }
  double window_end() const { return cfg_.duration_s - 2.0; }

  // Observations as the receiving host would measure them (clock offset
  // and skew applied to the true one-way delays).
  inference::ObservationSequence measured_observations() const;
  inference::ObservationSequence measured_observations(double t0,
                                                       double t1) const;
  // True (skew-free) observations, for validating the skew removal.
  inference::ObservationSequence true_observations(double t0, double t1) const;
  std::vector<double> send_times(double t0, double t1) const;

  // Ground truth.
  std::vector<double> ground_truth_virtual_owds() const;
  std::vector<std::uint64_t> probe_losses_by_hop() const;  // per router link
  double hop_qmax(int link_index) const;
  double hop_loss_rate(int link_index) const;
  double true_propagation_delay();
  double probe_loss_rate() const;
  int hop_count() const { return static_cast<int>(hop_links_.size()); }

  const traffic::PeriodicProber& prober() const { return *prober_; }
  const sim::VirtualProbeTracer& tracer() const { return *tracer_; }
  sim::Network& network() { return net_; }

 private:
  InternetPathConfig cfg_;
  sim::Network net_;
  std::vector<sim::NodeId> routers_;
  sim::NodeId probe_src_, probe_dst_;
  std::vector<sim::Link*> hop_links_;

  std::unique_ptr<sim::VirtualProbeTracer> tracer_;
  std::unique_ptr<traffic::PeriodicProber> prober_;
  std::vector<std::unique_ptr<traffic::UdpOnOffSource>> udp_;
  std::vector<std::unique_ptr<traffic::TcpSender>> tcp_senders_;
  std::vector<std::unique_ptr<traffic::TcpReceiver>> tcp_receivers_;
  bool ran_ = false;
};

}  // namespace dcl::emu
