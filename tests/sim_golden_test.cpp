// Golden outputs of the discrete-event simulator. Brief runs of the chain
// presets (sdcl, wdcl and nodcl; droptail and RED; periodic and pair
// probing; with the TTL prober) and one emulated Internet path, each
// reduced to its event count and an FNV-1a digest of what it produced:
// the probe observations, the tracer's loss records (dropping link and
// virtual one-way-delay bits), and every link's delivered, dropped and
// high-water counters.
//
// The constants were recorded from the simulator as it stood before its
// event loop was rebuilt around plain heap records. Any change to the order
// in which events fire, same-time ties included, or to the time arithmetic
// of a schedule call moves them: the scenarios' cross traffic (TCP, HTTP,
// on-off UDP) is chaotic enough that one reordered tie changes the digest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>

#include "emu/presets.h"
#include "inference/observation.h"
#include "scenarios/presets.h"
#include "sim/network.h"
#include "sim/probe_trace.h"

namespace dcl {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add_double(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void digest_observations(Fnv1a& h, const inference::ObservationSequence& obs) {
  h.add(obs.size());
  for (const auto& o : obs) {
    h.add(o.lost ? 1u : 0u);
    if (!o.lost) h.add_double(o.delay);
  }
}

void digest_losses(Fnv1a& h, const sim::VirtualProbeTracer& tracer,
                   sim::FlowId flow) {
  const auto& losses = tracer.losses(flow);
  h.add(losses.size());
  for (const auto& [seq, rec] : losses) {
    h.add(seq);
    h.add(static_cast<std::uint64_t>(rec.loss_link_id));
    h.add(rec.completed ? 1u : 0u);
    if (rec.completed) h.add_double(rec.virtual_owd);
  }
}

void digest_links(Fnv1a& h, const sim::Network& net) {
  for (const auto& l : net.links()) {
    h.add(l->delivered());
    h.add(l->dropped());
    h.add(l->queue().high_water_bytes());
    h.add(l->queue().high_water_pkts());
  }
}

struct Golden {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
};

Golden run_chain(const scenarios::ChainConfig& cfg) {
  scenarios::ChainScenario sc(cfg);
  sc.run();
  Fnv1a h;
  if (cfg.probe_mode == scenarios::ChainConfig::ProbeMode::kPeriodic) {
    digest_observations(h, sc.observations());
    digest_losses(h, sc.tracer(), sc.prober().flow());
  } else {
    const auto& pp = sc.pair_prober();
    h.add(pp.pairs_sent());
    for (std::uint64_t seq = 0; seq < 2 * pp.pairs_sent(); ++seq) {
      const bool got = pp.sink().received(seq);
      h.add(got ? 1u : 0u);
      if (got) h.add_double(pp.sink().owd(seq));
    }
    digest_losses(h, sc.tracer(), pp.flow());
  }
  if (const auto* ttl = sc.ttl_prober()) {
    h.add(ttl->sent());
    for (const auto& s : ttl->samples()) {
      h.add(static_cast<std::uint64_t>(s.hop));
      h.add(s.size);
      h.add_double(s.rtt);
      h.add(static_cast<std::uint64_t>(s.router));
    }
  }
  digest_links(h, sc.network());
  return {sc.network().sim().events_processed(), h.value()};
}

struct ChainCase {
  const char* name;
  Golden expected;
};

// Test listings print a parameter by its name (not its bytes).
void PrintTo(const ChainCase& c, std::ostream* os) { *os << c.name; }

scenarios::ChainConfig chain_case_config(const std::string& name) {
  using scenarios::ChainConfig;
  constexpr double kDuration = 120.0;
  constexpr double kWarmup = 10.0;
  ChainConfig cfg;
  const bool red = name.find("_red") != std::string::npos;
  if (name.rfind("sdcl", 0) == 0)
    cfg = scenarios::presets::sdcl_chain(1e6, 11, kDuration, kWarmup);
  else if (name.rfind("wdcl", 0) == 0)
    cfg = scenarios::presets::wdcl_chain(0.8e6, 16e6, 12, kDuration, kWarmup);
  else
    cfg = scenarios::presets::nodcl_chain(0.5e6, 8e6, 13, kDuration, kWarmup);
  if (red) cfg.queue_kind = ChainConfig::QueueKind::kRed;
  if (name.find("_pairs") != std::string::npos)
    cfg.probe_mode = ChainConfig::ProbeMode::kPairs;
  if (name.find("_ttl") != std::string::npos) cfg.with_ttl_prober = true;
  return cfg;
}

class SimGolden : public ::testing::TestWithParam<ChainCase> {};

TEST_P(SimGolden, ChainRunMatchesRecordedOutput) {
  const ChainCase& c = GetParam();
  const Golden got = run_chain(chain_case_config(c.name));
  EXPECT_EQ(got.events, c.expected.events) << c.name;
  EXPECT_EQ(got.digest, c.expected.digest)
      << c.name << ": digest 0x" << std::hex << got.digest;
}

const ChainCase kChainCases[] = {
    {"sdcl", {364270, 0xce0d3d4f45dc1b07ull}},
    {"wdcl", {125276, 0xe6c890be05ff640dull}},
    {"nodcl", {256847, 0xba500900f1605515ull}},
    {"sdcl_red", {359004, 0x9256090b8bea17e6ull}},
    {"wdcl_red", {120940, 0xacabd3c142e012e8ull}},
    {"nodcl_red", {263190, 0x89ab197c11254019ull}},
    {"sdcl_pairs", {353109, 0x7209ccba868ea9ccull}},
    {"wdcl_red_pairs", {231418, 0xd04b4334a7576474ull}},
    {"nodcl_ttl", {305656, 0x269f9d5fd02cdc85ull}},
};

INSTANTIATE_TEST_SUITE_P(Presets, SimGolden, ::testing::ValuesIn(kChainCases),
                         [](const ::testing::TestParamInfo<ChainCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(SimGolden, EmuPathMatchesRecordedOutput) {
  auto cfg = emu::presets::usevilla_to_adsl(16, 40.0);
  cfg.warmup_s = 5.0;
  emu::InternetPathScenario sc(cfg);
  sc.run();
  Fnv1a h;
  digest_observations(h, sc.true_observations(sc.window_start(),
                                               sc.window_end()));
  digest_losses(h, sc.tracer(), sc.prober().flow());
  digest_links(h, sc.network());
  EXPECT_EQ(sc.network().sim().events_processed(), 2365721u);
  EXPECT_EQ(h.value(), 0x09a8faaab5bd33b6ull)
      << "digest 0x" << std::hex << h.value();
}

}  // namespace
}  // namespace dcl
