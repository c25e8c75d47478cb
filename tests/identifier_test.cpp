// Unit tests for the Identifier pipeline itself: configuration
// validation, determinism, degenerate inputs, and the interaction of its
// options — complementing the scenario-level integration tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/identifier.h"
#include "util/error.h"
#include "util/rng.h"

namespace dcl::core {
namespace {

// Synthetic observation sequence with a "congested link" signature: base
// delay plus sticky queue episodes; losses only when the synthetic queue
// is full. Ground truth: all losses at the full-queue delay.
inference::ObservationSequence synth_obs(std::size_t n, std::uint64_t seed,
                                         double loss_scale = 1.0) {
  util::Rng rng(seed);
  inference::ObservationSequence obs;
  double queue = 0.0;  // queuing delay in seconds, capped at 100 ms
  for (std::size_t i = 0; i < n; ++i) {
    queue += rng.uniform(-0.012, 0.012);
    queue = std::clamp(queue, 0.0, 0.100);
    const bool full = queue > 0.095;
    if (full && rng.bernoulli(0.5 * loss_scale)) {
      obs.push_back(inference::Observation::loss());
    } else {
      obs.push_back(
          inference::Observation::received(0.030 + queue +
                                           rng.uniform(0.0, 0.002)));
    }
  }
  if (obs.front().lost) obs.front() = inference::Observation::received(0.030);
  if (obs.back().lost) obs.back() = inference::Observation::received(0.030);
  return obs;
}

TEST(Identifier, ConfigValidation) {
  IdentifierConfig bad;
  bad.symbols = 1;
  EXPECT_THROW(Identifier{bad}, util::Error);
  bad = IdentifierConfig{};
  bad.hidden_states = 0;
  EXPECT_THROW(Identifier{bad}, util::Error);
  bad = IdentifierConfig{};
  bad.bound_symbols = 5;  // finer grid must be at least as fine
  EXPECT_THROW(Identifier{bad}, util::Error);
}

TEST(Identifier, RejectsTinyInput) {
  Identifier id{IdentifierConfig{}};
  inference::ObservationSequence one{inference::Observation::received(0.05)};
  EXPECT_THROW(id.identify(one), util::Error);
}

TEST(Identifier, AcceptsFullQueueLossSignature) {
  const auto obs = synth_obs(20000, 3);
  ASSERT_GT(inference::loss_count(obs), 50u);
  IdentifierConfig cfg;
  const auto r = Identifier(cfg).identify(obs);
  ASSERT_TRUE(r.has_losses);
  EXPECT_TRUE(r.wdcl.accepted);
  // All losses occur at ~100 ms of queuing; the bound must be in that
  // region (observed max queuing ~102 ms).
  EXPECT_NEAR(r.coarse_bound.seconds, 0.10, 0.04);
}

TEST(Identifier, DeterministicAcrossRuns) {
  const auto obs = synth_obs(8000, 4);
  IdentifierConfig cfg;
  cfg.compute_fine_bound = false;
  const auto a = Identifier(cfg).identify(obs);
  const auto b = Identifier(cfg).identify(obs);
  ASSERT_EQ(a.virtual_pmf.size(), b.virtual_pmf.size());
  for (std::size_t i = 0; i < a.virtual_pmf.size(); ++i)
    EXPECT_DOUBLE_EQ(a.virtual_pmf[i], b.virtual_pmf[i]);
  EXPECT_EQ(a.wdcl.accepted, b.wdcl.accepted);
}

TEST(Identifier, FineBoundCanBeDisabled) {
  const auto obs = synth_obs(8000, 6);
  IdentifierConfig cfg;
  cfg.compute_fine_bound = false;
  const auto r = Identifier(cfg).identify(obs);
  EXPECT_FALSE(r.fine_valid);
  EXPECT_TRUE(r.fine_pmf.empty());
}

TEST(Identifier, KnownPropagationDelayShiftsTheFloor) {
  const auto obs = synth_obs(8000, 7);
  IdentifierConfig cfg;
  cfg.compute_fine_bound = false;
  cfg.propagation_delay = 0.030;  // the synthetic base delay
  const auto r = Identifier(cfg).identify(obs);
  EXPECT_NEAR(r.delay_floor_s, 0.030, 1e-9);
  IdentifierConfig approx = cfg;
  approx.propagation_delay.reset();
  const auto r2 = Identifier(approx).identify(obs);
  EXPECT_GE(r2.delay_floor_s, 0.030);  // min observed >= true floor
  EXPECT_EQ(r.wdcl.accepted, r2.wdcl.accepted);
}

TEST(Identifier, ReportsLossStatistics) {
  const auto obs = synth_obs(8000, 8);
  IdentifierConfig cfg;
  cfg.compute_fine_bound = false;
  const auto r = Identifier(cfg).identify(obs);
  EXPECT_EQ(r.probes, obs.size());
  EXPECT_EQ(r.losses, inference::loss_count(obs));
  EXPECT_NEAR(r.loss_rate, inference::loss_rate(obs), 1e-12);
  EXPECT_EQ(r.fit.losses, r.losses);
}

TEST(Identifier, EpsilonParametersFlowThrough) {
  const auto obs = synth_obs(8000, 9);
  IdentifierConfig cfg;
  cfg.compute_fine_bound = false;
  cfg.eps_l = 0.11;
  cfg.eps_d = 0.07;
  const auto r = Identifier(cfg).identify(obs);
  EXPECT_DOUBLE_EQ(r.wdcl.eps_l, 0.11);
  EXPECT_DOUBLE_EQ(r.wdcl.eps_d, 0.07);
  EXPECT_NEAR(r.wdcl.threshold, 1.0 - 0.11 - 0.07, 1e-12);
}

TEST(Identifier, BootstrapConfidenceOnConcentratedLosses) {
  const auto obs = synth_obs(12000, 10);
  IdentifierConfig cfg;
  cfg.compute_fine_bound = false;
  cfg.bootstrap_replicates = 200;
  const auto r = Identifier(cfg).identify(obs);
  ASSERT_TRUE(r.has_losses);
  EXPECT_EQ(r.bootstrap.replicates, 200);
  EXPECT_EQ(r.bootstrap.losses, r.losses);
  // Concentrated full-queue losses: a confident accept.
  EXPECT_GT(r.bootstrap.accept_fraction, 0.9);
  EXPECT_LE(r.bootstrap.f2istar_lo, r.bootstrap.f2istar_hi);
}

TEST(Identifier, AutoHiddenStatesSelectsAndRecordsN) {
  const auto obs = synth_obs(8000, 11);
  IdentifierConfig cfg;
  cfg.compute_fine_bound = false;
  cfg.auto_hidden_max = 3;
  const auto r = Identifier(cfg).identify(obs);
  ASSERT_TRUE(r.has_losses);
  EXPECT_GE(r.hidden_states_used, 1);
  EXPECT_LE(r.hidden_states_used, 3);
  // Decision matches a fixed-N run (the data is near-Markov so any N
  // reaches the same conclusion).
  IdentifierConfig fixed = cfg;
  fixed.auto_hidden_max = 0;
  fixed.hidden_states = r.hidden_states_used;
  const auto r2 = Identifier(fixed).identify(obs);
  EXPECT_EQ(r.wdcl.accepted, r2.wdcl.accepted);
}

}  // namespace
}  // namespace dcl::core
