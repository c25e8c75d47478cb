// Property-based sweeps over the hypothesis tests and bounds: invariants
// that must hold for ANY distribution, checked over randomized PMFs and a
// parameter grid (TEST_P).
#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.h"
#include "core/hypothesis.h"
#include "inference/discretizer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dcl::core {
namespace {

util::Pmf random_pmf(util::Rng& rng, int m, double sparsity) {
  util::Pmf pmf(static_cast<std::size_t>(m), 0.0);
  for (auto& p : pmf)
    if (rng.uniform() > sparsity) p = rng.uniform(0.0, 1.0);
  if (!util::normalize(pmf)) pmf[0] = 1.0;
  return pmf;
}

// gtest prints a parameter without a PrintTo as its raw bytes, and that
// dump is part of every test name ctest registers. A 64-bit `symbols`
// leaves the struct without padding, so every byte of those names is
// defined and a rebuild cannot change them.
struct SweepCase {
  std::int64_t symbols;
  double sparsity;
  std::uint64_t seed;
};

class HypothesisProperties : public ::testing::TestWithParam<SweepCase> {};

TEST_P(HypothesisProperties, SdclAcceptanceImpliesWdclAcceptance) {
  // An SDCL is a WDCL for any eps (paper Section III): on the test side,
  // accepting the strict test must imply accepting the loose one when the
  // SDCL mass tolerance does not exceed eps_l.
  const auto& c = GetParam();
  util::Rng rng(c.seed);
  for (int trial = 0; trial < 50; ++trial) {
    const auto pmf = random_pmf(rng, c.symbols, c.sparsity);
    const auto F = util::pmf_to_cdf(pmf);
    const auto s = sdcl_test(F, 0.01);
    if (!s.accepted) continue;
    for (double el : {0.01, 0.05, 0.1})
      for (double ed : {0.0, 0.05})
        EXPECT_TRUE(wdcl_test(F, el, ed).accepted)
            << "SDCL accepted but WDCL(" << el << "," << ed << ") rejected";
  }
}

TEST_P(HypothesisProperties, IStarIsConsistentWithTheCdf) {
  const auto& c = GetParam();
  util::Rng rng(c.seed + 1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto pmf = random_pmf(rng, c.symbols, c.sparsity);
    const auto F = util::pmf_to_cdf(pmf);
    const auto r = wdcl_test(F, 0.06, 0.0);
    ASSERT_GE(r.i_star, 1);
    ASSERT_LE(r.i_star, c.symbols);
    // F just below i* must be <= eps_l, F at i* must exceed it (unless
    // i* was clamped at M because nothing exceeded eps_l).
    if (r.i_star > 1) {
      EXPECT_LE(F[static_cast<std::size_t>(r.i_star) - 2], 0.06);
    }
    if (F.back() > 0.06) {
      EXPECT_GT(F[static_cast<std::size_t>(r.i_star) - 1], 0.06);
    }
  }
}

TEST_P(HypothesisProperties, GeneralizedTestInterpolatesTheStandardOne) {
  const auto& c = GetParam();
  util::Rng rng(c.seed + 2);
  for (int trial = 0; trial < 50; ++trial) {
    const auto pmf = random_pmf(rng, c.symbols, c.sparsity);
    const auto F = util::pmf_to_cdf(pmf);
    const auto std_r = wdcl_test(F, 0.05, 0.05);
    const auto gen_r = wdcl_test_generalized(F, 0.05, 0.05, 1.0);
    EXPECT_EQ(std_r.accepted, gen_r.accepted);
    EXPECT_EQ(std_r.i_star, gen_r.i_star);
  }
}

TEST_P(HypothesisProperties, BoundNeverBelowIStarBinAndCoversTheMass) {
  const auto& c = GetParam();
  util::Rng rng(c.seed + 3);
  inference::Discretizer disc(0.0, 1.0, c.symbols);
  for (int trial = 0; trial < 50; ++trial) {
    const auto pmf = random_pmf(rng, c.symbols, c.sparsity);
    const auto F = util::pmf_to_cdf(pmf);
    const auto b = max_delay_bound(F, disc, 0.06);
    // The bound's symbol is the first with F > eps_l, so the CDF strictly
    // below it is <= eps_l: at most eps_l of the loss mass lies below the
    // claimed bound.
    if (b.symbol > 1) {
      EXPECT_LE(F[static_cast<std::size_t>(b.symbol) - 2], 0.06);
    }
    EXPECT_NEAR(b.seconds,
                static_cast<double>(b.symbol) * disc.bin_width(), 1e-12);
  }
}

TEST_P(HypothesisProperties, ComponentBoundLiesInsideThePmfSupport) {
  const auto& c = GetParam();
  util::Rng rng(c.seed + 4);
  inference::Discretizer disc(0.0, 1.0, c.symbols);
  for (int trial = 0; trial < 50; ++trial) {
    const auto pmf = random_pmf(rng, c.symbols, c.sparsity);
    const auto b = component_heuristic_bound(pmf, disc);
    if (!b.valid) continue;
    ASSERT_GE(b.first_symbol, 1);
    ASSERT_LE(b.last_symbol, c.symbols);
    ASSERT_LE(b.first_symbol, b.last_symbol);
    EXPECT_GT(b.mass, 0.0);
    EXPECT_LE(b.mass, 1.0 + 1e-9);
    // The first symbol of the chosen component is occupied.
    EXPECT_GE(pmf[static_cast<std::size_t>(b.first_symbol) - 1],
              b.threshold_used);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HypothesisProperties,
    ::testing::Values(SweepCase{10, 0.3, 11}, SweepCase{10, 0.7, 12},
                      SweepCase{10, 0.9, 13}, SweepCase{50, 0.5, 14},
                      SweepCase{50, 0.9, 15}, SweepCase{5, 0.2, 16},
                      SweepCase{25, 0.6, 17}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "M" + std::to_string(info.param.symbols) + "s" +
             std::to_string(static_cast<int>(info.param.sparsity * 10)) +
             "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace dcl::core
