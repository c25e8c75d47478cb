// Tests for BIC-based hidden-state selection and the bootstrap decision
// confidence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/bootstrap.h"
#include "inference/discretizer.h"
#include "inference/em_internal.h"
#include "inference/mmhd.h"
#include "inference/mmhd_internal.h"
#include "inference/model_selection.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/rng.h"

namespace dcl {
namespace {

constexpr int kLoss = inference::Discretizer::kLossSymbol;

// Symbol-Markov data (no hidden structure beyond the symbol itself).
std::vector<int> markov_sequence(std::size_t t_len, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> seq;
  int state = 1;
  for (std::size_t t = 0; t < t_len; ++t) {
    if (rng.uniform() < 0.25) state = static_cast<int>(rng.uniform_int(1, 3));
    const double loss_p = state == 3 ? 0.15 : 0.004;
    seq.push_back(rng.bernoulli(loss_p) ? kLoss : state);
  }
  seq.front() = 1;
  seq.back() = 1;
  return seq;
}

TEST(ModelSelection, PrefersParsimonyOnMarkovData) {
  // Data generated by an N=1 process: BIC must not pick a large N.
  const auto seq = markov_sequence(12000, 3);
  inference::EmOptions base;
  base.seed = 5;
  const auto r = inference::select_mmhd_hidden_states(seq, 3, 3, base);
  ASSERT_EQ(r.scores.size(), 3u);
  EXPECT_LE(r.best_hidden_states, 2);
  // Likelihood is non-decreasing in N (more capacity)...
  EXPECT_GE(r.scores[1].log_likelihood, r.scores[0].log_likelihood - 1.0);
  // ...but the parameter count grows quadratically.
  EXPECT_GT(r.scores[2].parameters, 4u * r.scores[0].parameters);
}

TEST(ModelSelection, ScoresAreInternallyConsistent) {
  const auto seq = markov_sequence(6000, 7);
  const auto r = inference::select_mmhd_hidden_states(seq, 3, 4);
  double best = r.scores.front().bic;
  int best_n = 1;
  for (const auto& s : r.scores) {
    EXPECT_EQ(s.bic, -2.0 * s.log_likelihood +
                         static_cast<double>(s.parameters) *
                             std::log(static_cast<double>(seq.size())));
    if (s.bic < best) {
      best = s.bic;
      best_n = s.hidden_states;
    }
  }
  EXPECT_EQ(r.best_hidden_states, best_n);
}

TEST(ModelSelection, RejectsBadArguments) {
  EXPECT_THROW(inference::select_mmhd_hidden_states({1, 2}, 3, 0),
               util::Error);
}

int raced_out_count(const inference::ModelSelectionResult& r) {
  int count = 0;
  for (const auto& s : r.scores) count += s.raced_out ? 1 : 0;
  return count;
}

TEST(ModelSelection, RacedSelectionPicksSameWinnerAsFull) {
  // Structure racing eliminates candidates whose best reachable BIC is
  // behind the leader's realized BIC, so it stops losers early but must
  // not change the winner.
  const auto seq = markov_sequence(8000, 13);
  inference::EmOptions base;
  base.seed = 9;
  const auto full = inference::select_mmhd_hidden_states(seq, 3, 3, base);

  auto& eliminations =
      obs::Registry::global().counter("model_selection.race_eliminations");
  const std::uint64_t before = eliminations.value();
  auto racing = base;
  racing.race_warmup = 4;
  const auto raced = inference::select_mmhd_hidden_states(seq, 3, 3, racing);

  EXPECT_EQ(raced.best_hidden_states, full.best_hidden_states);
  ASSERT_EQ(raced.scores.size(), full.scores.size());
  for (const auto& s : raced.scores) {
    // A raced-out candidate records its partial fit but can never win.
    if (s.raced_out) {
      EXPECT_NE(s.hidden_states, raced.best_hidden_states);
    }
  }
  // The race actually cut a candidate, and counted it.
  EXPECT_GE(raced_out_count(raced), 1);
  EXPECT_EQ(eliminations.value() - before,
            static_cast<std::uint64_t>(raced_out_count(raced)));
  // No candidate in the full run is marked raced_out.
  for (const auto& s : full.scores) EXPECT_FALSE(s.raced_out);
}

TEST(ModelSelection, RacedSelectionWithRestartsEliminatesAndAgrees) {
  // The careful configuration: several restarts per candidate, each
  // candidate's restarts racing on the structure rungs.
  const auto seq = markov_sequence(8000, 13);
  inference::EmOptions base;
  base.seed = 9;
  base.restarts = 4;
  const auto full = inference::select_mmhd_hidden_states(seq, 3, 4, base);

  auto racing = base;
  racing.race_warmup = 5;
  const auto raced = inference::select_mmhd_hidden_states(seq, 3, 4, racing);

  EXPECT_EQ(raced.best_hidden_states, full.best_hidden_states);
  EXPECT_GE(raced_out_count(raced), 1);
}

TEST(ModelSelection, RestartSetBoundIsFiniteBetweenRungs) {
  // A structure race reads ll_upper_bound() between advance() calls, so
  // the bound must carry the last rung's gain estimate, not +inf.
  const auto seq = markov_sequence(8000, 13);
  inference::EmOptions opts;
  opts.seed = 9;
  opts.hidden_states = 2;
  opts.restarts = 4;
  opts.race_warmup = 5;
  inference::Mmhd model(2, 3);
  inference::detail::RestartSet<inference::Mmhd> fit(model, seq, opts);
  fit.advance(5);
  ASSERT_FALSE(fit.finished());
  const double bound = fit.ll_upper_bound();
  EXPECT_TRUE(std::isfinite(bound));
  EXPECT_GE(bound, fit.best_ll());
  fit.finish();
}

TEST(ModelSelection, RacedSelectionIsThreadCountInvariant) {
  const auto seq = markov_sequence(8000, 17);
  inference::EmOptions base;
  base.seed = 21;
  base.race_warmup = 4;

  base.threads = 1;
  const auto s1 = inference::select_mmhd_hidden_states(seq, 3, 3, base);
  base.threads = 4;
  const auto s4 = inference::select_mmhd_hidden_states(seq, 3, 3, base);

  // Rung reductions are candidate-ordered scans on the calling thread, so
  // the eliminated set and every surviving score are bitwise identical
  // for any thread count.
  EXPECT_GE(raced_out_count(s1), 1);
  EXPECT_EQ(s1.best_hidden_states, s4.best_hidden_states);
  ASSERT_EQ(s1.scores.size(), s4.scores.size());
  for (std::size_t i = 0; i < s1.scores.size(); ++i) {
    EXPECT_EQ(s1.scores[i].raced_out, s4.scores[i].raced_out);
    EXPECT_EQ(s1.scores[i].log_likelihood, s4.scores[i].log_likelihood);
    EXPECT_EQ(s1.scores[i].bic, s4.scores[i].bic);
    EXPECT_EQ(s1.scores[i].virtual_delay_pmf, s4.scores[i].virtual_delay_pmf);
  }
}

TEST(Bootstrap, ConfidentAcceptWhenPosteriorsConcentrate) {
  // 200 losses all but surely at symbol 5 of 10: every replicate accepts.
  std::vector<util::Pmf> posteriors;
  util::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    util::Pmf p(10, 0.0);
    p[4] = 0.97;
    p[5] = 0.03;
    posteriors.push_back(p);
  }
  const auto r = core::bootstrap_wdcl(posteriors, {});
  EXPECT_DOUBLE_EQ(r.accept_fraction, 1.0);
  EXPECT_GT(r.f2istar_lo, 0.99);
}

TEST(Bootstrap, ConfidentRejectOnBimodalPosteriors) {
  // Losses split between symbols 2 and 9: no replicate accepts.
  std::vector<util::Pmf> posteriors;
  for (int i = 0; i < 200; ++i) {
    util::Pmf p(10, 0.0);
    p[i % 2 == 0 ? 1 : 8] = 1.0;
    posteriors.push_back(p);
  }
  const auto r = core::bootstrap_wdcl(posteriors, {});
  EXPECT_DOUBLE_EQ(r.accept_fraction, 0.0);
  EXPECT_LT(r.f2istar_hi, 0.8);
}

TEST(Bootstrap, BorderlineCaseIsUncertain) {
  // Stray low-delay mass right at the eps_l = 0.06 boundary with few
  // losses: replicates split.
  std::vector<util::Pmf> posteriors;
  for (int i = 0; i < 60; ++i) {
    util::Pmf p(10, 0.0);
    if (i % 16 == 0)
      p[0] = 1.0;  // ~6% of losses at symbol 1
    else
      p[4] = 1.0;
    posteriors.push_back(p);
  }
  core::BootstrapConfig cfg;
  cfg.replicates = 400;
  cfg.seed = 3;
  const auto r = core::bootstrap_wdcl(posteriors, cfg);
  EXPECT_GT(r.accept_fraction, 0.05);
  EXPECT_LT(r.accept_fraction, 0.95);
}

TEST(Bootstrap, EmptyInputYieldsNoConfidence) {
  const auto r = core::bootstrap_wdcl({}, {});
  EXPECT_EQ(r.losses, 0u);
  EXPECT_DOUBLE_EQ(r.accept_fraction, 0.0);
}

TEST(Bootstrap, EndToEndWithMmhdPosteriors) {
  // Synthetic congested sequence -> fit -> per-loss posteriors ->
  // bootstrap: concentrated losses give a confident accept.
  util::Rng rng(13);
  std::vector<int> seq;
  int state = 1;
  for (int t = 0; t < 12000; ++t) {
    if (rng.uniform() < 0.2) state = static_cast<int>(rng.uniform_int(1, 5));
    const double loss_p = state == 5 ? 0.2 : 0.001;
    seq.push_back(rng.bernoulli(loss_p) ? kLoss : state);
  }
  seq.front() = 1;
  seq.back() = 1;
  inference::Mmhd model(2, 10);
  inference::EmOptions eo;
  eo.hidden_states = 2;
  model.fit(seq, eo);
  const auto posteriors = model.per_loss_posteriors(seq);
  ASSERT_GT(posteriors.size(), 100u);
  // Per-loss posteriors average to the virtual-delay PMF.
  const auto pmf = model.virtual_delay_pmf(seq);
  util::Pmf avg(pmf.size(), 0.0);
  for (const auto& p : posteriors)
    for (std::size_t d = 0; d < avg.size(); ++d) avg[d] += p[d];
  for (auto& x : avg) x /= static_cast<double>(posteriors.size());
  EXPECT_LT(util::l1_distance(avg, pmf), 1e-9);

  const auto r = core::bootstrap_wdcl(posteriors, {});
  EXPECT_GT(r.accept_fraction, 0.9);
}

// A dominant-congestion sequence and its point fit, shared by the refit
// bootstrap tests.
std::vector<int> congested_sequence(std::size_t t_len, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> seq;
  int state = 1;
  for (std::size_t t = 0; t < t_len; ++t) {
    if (rng.uniform() < 0.2) state = static_cast<int>(rng.uniform_int(1, 5));
    const double loss_p = state == 5 ? 0.25 : 0.001;
    seq.push_back(rng.bernoulli(loss_p) ? kLoss : state);
  }
  seq.front() = 1;
  seq.back() = 1;
  return seq;
}

TEST(MmhdRefitter, WarmStartOnSameSequenceConvergesImmediately) {
  const auto seq = congested_sequence(6000, 17);
  inference::Mmhd model(2, 10);
  inference::EmOptions eo;
  eo.hidden_states = 2;
  const auto fit = model.fit(seq, eo);

  inference::MmhdRefitter refitter(model, eo);
  const auto refit = refitter.refit(seq);
  // The snapshot already satisfied the convergence test on this sequence,
  // so the warm run stops after a couple of iterations at the same
  // likelihood.
  EXPECT_TRUE(refit.converged);
  EXPECT_LE(refit.iterations, 3);
  EXPECT_NEAR(refit.log_likelihood, fit.log_likelihood,
              1e-6 * std::abs(fit.log_likelihood));
  ASSERT_EQ(refit.virtual_delay_pmf.size(), fit.virtual_delay_pmf.size());
  EXPECT_LT(util::l1_distance(refit.virtual_delay_pmf,
                              fit.virtual_delay_pmf),
            1e-3);
}

TEST(MmhdRefitter, EnginesAgreeOnRefit) {
  const auto seq = congested_sequence(3000, 19);
  inference::Mmhd model(2, 10);
  inference::EmOptions eo;
  eo.hidden_states = 2;
  model.fit(seq, eo);

  // Perturbed input: drop the tail so the refit does real work.
  std::vector<int> rep(seq.begin(), seq.begin() + 2500);
  inference::EmOptions kernel = eo, naive = eo;
  naive.cache_emissions = false;
  inference::MmhdRefitter rk(model, kernel);
  inference::MmhdRefitter rn(model, naive);
  const auto fk = rk.refit(rep);
  const auto fn = rn.refit(rep);
  ASSERT_EQ(fk.iterations, fn.iterations);
  EXPECT_NEAR(fk.log_likelihood, fn.log_likelihood,
              1e-9 * std::abs(fn.log_likelihood));
  EXPECT_LT(util::l1_distance(fk.virtual_delay_pmf, fn.virtual_delay_pmf),
            1e-8);
}

// Refits from one snapshot against the per-call reference, replicate after
// replicate on a reused workspace (the segment table and received-probe
// step list are rebuilt per sequence).
void expect_refits_match_reference(int hidden_states, std::uint64_t seed) {
  const auto seq = congested_sequence(3000, seed);
  inference::Mmhd model(hidden_states, 10);
  inference::EmOptions eo;
  eo.hidden_states = hidden_states;
  model.fit(seq, eo);

  inference::EmOptions kernel = eo, naive = eo;
  naive.cache_emissions = false;
  inference::MmhdRefitter rk(model, kernel);
  inference::MmhdRefitter rn(model, naive);
  for (std::size_t cut : {2500u, 3000u, 1800u}) {
    SCOPED_TRACE(::testing::Message() << "prefix " << cut);
    std::vector<int> rep(seq.begin(), seq.begin() + static_cast<long>(cut));
    const auto fk = rk.refit(rep);
    const auto fn = rn.refit(rep);
    ASSERT_EQ(fk.iterations, fn.iterations);
    EXPECT_EQ(fk.converged, fn.converged);
    EXPECT_EQ(fk.losses, fn.losses);
    ASSERT_EQ(fk.log_likelihood_history.size(),
              fn.log_likelihood_history.size());
    for (std::size_t i = 0; i < fk.log_likelihood_history.size(); ++i)
      EXPECT_NEAR(fk.log_likelihood_history[i], fn.log_likelihood_history[i],
                  1e-12 * std::abs(fn.log_likelihood_history[i]));
    EXPECT_LT(util::l1_distance(fk.virtual_delay_pmf, fn.virtual_delay_pmf),
              1e-10);
  }
}

TEST(MmhdRefitter, SingleHiddenStateRefitMatchesReference) {
  expect_refits_match_reference(1, 31);
}

TEST(MmhdRefitter, TwoHiddenStateRefitMatchesReference) {
  expect_refits_match_reference(2, 37);
}

TEST(Bootstrap, RefitAcceptsOnDominantCongestion) {
  const auto seq = congested_sequence(6000, 23);
  inference::Mmhd model(2, 10);
  inference::EmOptions eo;
  eo.hidden_states = 2;
  model.fit(seq, eo);

  core::BootstrapConfig cfg;
  cfg.replicates = 24;
  cfg.seed = 7;
  const auto r = core::bootstrap_wdcl_refit(seq, model, eo, cfg);
  EXPECT_EQ(r.replicates, 24);
  EXPECT_GT(r.losses, 100u);
  EXPECT_GT(r.accept_fraction, 0.9);
  // Warm starts must do real but short work on resampled sequences.
  EXPECT_GE(r.mean_refit_iterations, 1.0);
  EXPECT_LT(r.mean_refit_iterations, 0.5 * eo.max_iterations);
}

TEST(Bootstrap, RefitIsThreadInvariant) {
  const auto seq = congested_sequence(4000, 29);
  inference::Mmhd model(2, 10);
  inference::EmOptions eo;
  eo.hidden_states = 2;
  model.fit(seq, eo);

  core::BootstrapConfig serial;
  serial.replicates = 12;
  serial.seed = 5;
  serial.threads = 1;
  core::BootstrapConfig parallel = serial;
  parallel.threads = 4;
  const auto a = core::bootstrap_wdcl_refit(seq, model, eo, serial);
  const auto b = core::bootstrap_wdcl_refit(seq, model, eo, parallel);
  // Identical replicate draws and refits for any thread count (also
  // proves the reused per-worker workspace leaks no state between
  // replicates: the chunking differs between the two runs).
  EXPECT_DOUBLE_EQ(a.accept_fraction, b.accept_fraction);
  EXPECT_DOUBLE_EQ(a.f2istar_lo, b.f2istar_lo);
  EXPECT_DOUBLE_EQ(a.f2istar_hi, b.f2istar_hi);
  EXPECT_DOUBLE_EQ(a.mean_refit_iterations, b.mean_refit_iterations);
}

TEST(Bootstrap, RefitWithoutLossesYieldsNoConfidence) {
  std::vector<int> seq(500, 1);
  for (std::size_t t = 0; t < seq.size(); t += 3) seq[t] = 2;
  inference::Mmhd model(1, 3);
  inference::EmOptions eo;
  eo.hidden_states = 1;
  eo.max_iterations = 5;
  model.fit(seq, eo);
  const auto r = core::bootstrap_wdcl_refit(seq, model, eo, {});
  EXPECT_EQ(r.losses, 0u);
  EXPECT_DOUBLE_EQ(r.accept_fraction, 0.0);
}

}  // namespace
}  // namespace dcl
