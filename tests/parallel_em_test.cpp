// Tests for the parallel EM engine: the ThreadPool itself, bitwise
// thread-count invariance of the HMM/MMHD fits, observer replay
// equivalence, restart racing on the restart driver both models share,
// and thread-count invariance of model selection and the WDCL bootstrap.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bootstrap.h"
#include "inference/discretizer.h"
#include "inference/em_telemetry.h"
#include "inference/hmm.h"
#include "inference/mmhd.h"
#include "inference/model_selection.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dcl {
namespace {

// Sticky symbol chain with symbol-dependent losses: congested enough that
// the EM has real structure to find, small enough to fit many times.
std::vector<int> synth_sequence(int t_len, int symbols, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> seq(static_cast<std::size_t>(t_len));
  int cur = 1;
  for (int t = 0; t < t_len; ++t) {
    if (rng.uniform() < 0.2)
      cur = static_cast<int>(rng.uniform_int(1, symbols));
    const double loss_p = cur == symbols ? 0.25 : 0.01;
    seq[static_cast<std::size_t>(t)] =
        rng.uniform() < loss_p ? inference::Discretizer::kLossSymbol : cur;
  }
  return seq;
}

inference::EmOptions base_options() {
  inference::EmOptions em;
  em.hidden_states = 2;
  em.restarts = 4;
  em.max_iterations = 30;
  em.tolerance = 0.0;  // fixed iteration count: histories align exactly
  em.seed = 17;
  return em;
}

// --------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, RunsSubmittedTasksAndReturnsValues) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 16; ++i)
    futures.push_back(pool.submit([i]() { return i * i; }));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, ParallelIndexedCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  util::parallel_indexed(&pool, 64, [&](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelIndexedSerialFallbackWithoutPool) {
  std::vector<int> order;
  util::parallel_indexed(nullptr, 5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelIndexedRethrowsLowestFailingIndex) {
  util::ThreadPool pool(4);
  try {
    util::parallel_indexed(&pool, 8, [](int i) {
      if (i == 2 || i == 5)
        throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 2");
  }
}

TEST(ThreadPool, ResolveMapsAutoToHardware) {
  EXPECT_GE(util::ThreadPool::resolve(0), 1u);
  EXPECT_GE(util::ThreadPool::hardware_threads(), 1u);
  EXPECT_EQ(util::ThreadPool::resolve(3), 3u);
  EXPECT_EQ(util::ThreadPool::resolve(-4), util::ThreadPool::resolve(0));
}

// --------------------------------------------------------------------------
// Thread-count invariance: every field of the fit and every installed
// parameter must be bitwise identical between a serial and a threaded fit.

TEST(ParallelEm, HmmFitIsThreadCountInvariant) {
  const auto seq = synth_sequence(1500, 4, 99);
  auto em = base_options();

  inference::Hmm serial(em.hidden_states, 4);
  em.threads = 1;
  const auto f1 = serial.fit(seq, em);

  inference::Hmm threaded(em.hidden_states, 4);
  em.threads = 8;
  const auto f8 = threaded.fit(seq, em);

  EXPECT_EQ(f1.winning_restart, f8.winning_restart);
  EXPECT_EQ(f1.log_likelihood, f8.log_likelihood);
  EXPECT_EQ(f1.converged, f8.converged);
  EXPECT_EQ(f1.iterations, f8.iterations);
  EXPECT_EQ(f1.losses, f8.losses);
  EXPECT_EQ(f1.log_likelihood_history, f8.log_likelihood_history);
  EXPECT_EQ(f1.virtual_delay_pmf, f8.virtual_delay_pmf);
  EXPECT_EQ(serial.initial(), threaded.initial());
  EXPECT_EQ(serial.transitions().data(), threaded.transitions().data());
  EXPECT_EQ(serial.emissions().data(), threaded.emissions().data());
  EXPECT_EQ(serial.loss_given_symbol(), threaded.loss_given_symbol());
}

TEST(ParallelEm, MmhdFitIsThreadCountInvariant) {
  const auto seq = synth_sequence(1500, 4, 7);
  // N >= 2 sweeps the received probes with N x N blocks (specialized per N
  // up to four); N = 1 needs no received-probe sweep.
  for (int n : {3, 2, 1}) {
    SCOPED_TRACE(::testing::Message() << "N=" << n);
    auto em = base_options();
    em.hidden_states = n;

    inference::Mmhd serial(em.hidden_states, 4);
    em.threads = 1;
    const auto f1 = serial.fit(seq, em);

    inference::Mmhd threaded(em.hidden_states, 4);
    em.threads = 8;
    const auto f8 = threaded.fit(seq, em);

    EXPECT_EQ(f1.winning_restart, f8.winning_restart);
    EXPECT_EQ(f1.log_likelihood, f8.log_likelihood);
    EXPECT_EQ(f1.log_likelihood_history, f8.log_likelihood_history);
    EXPECT_EQ(f1.virtual_delay_pmf, f8.virtual_delay_pmf);
    EXPECT_EQ(serial.initial(), threaded.initial());
    EXPECT_EQ(serial.transitions().data(), threaded.transitions().data());
    EXPECT_EQ(serial.loss_given_symbol(), threaded.loss_given_symbol());
  }
}

// --------------------------------------------------------------------------
// The fit installs the parameters whose likelihood it reports: evaluating
// log_likelihood() on the fitted model must reproduce fit.log_likelihood.

TEST(ParallelEm, HmmReportedLikelihoodMatchesInstalledParameters) {
  const auto seq = synth_sequence(1000, 4, 31);
  auto em = base_options();
  inference::Hmm model(em.hidden_states, 4);
  const auto fit = model.fit(seq, em);
  const double tol = 1e-9 * std::max(1.0, std::abs(fit.log_likelihood));
  EXPECT_NEAR(model.log_likelihood(seq), fit.log_likelihood, tol);
  // The retained-trellis posterior must equal an independent recomputation.
  const auto pmf = model.virtual_delay_pmf(seq);
  ASSERT_EQ(pmf.size(), fit.virtual_delay_pmf.size());
  for (std::size_t d = 0; d < pmf.size(); ++d)
    EXPECT_NEAR(pmf[d], fit.virtual_delay_pmf[d], 1e-9);
}

TEST(ParallelEm, MmhdReportedLikelihoodMatchesInstalledParameters) {
  const auto seq = synth_sequence(1000, 4, 32);
  auto em = base_options();
  inference::Mmhd model(em.hidden_states, 4);
  const auto fit = model.fit(seq, em);
  const double tol = 1e-9 * std::max(1.0, std::abs(fit.log_likelihood));
  EXPECT_NEAR(model.log_likelihood(seq), fit.log_likelihood, tol);
  const auto pmf = model.virtual_delay_pmf(seq);
  ASSERT_EQ(pmf.size(), fit.virtual_delay_pmf.size());
  for (std::size_t d = 0; d < pmf.size(); ++d)
    EXPECT_NEAR(pmf[d], fit.virtual_delay_pmf[d], 1e-9);
}

// --------------------------------------------------------------------------
// Observer replay: a threaded fit buffers per-restart events and replays
// them at the join, so a registry observer must record exactly what it
// records under a serial fit.

TEST(ParallelEm, ObserverSeesIdenticalTelemetrySerialAndThreaded) {
  const auto seq = synth_sequence(1200, 4, 41);
  auto em = base_options();
  em.restarts = 3;

  obs::Registry reg1;
  inference::RegistryEmObserver w1(reg1, "em.t");
  em.threads = 1;
  em.observer = &w1;
  inference::Hmm m1(em.hidden_states, 4);
  const auto f1 = m1.fit(seq, em);

  obs::Registry reg4;
  inference::RegistryEmObserver w4(reg4, "em.t");
  em.threads = 4;
  em.observer = &w4;
  inference::Hmm m4(em.hidden_states, 4);
  const auto f4 = m4.fit(seq, em);

  EXPECT_EQ(reg1.counter("em.t.fits").value(), 1u);
  EXPECT_EQ(reg4.counter("em.t.fits").value(), 1u);
  EXPECT_EQ(reg1.counter("em.t.restarts").value(),
            reg4.counter("em.t.restarts").value());
  EXPECT_EQ(reg1.counter("em.t.iterations").value(),
            reg4.counter("em.t.iterations").value());
  EXPECT_EQ(reg1.counter("em.t.converged_restarts").value(),
            reg4.counter("em.t.converged_restarts").value());
  EXPECT_EQ(reg1.histogram("em.t.iterations_per_restart").count(),
            reg4.histogram("em.t.iterations_per_restart").count());
  EXPECT_EQ(reg1.histogram("em.t.iterations_per_restart").sum(),
            reg4.histogram("em.t.iterations_per_restart").sum());
  EXPECT_EQ(reg1.gauge("em.t.final_log_likelihood").value(),
            reg4.gauge("em.t.final_log_likelihood").value());
  EXPECT_EQ(reg1.gauge("em.t.winning_restart").value(),
            reg4.gauge("em.t.winning_restart").value());
  EXPECT_EQ(w1.winner_history(), w4.winner_history());
  EXPECT_EQ(w1.winner_history(), f1.log_likelihood_history);
  EXPECT_EQ(f1.log_likelihood, f4.log_likelihood);
}

// --------------------------------------------------------------------------
// Upper layers

TEST(ParallelEm, ModelSelectionIsThreadCountInvariant) {
  const auto seq = synth_sequence(1200, 4, 51);
  auto em = base_options();
  em.restarts = 2;
  em.max_iterations = 20;

  em.threads = 1;
  const auto s1 = inference::select_mmhd_hidden_states(seq, 4, 3, em);
  em.threads = 4;
  const auto s4 = inference::select_mmhd_hidden_states(seq, 4, 3, em);

  EXPECT_EQ(s1.best_hidden_states, s4.best_hidden_states);
  ASSERT_EQ(s1.scores.size(), s4.scores.size());
  for (std::size_t i = 0; i < s1.scores.size(); ++i) {
    EXPECT_EQ(s1.scores[i].hidden_states, s4.scores[i].hidden_states);
    EXPECT_EQ(s1.scores[i].log_likelihood, s4.scores[i].log_likelihood);
    EXPECT_EQ(s1.scores[i].bic, s4.scores[i].bic);
    EXPECT_EQ(s1.scores[i].aic, s4.scores[i].aic);
    EXPECT_EQ(s1.scores[i].parameters, s4.scores[i].parameters);
    EXPECT_EQ(s1.scores[i].virtual_delay_pmf, s4.scores[i].virtual_delay_pmf);
  }
}

// --------------------------------------------------------------------------
// Successive-halving restart racing (EmOptions::race_warmup)

// Every restart's FitResult, as EmObserver::on_restart reports it.
struct RestartRecorder : inference::EmObserver {
  std::vector<inference::FitResult> restarts;
  void on_restart(int, const inference::FitResult& result, bool) override {
    restarts.push_back(result);
  }
};

// Rungs only re-chunk each restart's EM trajectory, so a raced restart runs
// the same iterations as in the plain fit until a rung prunes it: its
// likelihood history is a prefix of the plain one, and all of it when it
// survives. A raced fit that keeps the plain winner installs the same
// parameters bitwise. Counts the pruned restarts and the fits whose winner
// matched, so the caller can check that both branches ran.
template <typename Model>
void expect_raced_restarts_follow_plain(const std::vector<int>& seq,
                                        int& pruned, int& same_winner) {
  for (int n : {1, 2, 3}) {
    for (const auto& [restarts, warmup] :
         {std::pair{6, 4}, std::pair{8, 3}}) {
      SCOPED_TRACE(::testing::Message() << "N=" << n << " restarts="
                                        << restarts << " warmup=" << warmup);
      auto em = base_options();
      em.hidden_states = n;
      em.restarts = restarts;

      RestartRecorder plain_seen;
      em.observer = &plain_seen;
      Model plain(n, 4);
      const auto f_plain = plain.fit(seq, em);

      RestartRecorder raced_seen;
      auto racing = em;
      racing.race_warmup = warmup;
      racing.observer = &raced_seen;
      Model raced(n, 4);
      const auto f_raced = raced.fit(seq, racing);

      EXPECT_EQ(f_plain.race_rungs, 0);
      EXPECT_GT(f_raced.race_rungs, 0);
      ASSERT_EQ(plain_seen.restarts.size(), static_cast<std::size_t>(restarts));
      ASSERT_EQ(raced_seen.restarts.size(), plain_seen.restarts.size());
      for (std::size_t r = 0; r < plain_seen.restarts.size(); ++r) {
        SCOPED_TRACE(::testing::Message() << "restart " << r);
        const auto& p = plain_seen.restarts[r];
        const auto& q = raced_seen.restarts[r];
        EXPECT_FALSE(p.pruned);
        if (q.pruned) {
          ++pruned;
          ASSERT_LT(q.log_likelihood_history.size(),
                    p.log_likelihood_history.size());
          EXPECT_TRUE(std::equal(q.log_likelihood_history.begin(),
                                 q.log_likelihood_history.end(),
                                 p.log_likelihood_history.begin()));
        } else {
          EXPECT_EQ(q.log_likelihood_history, p.log_likelihood_history);
          EXPECT_EQ(q.log_likelihood, p.log_likelihood);
          EXPECT_EQ(q.virtual_delay_pmf, p.virtual_delay_pmf);
        }
      }
      if (f_raced.winning_restart != f_plain.winning_restart) continue;
      ++same_winner;
      EXPECT_EQ(f_plain.log_likelihood, f_raced.log_likelihood);
      EXPECT_EQ(f_plain.log_likelihood_history,
                f_raced.log_likelihood_history);
      EXPECT_EQ(f_plain.virtual_delay_pmf, f_raced.virtual_delay_pmf);
      EXPECT_EQ(plain.initial(), raced.initial());
      EXPECT_EQ(plain.transitions().data(), raced.transitions().data());
      EXPECT_EQ(plain.loss_given_symbol(), raced.loss_given_symbol());
    }
  }
}

TEST(ParallelEm, RacedRestartsFollowThePlainTrajectory) {
  const auto seq = synth_sequence(1500, 4, 91);
  {
    SCOPED_TRACE("Mmhd");
    int pruned = 0, same_winner = 0;
    expect_raced_restarts_follow_plain<inference::Mmhd>(seq, pruned,
                                                        same_winner);
    EXPECT_GT(pruned, 0);
    EXPECT_GT(same_winner, 0);
  }
  {
    SCOPED_TRACE("Hmm");
    int pruned = 0, same_winner = 0;
    expect_raced_restarts_follow_plain<inference::Hmm>(seq, pruned,
                                                       same_winner);
    EXPECT_GT(pruned, 0);
    EXPECT_GT(same_winner, 0);
  }
}

template <typename Model>
void expect_racing_thread_count_invariant(const std::vector<int>& seq) {
  auto em = base_options();
  em.restarts = 8;
  em.race_warmup = 3;

  Model serial(em.hidden_states, 4);
  em.threads = 1;
  const auto f1 = serial.fit(seq, em);

  Model threaded(em.hidden_states, 4);
  em.threads = 8;
  const auto f8 = threaded.fit(seq, em);

  // Every rung reduction is an index-ordered scan over restart state on
  // the calling thread, so the eliminated set — not just the winner — is
  // identical for any thread count.
  EXPECT_EQ(f1.race_rungs, f8.race_rungs);
  EXPECT_EQ(f1.pruned_restarts, f8.pruned_restarts);
  EXPECT_EQ(f1.winning_restart, f8.winning_restart);
  EXPECT_EQ(f1.log_likelihood, f8.log_likelihood);
  EXPECT_EQ(f1.log_likelihood_history, f8.log_likelihood_history);
  EXPECT_EQ(f1.virtual_delay_pmf, f8.virtual_delay_pmf);
  EXPECT_EQ(serial.initial(), threaded.initial());
  EXPECT_EQ(serial.transitions().data(), threaded.transitions().data());
}

TEST(ParallelEm, RacingIsThreadCountInvariant) {
  const auto seq = synth_sequence(1500, 4, 93);
  {
    SCOPED_TRACE("Mmhd");
    expect_racing_thread_count_invariant<inference::Mmhd>(seq);
  }
  {
    SCOPED_TRACE("Hmm");
    expect_racing_thread_count_invariant<inference::Hmm>(seq);
  }
}

TEST(ParallelEm, RacingAbandonsTrailersAndKeepsWinnerClose) {
  const auto seq = synth_sequence(1500, 4, 97);
  auto em = base_options();
  em.restarts = 8;

  inference::Hmm unraced(em.hidden_states, 4);
  const auto f_full = unraced.fit(seq, em);

  auto racing = em;
  racing.race_warmup = 3;
  inference::Hmm raced(em.hidden_states, 4);
  const auto f_raced = raced.fit(seq, racing);

  // With random restarts on real structure the rank cut fires: some
  // trailers are abandoned, and at least one survivor runs to the full
  // iteration budget.
  EXPECT_GT(f_raced.race_rungs, 0);
  EXPECT_GT(f_raced.pruned_restarts, 0);
  EXPECT_LT(f_raced.pruned_restarts, em.restarts);
  // Racing maximizes over a subset of the restarts, so it can never beat
  // the full fit; on this data the surviving restarts reach the same
  // basin, so it also lands within a whisker of it. (Winner *identity* is
  // not asserted: when restarts converge to the same optimum, which index
  // wins depends on sub-0.1-nat differences that racing legitimately
  // reshuffles.)
  EXPECT_LE(f_raced.log_likelihood, f_full.log_likelihood);
  EXPECT_NEAR(f_raced.log_likelihood, f_full.log_likelihood, 0.5);
}

TEST(ParallelEm, ObserverSeesRungsAndEliminations) {
  const auto seq = synth_sequence(1500, 4, 101);
  auto em = base_options();
  em.restarts = 8;
  em.race_warmup = 3;

  struct RungCounter : inference::EmObserver {
    int rungs = 0;
    int eliminated = 0;
    int last_survivors = -1;
    int last_target = 0;
    int restarts = 0;
    int flagged = 0;
    int flagged_best = 0;
    bool first_pruned = false;
    void on_rung(int, int target_iterations, int survivors,
                 int eliminated_now) override {
      ++rungs;
      eliminated += eliminated_now;
      last_survivors = survivors;
      last_target = target_iterations;
    }
    void on_restart(int restart, const inference::FitResult& r,
                    bool new_best) override {
      ++restarts;
      if (r.pruned) ++flagged;
      if (r.pruned && new_best) ++flagged_best;
      if (restart == 0) first_pruned = r.pruned;
    }
  } counter;
  em.observer = &counter;

  inference::Mmhd model(em.hidden_states, 4);
  const auto fit = model.fit(seq, em);
  EXPECT_EQ(counter.rungs, fit.race_rungs);
  EXPECT_EQ(counter.eliminated, fit.pruned_restarts);
  EXPECT_GT(fit.race_rungs, 0);
  // Eliminated restarts still surface through the observer, once each,
  // flagged pruned.
  EXPECT_EQ(counter.restarts, em.restarts);
  EXPECT_EQ(counter.flagged, fit.pruned_restarts);
  // ...and never lead the winner reduction, not even restart 0, which
  // it sees first: a raced-out restart froze early and has no posterior.
  ASSERT_TRUE(counter.first_pruned);
  EXPECT_EQ(counter.flagged_best, 0);
  EXPECT_FALSE(fit.pruned);
  EXPECT_FALSE(fit.virtual_delay_pmf.empty());
  // The last rung reduction leaves at least the eventual winner alive and
  // never reports a target beyond the configured iteration budget.
  EXPECT_GE(counter.last_survivors, 1);
  EXPECT_LE(counter.last_target, em.max_iterations);
}

TEST(ParallelEm, BootstrapIsThreadCountInvariant) {
  // Synthetic per-loss posteriors with enough spread that replicates do
  // not all land on the same decision.
  std::vector<util::Pmf> posteriors;
  util::Rng rng(61);
  for (int i = 0; i < 60; ++i) {
    util::Pmf p = rng.simplex(5);
    posteriors.push_back(std::move(p));
  }

  core::BootstrapConfig bc;
  bc.replicates = 400;
  bc.seed = 77;
  bc.eps_l = 0.06;

  bc.threads = 1;
  const auto r1 = core::bootstrap_wdcl(posteriors, bc);
  bc.threads = 8;
  const auto r8 = core::bootstrap_wdcl(posteriors, bc);

  EXPECT_EQ(r1.accept_fraction, r8.accept_fraction);
  EXPECT_EQ(r1.f2istar_lo, r8.f2istar_lo);
  EXPECT_EQ(r1.f2istar_hi, r8.f2istar_hi);
  EXPECT_EQ(r1.losses, r8.losses);
  EXPECT_EQ(r1.replicates, r8.replicates);
}

}  // namespace
}  // namespace dcl
