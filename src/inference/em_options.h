// Shared EM configuration and fit diagnostics for the HMM and MMHD models.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/stats.h"

namespace dcl::inference {

struct FitResult;

// Optional telemetry hook for the EM fits. The model invokes the observer
// only from the thread that called fit(), in serial restart order (worker
// threads buffer their iteration events; see EmOptions::observer below), so
// implementations need no synchronization — but must be cheap (record a
// number, bump a counter) and must not call back into the model.
// All methods have empty defaults; override only what you need.
class EmObserver {
 public:
  virtual ~EmObserver() = default;
  // After every EM iteration of every restart: the data log likelihood of
  // the parameters *entering* the iteration and the largest absolute
  // parameter change the iteration produced.
  virtual void on_iteration(int restart, int iteration, double log_likelihood,
                            double max_param_delta) {
    (void)restart; (void)iteration; (void)log_likelihood;
    (void)max_param_delta;
  }
  // After a restart finishes (converged or hit max_iterations). `new_best`
  // is true when this restart currently leads the winner selection.
  virtual void on_restart(int restart, const FitResult& result,
                          bool new_best) {
    (void)restart; (void)result; (void)new_best;
  }
  // Once per fit, after the winning restart has been chosen.
  virtual void on_winner(int restart, const FitResult& result) {
    (void)restart; (void)result;
  }
  // After each racing rung reduction (EmOptions::race_warmup > 0): the rung
  // index, the cumulative iteration target the rung ran to, how many
  // contenders remain eligible to win, and how many this rung eliminated.
  // Invoked live from the fit's calling thread between rungs (the workers
  // are quiesced at the reduction), so no synchronization is needed.
  virtual void on_rung(int rung, int target_iterations, int survivors,
                       int eliminated) {
    (void)rung; (void)target_iterations; (void)survivors; (void)eliminated;
  }
};

struct EmOptions {
  int hidden_states = 2;    // N
  int max_iterations = 300;
  // Convergence: the fit stops when the largest absolute change of any
  // model parameter between consecutive iterations falls below this
  // threshold (the paper uses 1e-4/1e-5 and reports both behave alike).
  double tolerance = 1e-4;
  std::uint64_t seed = 1;
  // Independent random restarts; the fit with the best final log
  // likelihood wins.
  int restarts = 1;
  // MAP regularization of the MMHD transition matrix: a Dirichlet prior
  // whose pseudo-counts are `transition_prior` times the *observed*
  // symbol-bigram counts of the sequence. Plain maximum likelihood
  // (strength 0) has a degenerate optimum on real traces: all loss mass
  // migrates to a rarely-observed symbol whose loss probability C[d] can
  // approach 1 at almost no cost, with the loss steps themselves supplying
  // the transition mass into that symbol. Anchoring transitions to
  // observed bigrams breaks that self-reinforcement while leaving
  // well-evidenced structure untouched. Ignored by the HMM.
  double transition_prior = 2.0;
  // Worker threads for the independent restarts: 0 = all hardware threads,
  // 1 = fully serial, k = at most k workers (never more than `restarts`).
  // The fit result is bitwise identical for every value — each restart is
  // an isolated computation over a pre-forked RNG, and the winner is a
  // deterministic index-ordered reduction — so this only changes wall time.
  int threads = 0;
  // Engine switch: true (the default) runs the forward-backward kernels of
  // src/inference/fb_kernels.h: one two-ended chain sweep over N x N
  // transition x emission blocks for both models (the HMM over every
  // probe; the MMHD over its received probes, with the loss-segment
  // kernels bridging loss runs). false runs the original per-call
  // reference path, kept as the regression oracle the kernels are tested
  // against; the two agree to floating-point accuracy (see
  // fb_kernels_test), not bitwise, and the reference is substantially
  // slower.
  bool cache_emissions = true;
  // Successive-halving restart racing: every restart runs `race_warmup`
  // iterations, a rung reduction keeps the top `race_keep` fraction of the
  // likelihood ranking — plus any trailer whose likelihood upper bound (see
  // race_overtake) can still overtake the leader — and the eliminated
  // contenders' per-rung iteration budget is reallocated to the survivors,
  // so rung depth grows as the field shrinks. Rungs repeat until one
  // contender remains or max_iterations is exhausted. Every reduction is
  // an index-ordered scan on the calling thread over per-restart values,
  // so the surviving set — and the winner — is bitwise identical for any
  // thread count. race_warmup = 0 (the default) disables racing: every
  // restart runs straight to max_iterations.
  int race_warmup = 0;
  // Fraction of the contenders kept by each rung's rank cut (ties at the
  // cut survive). 0.5 is classic successive halving.
  double race_keep = 0.5;
  // Scales the reallocated per-rung budget: each survivor's next rung runs
  // about race_grow * race_warmup * restarts / survivors more iterations.
  double race_grow = 1.0;
  // Overtake retention: a contender below the rank cut still survives
  // while  ll + race_overtake * gain * remaining_iterations >= leader_ll,
  // with `gain` its mean per-iteration likelihood gain over the last rung.
  // EM iteration gains are non-increasing in practice, so race_overtake =
  // 1 makes this a faithful reachable-likelihood bound; smaller values
  // race more aggressively, 0 disables retention (pure rank racing).
  double race_overtake = 1.0;
  // Telemetry hook (not owned; may be null). See EmObserver above. Under a
  // multi-threaded fit the per-iteration events are buffered inside each
  // worker and replayed in restart order at the join, so the observer is
  // always invoked from the calling thread in the serial call order and
  // needs no locking.
  EmObserver* observer = nullptr;
};

// The successive-halving rung schedule: the next cumulative iteration
// target after a rung reduction at `target` left `live` of `n` contenders
// (restarts, or model structures racing on shared rungs). The eliminated
// contenders' rung budget is reallocated, so each survivor's increment is
// about race_grow * race_warmup * n / live — rung depth doubles as the
// field halves. A single survivor runs straight to max_iterations.
inline int race_next_target(const EmOptions& opts, int target, std::size_t n,
                            int live) {
  if (live <= 1) return opts.max_iterations;
  const double budget = opts.race_grow *
                        static_cast<double>(opts.race_warmup) *
                        static_cast<double>(n);
  const int step =
      std::max(1, static_cast<int>(budget / static_cast<double>(live)));
  if (target > opts.max_iterations - step) return opts.max_iterations;
  return target + step;
}

struct FitResult {
  bool converged = false;
  int iterations = 0;
  // Index (0-based) of the restart that won the likelihood comparison.
  int winning_restart = 0;
  double log_likelihood = 0.0;
  // Per-iteration log likelihood of the winning restart (for monotonicity
  // checks and diagnostics).
  std::vector<double> log_likelihood_history;
  // P(D = d | loss): the paper's virtual queuing delay PMF, eq. (5).
  util::Pmf virtual_delay_pmf;
  std::size_t losses = 0;
  // True when a racing rung reduction eliminated this restart (only ever
  // seen through EmObserver::on_restart — an eliminated restart cannot
  // win).
  bool pruned = false;
  // On the winning fit result: how many restarts of this fit racing rung
  // reductions eliminated.
  int pruned_restarts = 0;
  // On the winning fit result: racing rung reductions executed (0 when
  // racing was off or never reached a reduction).
  int race_rungs = 0;
};

}  // namespace dcl::inference
