// Choosing the MMHD hidden-state count N.
//
// The paper sweeps N in 1..4 and reports that results barely change; a
// downstream user still has to pick one. This module scores candidate N
// by the Bayesian information criterion,
//
//   BIC(N) = -2 log L + k(N) log T,
//
// with k(N) the number of free parameters (initial distribution,
// transition matrix rows over the *observed-support* states, and the
// per-symbol loss probabilities), and returns the N minimizing it. BIC's
// log T penalty suits the goal here — parsimonious models whose
// virtual-delay posterior generalizes — better than AIC's fixed penalty,
// and both are reported for transparency.
#pragma once

#include <vector>

#include "inference/em_options.h"

namespace dcl::inference {

struct ModelScore {
  int hidden_states = 0;
  double log_likelihood = 0.0;
  double bic = 0.0;
  double aic = 0.0;
  std::size_t parameters = 0;
  util::Pmf virtual_delay_pmf;
  // Fit diagnostics of the winning restart: a candidate that hit
  // max_iterations without converging signals its BIC may be understated
  // (likelihood still climbing), worth knowing before trusting the choice.
  int iterations = 0;
  bool converged = false;
  // True when the candidate was eliminated mid-fit by structure racing
  // (base.race_warmup > 0): its best reachable BIC was behind the
  // leader's already-realized BIC, so the fit stopped early. Its
  // log_likelihood/bic/aic describe the partial fit — understated
  // likelihood, overstated criteria — and it never wins the selection.
  bool raced_out = false;
};

struct ModelSelectionResult {
  int best_hidden_states = 1;     // arg min BIC
  std::vector<ModelScore> scores; // one per candidate N, ascending
};

// Fits an MMHD for each N in [1, max_hidden_states] and scores it.
// `base` supplies seed/tolerance/prior; its hidden_states is ignored.
// base.threads parallelizes the candidate fits (each fit runs serially in
// a pool worker); the result is identical for any thread count. With an
// observer attached the candidates run serially — each fit then
// parallelizes its own restarts — so observer callbacks never interleave.
//
// With base.race_warmup > 0 the candidates *race* instead of each fitting
// to convergence: every candidate's restart set advances on shared
// successive-halving rungs, and after each rung a candidate whose best
// reachable BIC — from its likelihood upper bound — is already behind the
// leader's realized BIC is eliminated (ModelScore::raced_out). The cut is
// exact only under plain maximum likelihood (transition_prior = 0), where
// EM's likelihood is non-decreasing, so the leader's current BIC only
// improves — and then only up to the non-increasing-gain assumption
// behind the bound. The MMHD default prior (2) makes EM ascend the
// penalized objective instead, so the data likelihood, and with it the
// leader's BIC, can dip; there the cut rests on the checks that the raced
// selection picks the unraced N (selection_bootstrap_test, bench_racing's
// selection block). Surviving candidates run to convergence and the
// winner is the same deterministic ascending-N BIC argmin. Rung reductions
// are candidate-ordered scans on the calling thread, so the raced
// selection is also bitwise identical for any thread count; observer
// callbacks are replayed per candidate in ascending N once the race
// settles.
ModelSelectionResult select_mmhd_hidden_states(const std::vector<int>& seq,
                                               int symbols,
                                               int max_hidden_states,
                                               const EmOptions& base = {});

}  // namespace dcl::inference
