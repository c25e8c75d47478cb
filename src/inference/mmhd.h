// Markov model with a hidden dimension (MMHD), after Wei, Wang & Towsley,
// "Continuous-time hidden Markov models for network performance
// evaluation" and Appendix B of the paper.
//
// Unlike an HMM, the MMHD state *contains* the observation: the state at
// time t is the pair (H_t, D_t) of a hidden component H in {1..N} and the
// delay symbol D in {1..M}; the transition matrix is (N*M) x (N*M). The
// observation is D_t itself when the probe arrives and a missing value
// (loss) otherwise, with per-symbol loss probability C[d] = P(loss | D=d).
// Because transitions condition on the previous *symbol*, MMHD captures
// delay autocorrelation that an HMM with few hidden states cannot — the
// paper's Fig. 8 shows HMM failing where MMHD matches the ground truth.
//
// The EM algorithm follows the paper's Appendix B (scaled forward-backward
// over the composite state space with missing-value emissions). When a
// symbol is observed only the N states carrying that symbol are feasible,
// and a loss can only sit on the N * S states of the S symbols observed in
// the sequence. The default engine exploits both: it sweeps the received
// probes only, with one N x N block per step (O(N^2) per received probe,
// one two-ended pass whose forward and backward chains run together), and
// bridges every loss run by a block that depends only on the run's
// (left symbol, right symbol, length) key, so each distinct key costs
// O(N * run length * (N * S)^2) per iteration however often it occurs
// (see fb::segment_bridges). With N = 1 a received probe's state is
// certain and the received-probe sweep reduces to fixed bigram counts, so
// an iteration is independent of the received count.
//
// The M-step (shared by both engines) pays only for the N * S live states
// too: transition numerators and the prior live on live rows x live
// columns, so it normalizes, floors and renormalizes O((N * S)^2) entries,
// adds the dead columns' floor mass in closed form and writes the dead
// entries of each live row (O(N * S * N * M)). A dead state's row is
// uniform, written at a fit's first two M-steps (one per parameter
// buffer) and left alone after. transitions() is always the full,
// row-stochastic (N * M) x (N * M) matrix.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "inference/em_options.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dcl::inference {

namespace detail {
template <typename Model>
class RestartSet;  // the shared restart driver, see em_internal.h
}

class MmhdRefitter;

class Mmhd {
 public:
  Mmhd(int hidden_states, int symbols);

  // Fits to `seq` (1-based symbols, kLossSymbol for losses) with random
  // restarts; returns diagnostics and the virtual-delay PMF (eq. (5)).
  FitResult fit(const std::vector<int>& seq, const EmOptions& opts);

  int hidden_states() const { return n_; }
  int symbols() const { return m_; }
  int states() const { return n_ * m_; }
  const std::vector<double>& initial() const { return pi_; }
  const util::Matrix& transitions() const { return a_; }  // (N*M) x (N*M)
  const std::vector<double>& loss_given_symbol() const { return c_; }

  double log_likelihood(const std::vector<int>& seq) const;
  util::Pmf virtual_delay_pmf(const std::vector<int>& seq) const;

  // One posterior over the delay symbols per loss step, in sequence order
  // — the summands of eq. (5) (their average is virtual_delay_pmf).
  // Used by the bootstrap confidence machinery.
  std::vector<util::Pmf> per_loss_posteriors(const std::vector<int>& seq) const;

  // Viterbi decoding: the single most likely composite-state path given
  // the observations, returned as the per-step delay symbol (1-based).
  // At observed steps the decoded symbol equals the observation; at loss
  // steps it is the model's hard attribution of the missing delay — a
  // per-loss counterpart of the distribution-level eq. (5), useful for
  // inspecting individual loss episodes.
  std::vector<int> viterbi(const std::vector<int>& seq) const;

  // State index helpers: s = h * M + d with 0-based h and d.
  int state_of(int h, int d) const { return h * m_ + d; }
  int symbol_of_state(int s) const { return s % m_; }
  int hidden_of_state(int s) const { return s / m_; }

  void set_parameters(std::vector<double> pi, util::Matrix a,
                      std::vector<double> c);

 private:
  friend class MmhdRefitter;  // warm-started EM over a reused workspace
  friend class detail::RestartSet<Mmhd>;
  static constexpr const char* kRestartStage = "em.mmhd";
  static constexpr const char* kIterStage = "em.mmhd.iter";

  // Defined in mmhd_internal.h.
  struct Trellis;
  struct FitContext;  // immutable per-fit inputs shared by every restart
  struct Workspace;   // per-restart trellis, segment state, accumulators

  void random_init(util::Rng& rng, double observed_loss_rate);
  void clamp_parameters();
  // The fit's engine follows EmOptions::cache_emissions: the loss-segment
  // kernels (default) or the per-call reference.
  FitContext make_context(const std::vector<int>& seq,
                          const EmOptions& opts) const;
  // Loss-segment engine inputs: received-pair and per-symbol counts, and
  // the distinct (left, right, length) loss runs with their multiplicities.
  void build_segments(const std::vector<int>& seq, FitContext& ctx) const;
  // Dirichlet pseudo-counts for the transition M-step, built from the
  // observed symbol bigrams of `seq` (see EmOptions::transition_prior) over
  // the context's live states.
  void build_transition_prior(const std::vector<int>& seq, double strength,
                              FitContext& ctx) const;
  // Active composite states for an observation: the N states carrying the
  // observed symbol, or — on a loss — the states of every symbol in
  // `support`. Restricting losses to symbols actually observed in the
  // sequence prevents a degenerate EM optimum that dumps all loss mass on
  // a never-observed symbol (whose C[d] can grow to 1 at no cost).
  void active_states(int obs, const std::vector<char>& support,
                     std::vector<int>& out) const;
  double emission(int s, int obs) const;
  double forward_backward(const std::vector<int>& seq, Trellis& w) const;
  // One EM step in place with the context's engine; both engines snapshot
  // the parameters *entering* the step into the workspace (their
  // likelihood is the one reported). Returns {log likelihood, largest
  // parameter change}.
  std::pair<double, double> em_step(const std::vector<int>& seq,
                                    const FitContext& ctx, Workspace& ws);
  // Reference engine (EmOptions::cache_emissions = false): per-call
  // emission() and per-step active sets.
  std::pair<double, double> em_step_reference(const std::vector<int>& seq,
                                              const FitContext& ctx,
                                              Workspace& ws);
  // Default engine: bridges each distinct loss run once
  // (fb::segment_bridges), sweeps the received probes with N x N blocks
  // (fb::skeleton_sweep, one two-ended pass; a closed form when N = 1 or
  // nothing was received), and expands each run's boundary posterior into
  // its loss steps (fb::segment_expand).
  std::pair<double, double> em_step_segments(const FitContext& ctx,
                                             Workspace& ws);
  // The first half of em_step_segments, also the likelihood-only path:
  // folds the parameters into ws, builds the bridges, runs the skeleton
  // sweep (its E-step comes with the likelihood) and returns the log
  // likelihood of the current parameters. When every received probe's
  // state is certain, the expansion (which measures each loss run's mass)
  // runs here too.
  double segment_forward(const FitContext& ctx, Workspace& ws) const;
  // Folds the parameters into ws.seg for the segment kernels.
  void build_segment_chain(const FitContext& ctx, Workspace& ws) const;
  // Folds the received-probe blocks into ws: adjacent-pair blocks, each
  // bridge scaled to a maximum in [0.5, 1) (its exponent summed into
  // ws.bridge_exp), and the rows at the two ends of the sequence.
  void build_skeleton(const FitContext& ctx, Workspace& ws) const;
  // Sizes and zeroes the live x live transition numerators.
  void zero_numerators(const FitContext& ctx, Workspace& ws) const;
  // M-step tail shared by both engines: snapshots the entering parameters
  // into ws.old_*, installs pi, A (plus the context's prior) and C from the
  // workspace accumulators, clamps, records the eq. (5) numerator and
  // returns the largest change against the snapshot. A is computed over
  // the live states only; its dead entries get what the full M-step gives.
  double m_step(const FitContext& ctx, Workspace& ws);
  void install_entering(Workspace& ws);
  // The summands of eq. (5) from a trellis forward_backward filled for
  // `seq`: one posterior over the delay symbols per loss step.
  std::vector<util::Pmf> loss_posteriors(const std::vector<int>& seq,
                                         const Trellis& w) const;
  // Eq. (5) for the parameters entering the last em_step on ws.
  util::Pmf fitted_posterior(const std::vector<int>& seq,
                             const FitContext& ctx, const Workspace& ws,
                             std::size_t losses) const;

  int n_;
  int m_;
  std::vector<double> pi_;  // N*M
  util::Matrix a_;          // (N*M) x (N*M)
  std::vector<double> c_;   // M
};

// Warm-started EM refits for the sequence bootstrap: snapshots a fitted
// model's parameters and, per refit() call, runs EM on a (resampled)
// sequence starting from that snapshot instead of cold random restarts.
// One Workspace/Trellis is allocated at construction and reused across
// every refit, so a replicate loop allocates nothing per replicate in
// steady state. The EmOptions engine switch (cache_emissions) and the
// convergence/prior settings apply as in Mmhd::fit; restarts, racing and
// the observer are ignored — a refit is a single warm run.
// Not thread-safe: use one refitter per worker thread.
class MmhdRefitter {
 public:
  MmhdRefitter(const Mmhd& fitted, const EmOptions& opts);
  ~MmhdRefitter();
  MmhdRefitter(MmhdRefitter&&) noexcept;
  MmhdRefitter& operator=(MmhdRefitter&&) noexcept;

  // EM from the stored snapshot on `seq`; the result follows the fit()
  // conventions (entering-parameter likelihood, eq. (5) posterior).
  FitResult refit(const std::vector<int>& seq);

  // Parameters produced by the most recent refit (the snapshot's values
  // before the first call).
  const Mmhd& model() const { return model_; }

 private:
  Mmhd model_;
  std::vector<double> pi0_, c0_;  // the warm-start snapshot
  util::Matrix a0_;
  EmOptions opts_;
  std::unique_ptr<Mmhd::Workspace> ws_;
};

}  // namespace dcl::inference
