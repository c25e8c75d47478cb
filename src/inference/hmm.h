// Hidden Markov model over discretized delay symbols, extended (per the
// paper, Section V-B) to treat probe losses as delays with missing values.
//
// Parameters: N hidden states, M delay symbols;
//   pi[h]  — initial hidden-state distribution,
//   A[h][h'] — hidden-state transition matrix,
//   B[h][d]  — emission probability of delay symbol d in state h,
//   C[d]     — P(observation is a loss | delay symbol is d).
// An observed symbol d contributes emission B[h][d]*(1-C[d]); a loss
// contributes sum_d B[h][d]*C[d]. The EM algorithm is Rabiner's extended
// with these missing-value emissions, using scaled forward-backward.
//
// The virtual queuing delay distribution P(D=d | loss) — paper eq. (5) —
// is the posterior over the missing symbols at loss steps, averaged over
// losses, computed from the smoothed state posteriors of the whole
// sequence.
//
// core::Identifier fits only the MMHD (mmhd.h); this model serves the
// paper's HMM-vs-MMHD comparison (Fig. 8) and the ablation benches.
#pragma once

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

class Hmm {
 public:
  Hmm(int hidden_states, int symbols);

  // Fits the model to `seq` (1-based symbols; kLossSymbol=-1 marks losses)
  // with `opts.restarts` random restarts, keeping the best likelihood.
  // The returned FitResult carries the virtual-delay PMF.
  FitResult fit(const std::vector<int>& seq, const EmOptions& opts);

  int hidden_states() const { return n_; }
  int symbols() const { return m_; }
  const std::vector<double>& initial() const { return pi_; }
  const util::Matrix& transitions() const { return a_; }
  const util::Matrix& emissions() const { return b_; }
  const std::vector<double>& loss_given_symbol() const { return c_; }

  // Log likelihood of `seq` under the current parameters.
  double log_likelihood(const std::vector<int>& seq) const;

  // Posterior P(D=d | loss) for `seq` under the current parameters.
  util::Pmf virtual_delay_pmf(const std::vector<int>& seq) const;

  // Ablation: the stationary Bayes form C_d * p(d) / sum_d' C_d' p(d'),
  // with p the model's stationary symbol distribution.
  util::Pmf stationary_virtual_delay_pmf() const;

  // Directly installs parameters (used by tests and synthetic generators).
  void set_parameters(std::vector<double> pi, util::Matrix a, util::Matrix b,
                      std::vector<double> c);

 private:
  friend class detail::RestartSet<Hmm>;
  static constexpr const char* kRestartStage = "em.hmm";
  static constexpr const char* kIterStage = "em.hmm.iter";

  struct Trellis;     // scaled alpha/beta workspace
  struct FitContext;  // immutable per-fit inputs shared by every restart
  struct Workspace;   // per-restart trellis, numerators, kernel state

  void random_init(util::Rng& rng, double observed_loss_rate);
  void clamp_parameters();
  FitContext make_context(const std::vector<int>& seq,
                          const EmOptions& opts) const;
  double forward_backward(const std::vector<int>& seq, Trellis& w) const;
  // One EM step in place with the context's engine; returns (log likelihood
  // of the parameters *entering* the step, max absolute parameter change).
  // Each engine is an E-step that fills the workspace's numerators, then
  // the shared m_step.
  std::pair<double, double> em_step(const std::vector<int>& seq,
                                    const FitContext& ctx, Workspace& ws);
  // Reference engine (EmOptions::cache_emissions = false): per-call
  // emission() evaluation over a full alpha/beta trellis.
  std::pair<double, double> em_step_reference(const std::vector<int>& seq,
                                              Workspace& ws);
  // Default engine: fb::skeleton_sweep over the folded transition x
  // emission blocks (chain_sweep), the E-step read off its per-block outer
  // products. Equal to the reference to floating-point accuracy; the
  // loss-step posterior falls out of the numerators, so no trellis is kept.
  std::pair<double, double> em_step_kernel(const FitContext& ctx,
                                           Workspace& ws);
  // Folds F_c(i, j) = A(i, j) * emit(j, c) for every emission column into
  // ws.blocks and runs the two-ended chain sweep over the sequence; returns
  // the log likelihood of the current parameters.
  double chain_sweep(const FitContext& ctx, Workspace& ws) const;
  // The M-step tail of both engines: snapshots the entering parameters,
  // installs pi, A and B from the numerators and C from its loss share,
  // clamps, and returns the max absolute parameter change.
  double m_step(Workspace& ws);
  void install_entering(Workspace& ws);
  // Eq. (5) for the parameters entering the last em_step on ws.
  util::Pmf fitted_posterior(const std::vector<int>& seq,
                             const FitContext& ctx, const Workspace& ws,
                             std::size_t losses) const;
  // Fills `emit` (N x (M+1)) from the current parameters: column d holds
  // B[h][d]*(1-C[d]), column M the loss emission over `support`.
  void build_emission_table(const std::vector<char>& support,
                            util::Matrix& emit) const;
  // Paper eq. (5) from an already-computed trellis of this model.
  util::Pmf posterior_from_trellis(const std::vector<int>& seq,
                                   const std::vector<char>& support,
                                   const Trellis& w) const;
  double emission(int h, int obs, const std::vector<char>& support) const;
  // sum over supported d of B[h][d] * C[d].
  double loss_emission(int h, const std::vector<char>& support) const;

  int n_;
  int m_;
  std::vector<double> pi_;
  util::Matrix a_;  // N x N
  util::Matrix b_;  // N x M
  std::vector<double> c_;  // M
};

}  // namespace dcl::inference
