// Registry-backed EmObserver: streams EM fit telemetry into a dcl::obs
// registry so fits become externally observable without touching the model
// code. Attach via EmOptions::observer:
//
//   obs::Registry reg;                     // or obs::Registry::global()
//   inference::RegistryEmObserver watch(reg, "em.coarse");
//   EmOptions em; em.observer = &watch;
//   model.fit(seq, em);
//
// Exported metrics (under the given prefix, default "em"):
//   <p>.fits               counter   completed fit() calls
//   <p>.restarts           counter   restarts across all fits
//   <p>.iterations         counter   EM iterations across all fits
//   <p>.converged_restarts counter   restarts that met the tolerance
//   <p>.iterations_per_restart  histogram
//   <p>.param_delta             histogram (per-iteration max parameter move)
//   <p>.log_likelihood          gauge (last iteration seen; max = best ever)
//   <p>.final_log_likelihood    gauge (of the most recent winner)
//   <p>.winning_restart         gauge
//   <p>.race_rungs         counter   successive-halving rung reductions
//   <p>.race_eliminations  counter   restarts eliminated by racing
//   <p>.race_survivors          gauge (after the most recent rung)
//
// The observer additionally keeps the winning restart's per-iteration log
// likelihoods of the most recent fit (winner_history()) for monotonicity
// checks and trajectory plots; is_monotone_non_decreasing() is the shared
// assertion helper for those checks.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "inference/em_options.h"
#include "obs/obs.h"

namespace dcl::inference {

// True when `history` is non-decreasing up to `tolerance` (EM's guarantee
// for the log likelihood under plain maximum likelihood; with the MMHD's
// default transition_prior EM ascends the penalized objective, and the
// data likelihood may dip). On failure, fills `*first_violation` (when
// given) with the index whose value dropped below its predecessor.
inline bool is_monotone_non_decreasing(const std::vector<double>& history,
                                       double tolerance = 1e-9,
                                       std::size_t* first_violation = nullptr) {
  for (std::size_t i = 1; i < history.size(); ++i) {
    if (history[i] < history[i - 1] - tolerance) {
      if (first_violation != nullptr) *first_violation = i;
      return false;
    }
  }
  return true;
}

class RegistryEmObserver : public EmObserver {
 public:
  explicit RegistryEmObserver(obs::Registry& reg, std::string prefix = "em")
      : reg_(reg), prefix_(std::move(prefix)) {}

  void on_iteration(int restart, int iteration, double log_likelihood,
                    double max_param_delta) override {
    (void)restart;
    (void)iteration;
    reg_.counter(prefix_ + ".iterations").add();
    reg_.histogram(prefix_ + ".param_delta").record(max_param_delta);
    // set() keeps the gauge at the last iteration's value while the gauge's
    // running max tracks the best log likelihood seen across all restarts.
    reg_.gauge(prefix_ + ".log_likelihood").set(log_likelihood);
  }

  void on_restart(int restart, const FitResult& result,
                  bool new_best) override {
    (void)restart;
    reg_.counter(prefix_ + ".restarts").add();
    if (result.converged) reg_.counter(prefix_ + ".converged_restarts").add();
    reg_.histogram(prefix_ + ".iterations_per_restart")
        .record(static_cast<double>(result.iterations));
    if (new_best) winner_history_ = result.log_likelihood_history;
  }

  void on_rung(int rung, int target_iterations, int survivors,
               int eliminated) override {
    (void)rung;
    (void)target_iterations;
    reg_.counter(prefix_ + ".race_rungs").add();
    if (eliminated > 0)
      reg_.counter(prefix_ + ".race_eliminations")
          .add(static_cast<std::uint64_t>(eliminated));
    reg_.gauge(prefix_ + ".race_survivors")
        .set(static_cast<double>(survivors));
  }

  void on_winner(int restart, const FitResult& result) override {
    reg_.counter(prefix_ + ".fits").add();
    reg_.gauge(prefix_ + ".final_log_likelihood").set(result.log_likelihood);
    reg_.gauge(prefix_ + ".winning_restart")
        .set(static_cast<double>(restart));
  }

  // Per-iteration log likelihood of the winning restart of the most recent
  // completed fit (empty before the first on_restart).
  const std::vector<double>& winner_history() const { return winner_history_; }

 private:
  obs::Registry& reg_;
  std::string prefix_;
  std::vector<double> winner_history_;
};

}  // namespace dcl::inference
