#include "inference/model_selection.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "inference/discretizer.h"
#include "inference/em_internal.h"
#include "inference/mmhd.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace dcl::inference {

ModelSelectionResult select_mmhd_hidden_states(const std::vector<int>& seq,
                                               int symbols,
                                               int max_hidden_states,
                                               const EmOptions& base) {
  DCL_ENSURE(max_hidden_states >= 1);
  DCL_ENSURE(symbols >= 1);

  // Free parameters are counted over the observed-support alphabet m_obs:
  // EM never moves mass onto unobserved symbols (loss attribution is
  // restricted to the support), so those rows/entries are pinned.
  std::vector<char> seen(static_cast<std::size_t>(symbols), 0);
  for (int o : seq)
    if (o != Discretizer::kLossSymbol) seen[static_cast<std::size_t>(o - 1)] = 1;
  std::size_t m_obs = 0;
  for (char c : seen) m_obs += c ? 1 : 0;
  if (m_obs == 0) m_obs = static_cast<std::size_t>(symbols);

  const auto t_len = static_cast<double>(seq.size());
  std::vector<ModelScore> scores(static_cast<std::size_t>(max_hidden_states));

  // pi: s-1 free; transitions: s rows with s-1 free entries; C: one
  // probability per observed symbol.
  auto free_parameters = [&](int n) {
    const std::size_t s = static_cast<std::size_t>(n) * m_obs;
    return (s - 1) + s * (s - 1) + m_obs;
  };
  auto score_candidate = [&](int idx, const FitResult& fit) {
    const int n = idx + 1;
    ModelScore& score = scores[static_cast<std::size_t>(idx)];
    score.hidden_states = n;
    score.log_likelihood = fit.log_likelihood;
    score.parameters = free_parameters(n);
    score.bic = -2.0 * fit.log_likelihood +
                static_cast<double>(score.parameters) * std::log(t_len);
    score.aic = -2.0 * fit.log_likelihood +
                2.0 * static_cast<double>(score.parameters);
    score.virtual_delay_pmf = fit.virtual_delay_pmf;
    score.iterations = fit.iterations;
    score.converged = fit.converged;
  };

  if (base.race_warmup > 0 && max_hidden_states > 1) {
    // Structure racing: every candidate advances on shared rungs; after
    // each rung a candidate whose best reachable BIC (likelihood upper
    // bound) is already behind the leader's realized BIC — which, EM
    // likelihood being non-decreasing, only improves — is eliminated. The
    // rung loop runs serially over candidates on the calling thread (each
    // StagedFit parallelizes its own restarts with base.threads), and all
    // decisions are candidate-ordered scans of thread-invariant values, so
    // the raced selection is bitwise identical for any thread count.
    auto& reg = obs::Registry::global();
    const int count = max_hidden_states;
    std::vector<std::unique_ptr<Mmhd>> models;
    std::vector<std::unique_ptr<Mmhd::StagedFit>> fits;
    std::vector<double> penalty(static_cast<std::size_t>(count));
    std::vector<char> out(static_cast<std::size_t>(count), 0);
    models.reserve(static_cast<std::size_t>(count));
    fits.reserve(static_cast<std::size_t>(count));
    for (int idx = 0; idx < count; ++idx) {
      const int n = idx + 1;
      EmOptions opts = base;
      opts.hidden_states = n;
      models.push_back(std::make_unique<Mmhd>(n, symbols));
      fits.push_back(
          std::make_unique<Mmhd::StagedFit>(*models.back(), seq, opts));
      penalty[static_cast<std::size_t>(idx)] =
          static_cast<double>(free_parameters(n)) * std::log(t_len);
    }
    int live = count;
    int target = std::min(base.race_warmup, base.max_iterations);
    while (true) {
      for (int idx = 0; idx < count; ++idx)
        if (!out[static_cast<std::size_t>(idx)])
          fits[static_cast<std::size_t>(idx)]->advance(target);
      // The leader's realized BIC is an upper bound on its final BIC.
      double leader_bic = std::numeric_limits<double>::infinity();
      for (int idx = 0; idx < count; ++idx) {
        const auto i = static_cast<std::size_t>(idx);
        if (out[i]) continue;
        leader_bic =
            std::min(leader_bic, -2.0 * fits[i]->best_ll() + penalty[i]);
      }
      for (int idx = 0; idx < count && live > 1; ++idx) {
        const auto i = static_cast<std::size_t>(idx);
        if (out[i] || fits[i]->finished()) continue;
        const double reachable =
            -2.0 * fits[i]->ll_upper_bound(base.race_overtake) + penalty[i];
        if (reachable > leader_bic) {
          out[i] = 1;
          --live;
          reg.counter("model_selection.race_eliminations").add(1);
          obs::trace::instant("model_selection.race.eliminate",
                              static_cast<double>(idx + 1));
        }
      }
      reg.counter("model_selection.race_rungs").add(1);
      if (live <= 1 || target >= base.max_iterations) break;
      bool all_done = true;
      for (int idx = 0; idx < count; ++idx)
        if (!out[static_cast<std::size_t>(idx)] &&
            !fits[static_cast<std::size_t>(idx)]->finished())
          all_done = false;
      if (all_done) break;
      target = race_next_target(base, target,
                                static_cast<std::size_t>(count), live);
    }
    // Survivors run out their budget; every candidate is then finalized in
    // ascending N so observer callbacks replay in the serial call order.
    for (int idx = 0; idx < count; ++idx)
      if (!out[static_cast<std::size_t>(idx)])
        fits[static_cast<std::size_t>(idx)]->advance(base.max_iterations);
    for (int idx = 0; idx < count; ++idx) {
      const auto i = static_cast<std::size_t>(idx);
      score_candidate(idx, fits[i]->finish());
      scores[i].raced_out = out[i] != 0;
    }
  } else {
    // An attached observer must keep receiving its callbacks serially in
    // candidate order, so with an observer the candidate loop stays serial
    // and each fit parallelizes its restarts instead. Either way the
    // scores are identical: fit() is bitwise thread-count-invariant.
    const bool parallel_candidates = base.observer == nullptr;

    auto fit_one = [&](int idx) {
      const int n = idx + 1;
      Mmhd model(n, symbols);
      EmOptions opts = base;
      opts.hidden_states = n;
      // When candidates run in the pool, keep each fit serial so the total
      // worker count stays bounded by base.threads (and no pool blocks
      // inside a pool worker).
      if (parallel_candidates) opts.threads = 1;
      score_candidate(idx, model.fit(seq, opts));
    };

    if (parallel_candidates) {
      const std::size_t workers =
          std::min(util::ThreadPool::resolve(base.threads),
                   static_cast<std::size_t>(max_hidden_states));
      std::unique_ptr<util::ThreadPool> pool;
      if (workers > 1) pool = std::make_unique<util::ThreadPool>(workers);
      util::parallel_indexed(pool.get(), max_hidden_states, fit_one);
    } else {
      for (int idx = 0; idx < max_hidden_states; ++idx) fit_one(idx);
    }
  }

  // Deterministic reduction in ascending N (strict '<', so ties resolve to
  // the smallest candidate) — independent of fit completion order. Raced-
  // out candidates carry partial (understated-likelihood) scores and are
  // excluded: they were provably behind when eliminated.
  ModelSelectionResult out_result;
  double best_bic = std::numeric_limits<double>::infinity();
  for (const ModelScore& score : scores) {
    if (score.raced_out) continue;
    if (score.bic < best_bic) {
      best_bic = score.bic;
      out_result.best_hidden_states = score.hidden_states;
    }
  }
  out_result.scores = std::move(scores);
  return out_result;
}

}  // namespace dcl::inference
