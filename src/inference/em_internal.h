// The multi-restart EM driver shared by Hmm and Mmhd (RestartSet below)
// and its successive-halving rung bookkeeping (RaceState). Internal to
// src/inference — not part of the public API.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "inference/discretizer.h"
#include "inference/em_options.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dcl::inference::detail {

// Successive-halving rung bookkeeping of RestartSet below, whose rungs are
// either its own schedule (fit()) or boundaries supplied by the
// hidden-state race (model_selection.cpp). Tracks the per-restart
// likelihood and iteration count at the previous rung boundary so a
// trailer's mean per-iteration gain — the slope of the overtake
// bound — is available at the next reduction. Every method runs on the
// calling thread and scans restarts in index order, so each decision is a
// deterministic function of per-restart values: the surviving set, and
// therefore the winner, is bitwise identical for any thread count. The
// Runner exposes last_ll(), iterations(), finished(), pruned() and
// mark_pruned().
struct RaceState {
  std::vector<double> prev_ll;
  std::vector<int> prev_iters;
  int rungs = 0;

  explicit RaceState(std::size_t n)
      : prev_ll(n, -std::numeric_limits<double>::infinity()),
        prev_iters(n, 0) {}

  template <typename Runner>
  void snapshot(const std::vector<Runner>& runs) {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      prev_ll[r] = runs[r].last_ll();
      prev_iters[r] = runs[r].iterations();
    }
  }

  // Live = neither eliminated nor converged/exhausted: the contenders that
  // would consume budget in another rung.
  template <typename Runner>
  static int live_count(const std::vector<Runner>& runs) {
    int live = 0;
    for (const Runner& run : runs)
      if (!run.pruned() && !run.finished()) ++live;
    return live;
  }

  // Upper bound on the final log likelihood restart r can still reach: its
  // current value plus its last-rung mean per-iteration gain, projected
  // over the remaining iteration budget. EM iteration gains are
  // non-increasing in practice, so this is an honest reachable-likelihood
  // projection (not a proof: a gain can grow again after a plateau).
  // Infinite only for a restart that ran no iteration since the snapshot —
  // RestartSet::advance snapshots at the start of each rung, after its
  // one-iteration probe, so every live restart has a finite estimate once
  // a rung has run.
  template <typename Runner>
  double ll_bound(const Runner& run, std::size_t r,
                  int max_iterations) const {
    if (run.finished()) return run.last_ll();
    const int di = run.iterations() - prev_iters[r];
    if (di <= 0 || !(prev_ll[r] > -std::numeric_limits<double>::infinity()))
      return std::numeric_limits<double>::infinity();
    const double gain =
        std::max(0.0, (run.last_ll() - prev_ll[r]) / static_cast<double>(di));
    const double remaining =
        static_cast<double>(max_iterations - run.iterations());
    return run.last_ll() + gain * remaining;
  }

  // One rung reduction at cumulative iteration `target`: rank-cut the
  // contenders to the better half of the likelihood ranking, rounded up
  // (classic successive halving; finished contenders hold their final
  // likelihood and still occupy ranking slots — they can win), retain
  // trailers whose projection can still overtake the *leader's*
  // projection, and mark the rest pruned. The retention races projections
  // against each other — a trailer is kept only when its per-iteration
  // gain closes the gap to the leader within the remaining budget —
  // because every early-EM run is still climbing steeply; comparing a
  // trailer's projection against the leader's current value would retain
  // the whole field and the race would never shrink. The leader is never
  // eliminated (it is >= the cut), so at least one contender survives.
  // Returns the eliminated count.
  template <typename Runner>
  int reduce(const EmOptions& opts, std::vector<Runner>& runs, int target) {
    std::vector<double> lls;
    lls.reserve(runs.size());
    double leader = -std::numeric_limits<double>::infinity();
    std::size_t leader_idx = 0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const Runner& run = runs[r];
      if (run.pruned()) continue;
      lls.push_back(run.last_ll());
      if (run.last_ll() > leader) {
        leader = run.last_ll();
        leader_idx = r;
      }
    }
    const std::size_t alive = lls.size();
    std::sort(lls.begin(), lls.end(), std::greater<double>());
    const std::size_t keep = (alive + 1) / 2;  // alive >= 1: the leader
    const double cut = lls[keep - 1];
    const double leader_proj =
        ll_bound(runs[leader_idx], leader_idx, opts.max_iterations);
    int eliminated = 0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      Runner& run = runs[r];
      if (run.pruned() || run.finished()) continue;
      if (run.last_ll() >= cut) continue;  // within the kept rank band
      if (ll_bound(run, r, opts.max_iterations) >= leader_proj)
        continue;  // outpacing the leader: could still overtake it
      run.mark_pruned();
      ++eliminated;
      // Flight-recorder marker; value = abandoned restart's index.
      obs::trace::instant("em.race.eliminate", static_cast<double>(r));
    }
    obs::trace::instant("em.race.rung", static_cast<double>(rungs));
    if (opts.observer != nullptr)
      opts.observer->on_rung(rungs, target,
                             static_cast<int>(alive) - eliminated, eliminated);
    ++rungs;
    return eliminated;
  }
};

// Resumable multi-restart EM fit, shared by Hmm and Mmhd: the restart set
// with its pre-forked RNG streams, the worker pool, the racing rung
// reductions and the winner reduction. Model::fit() runs it to completion
// (run()); select_mmhd_hidden_states advances one set per candidate N on
// the rung boundaries of its hidden-state race, then finishes each. Model
// grants friendship and supplies, privately, with definitions visible
// where the set is instantiated (mmhd_internal.h for Mmhd):
//   FitContext, Workspace     immutable per-fit inputs / per-restart state
//   kRestartStage, kIterStage  DCL_STAGE names of a restart and an iteration
//   FitContext make_context(seq, opts) const
//   void random_init(util::Rng&, double observed_loss_rate)
//   void Workspace::prepare(const Model&)
//   std::pair<double, double> em_step(seq, ctx, ws)    {ll entering, delta}
//   void install_entering(Workspace&)   adopt the parameters entering the
//                                       last em_step (their ll is reported)
//   util::Pmf fitted_posterior(seq, ctx, ws, losses) const
// `target` and `seq` must outlive the set. The set can be neither copied
// nor moved; a caller that keeps several holds each by unique_ptr.
template <typename Model>
class RestartSet {
 public:
  RestartSet(Model& target, const std::vector<int>& seq, const EmOptions& o)
      : target_(&target),
        seq_(&seq),
        opts_(checked(seq, o)),
        ctx_(target.make_context(seq, opts_)),
        losses_(loss_count(seq)),
        race_(static_cast<std::size_t>(opts_.restarts)) {
    loss_rate_ =
        static_cast<double>(losses_) / static_cast<double>(seq.size());
    // RNG streams are forked in restart order before dispatch, so every
    // restart sees the same stream for any thread count.
    util::Rng parent(opts_.seed);
    runs_.reserve(static_cast<std::size_t>(opts_.restarts));
    for (int r = 0; r < opts_.restarts; ++r)
      runs_.emplace_back(target, parent.fork(), r);
    const std::size_t workers = std::min(
        util::ThreadPool::resolve(opts_.threads), runs_.size());
    if (workers > 1) pool_ = std::make_unique<util::ThreadPool>(workers);
  }
  RestartSet(const RestartSet&) = delete;
  RestartSet& operator=(const RestartSet&) = delete;

  // Advances every surviving restart to `upto` cumulative EM iterations
  // (capped at max_iterations), then applies the racing rung reduction at
  // this boundary. The rung's gain estimates are measured from the
  // snapshot taken at its start (after the one-iteration probe of the
  // first call), so they stay readable between calls: the rung reduction
  // here and ll_upper_bound() afterwards both see this rung's gain.
  void advance(int upto) {
    const std::size_t n = runs_.size();
    const int cap = std::min(upto, opts_.max_iterations);
    if (!probed_) {
      util::parallel_indexed(pool_.get(), n,
                             [&](std::size_t r) { step(runs_[r], 1); });
      probed_ = true;
    }
    race_.snapshot(runs_);
    util::parallel_indexed(pool_.get(), n,
                           [&](std::size_t r) { step(runs_[r], cap); });
    if (opts_.race_warmup > 0 && n > 1 && cap < opts_.max_iterations &&
        RaceState::live_count(runs_) > 0)
      race_.reduce(opts_, runs_, cap);
  }

  // Every surviving restart converged or exhausted.
  bool finished() const { return RaceState::live_count(runs_) == 0; }

  // The current leader's log likelihood (index-ordered).
  double best_ll() const {
    double best = -std::numeric_limits<double>::infinity();
    for (const Runner& run : runs_)
      if (!run.pruned() && run.last_ll() > best) best = run.last_ll();
    return best;
  }

  // Upper bound on the final log likelihood any surviving restart can
  // still reach (RaceState::ll_bound).
  double ll_upper_bound() const {
    double bound = -std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      if (runs_[r].pruned()) continue;
      bound =
          std::max(bound, race_.ll_bound(runs_[r], r, opts_.max_iterations));
    }
    return bound;
  }

  // Finalizes every restart, then reduces in restart order: replays each
  // restart's buffered iteration events, notifies on_restart with the
  // incrementally recomputed new_best flag (strict '>', so ties resolve to
  // the lowest index), and installs each new leader into the target model
  // — the serial observer call order and winner for any thread count.
  // A raced-out restart is reported but never leads: its likelihood froze
  // at its elimination and finalize() computed no posterior for it.
  // Fires on_winner last. Call once.
  FitResult finish() {
    util::parallel_indexed(pool_.get(), runs_.size(),
                           [&](std::size_t r) { finalize(runs_[r]); });
    EmObserver* observer = opts_.observer;
    FitResult best;
    best.log_likelihood = -std::numeric_limits<double>::infinity();
    bool have_best = false;
    int pruned_count = 0;
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      Runner& run = runs_[r];
      pruned_count += run.pruned() ? 1 : 0;
      if (observer != nullptr)
        for (const IterEvent& e : run.events)
          observer->on_iteration(static_cast<int>(r), e.iteration,
                                 e.log_likelihood, e.max_param_delta);
      const bool new_best =
          !run.pruned() && run.res.log_likelihood > best.log_likelihood;
      if (observer != nullptr)
        observer->on_restart(static_cast<int>(r), run.res, new_best);
      if (new_best) {
        best = std::move(run.res);
        *target_ = std::move(run.model);
        have_best = true;
      }
    }
    DCL_ENSURE_MSG(have_best,
                   "EM fit produced no usable restart: every restart "
                   "returned a non-finite log likelihood");
    best.losses = losses_;
    best.pruned_restarts = pruned_count;
    best.race_rungs = race_.rungs;
    if (observer != nullptr) observer->on_winner(best.winning_restart, best);
    return best;
  }

  // The whole fit: rungs on the successive-halving schedule until one
  // contender remains or max_iterations is reached — with racing off (or
  // a single restart) one rung straight to max_iterations — then finish().
  // Advancing in rungs gives the same per-restart numbers as one straight
  // run, so racing that eliminates nothing reproduces the plain fit
  // bitwise.
  FitResult run() {
    const bool racing = opts_.race_warmup > 0 && runs_.size() > 1;
    int target = racing ? std::min(opts_.race_warmup, opts_.max_iterations)
                        : opts_.max_iterations;
    while (true) {
      advance(target);
      const int live = RaceState::live_count(runs_);
      if (target >= opts_.max_iterations || live == 0) break;
      target = race_next_target(opts_, target, runs_.size(), live);
    }
    return finish();
  }

 private:
  // One EmObserver::on_iteration call, buffered by a restart worker and
  // replayed in finish() so observers never run concurrently.
  struct IterEvent {
    int iteration = 0;
    double log_likelihood = 0.0;
    double max_param_delta = 0.0;
  };

  // One restart: a local model, its RNG stream, workspace and outcome.
  struct Runner {
    Model model;
    util::Rng rng;
    typename Model::Workspace ws;
    FitResult res;
    std::vector<IterEvent> events;
    bool inited = false;
    bool done = false;
    bool pruned_flag = false;
    double ll_last = -std::numeric_limits<double>::infinity();
    const char* ll_track = nullptr;  // interned trace counter name, lazy

    Runner(const Model& proto, util::Rng r, int restart)
        : model(proto.hidden_states(), proto.symbols()), rng(r) {
      res.winning_restart = restart;
    }
    double last_ll() const { return ll_last; }
    int iterations() const { return res.iterations; }
    bool finished() const { return done; }
    bool pruned() const { return pruned_flag; }
    void mark_pruned() {
      pruned_flag = true;
      done = true;
    }
  };

  static const EmOptions& checked(const std::vector<int>& seq,
                                  const EmOptions& opts) {
    DCL_ENSURE_MSG(seq.size() >= 2, "need at least two observations to fit");
    DCL_ENSURE(opts.restarts >= 1 && opts.max_iterations >= 1);
    return opts;
  }

  // Runs EM on one restart until `upto` iterations are done or it
  // converges; resumable.
  void step(Runner& run, int upto) {
    if (run.done) return;
    // Restart stage + per-restart log-likelihood counter track; the work
    // runs on whichever pool worker picked this restart up, so the trace
    // shows the actual thread-to-restart assignment.
    DCL_STAGE_V(Model::kRestartStage, run.res.winning_restart);
    if (obs::trace::enabled() && run.ll_track == nullptr)
      run.ll_track = obs::trace::intern(
          std::string(Model::kRestartStage) + ".restart" +
          std::to_string(run.res.winning_restart) + ".ll");
    if (!run.inited) {
      run.model.random_init(run.rng, loss_rate_);
      run.ws.prepare(run.model);
      run.inited = true;
    }
    const int cap = std::min(upto, opts_.max_iterations);
    while (run.res.iterations < cap) {
      DCL_STAGE(Model::kIterStage);
      const int it = run.res.iterations;
      const auto [ll, delta] = run.model.em_step(*seq_, ctx_, run.ws);
      run.res.log_likelihood_history.push_back(ll);
      run.ll_last = ll;
      run.res.iterations = it + 1;
      if (run.ll_track != nullptr) obs::trace::counter(run.ll_track, ll);
      if (opts_.observer != nullptr) run.events.push_back({it, ll, delta});
      if (delta < opts_.tolerance) {
        run.res.converged = true;
        run.done = true;
        break;
      }
    }
    if (run.res.iterations >= opts_.max_iterations) run.done = true;
  }

  // Installs the parameters *entering* the final step: ll_last is exactly
  // their likelihood, and the retained trellis/accumulators were computed
  // from them, so the posterior costs no extra forward-backward pass.
  void finalize(Runner& run) {
    run.model.install_entering(run.ws);
    run.res.log_likelihood = run.ll_last;
    run.res.pruned = run.pruned_flag;
    if (run.pruned_flag) return;  // cannot win; skip the posterior
    run.res.virtual_delay_pmf =
        run.model.fitted_posterior(*seq_, ctx_, run.ws, losses_);
  }

  Model* target_;
  const std::vector<int>* seq_;
  EmOptions opts_;
  typename Model::FitContext ctx_;
  std::size_t losses_;
  double loss_rate_ = 0.0;
  std::vector<Runner> runs_;
  std::unique_ptr<util::ThreadPool> pool_;
  RaceState race_;
  bool probed_ = false;
};

}  // namespace dcl::inference::detail
