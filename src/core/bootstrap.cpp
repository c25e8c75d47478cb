#include "core/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "inference/discretizer.h"
#include "inference/mmhd.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dcl::core {

BootstrapResult bootstrap_wdcl(
    const std::vector<util::Pmf>& per_loss_posteriors,
    const BootstrapConfig& cfg) {
  DCL_ENSURE(cfg.replicates >= 1);
  BootstrapResult out;
  out.losses = per_loss_posteriors.size();
  out.replicates = cfg.replicates;
  if (per_loss_posteriors.empty()) return out;
  const std::size_t m = per_loss_posteriors.front().size();
  for (const auto& p : per_loss_posteriors) DCL_ENSURE(p.size() == m);

  // One RNG stream per replicate, forked in replicate order before any
  // dispatch, so replicate r draws the same resample no matter how the
  // replicates are distributed over workers.
  util::Rng parent(cfg.seed);
  std::vector<util::Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(cfg.replicates));
  for (int r = 0; r < cfg.replicates; ++r) rngs.push_back(parent.fork());

  // Per-replicate result slots, reduced in replicate order afterwards.
  std::vector<double> f2s(static_cast<std::size_t>(cfg.replicates), 0.0);
  std::vector<char> accepted(static_cast<std::size_t>(cfg.replicates), 0);
  const auto n = static_cast<std::int64_t>(per_loss_posteriors.size());

  const std::size_t workers =
      std::min(util::ThreadPool::resolve(cfg.threads),
               static_cast<std::size_t>(cfg.replicates));
  // Contiguous chunks, one per worker: a single replicate is far too small
  // a unit to pay queue traffic for.
  const int chunks = static_cast<int>(workers);
  const int per_chunk = (cfg.replicates + chunks - 1) / chunks;
  auto run_chunk = [&](int chunk) {
    DCL_STAGE_V("bootstrap.chunk", chunk);
    const int lo = chunk * per_chunk;
    const int hi = std::min(cfg.replicates, lo + per_chunk);
    util::Pmf pmf(m);
    for (int r = lo; r < hi; ++r) {
      DCL_STAGE_V("bootstrap.replicate", r);
      util::Rng& rng = rngs[static_cast<std::size_t>(r)];
      std::fill(pmf.begin(), pmf.end(), 0.0);
      for (std::int64_t i = 0; i < n; ++i) {
        const auto& p = per_loss_posteriors[static_cast<std::size_t>(
            rng.uniform_int(0, n - 1))];
        for (std::size_t d = 0; d < m; ++d) pmf[d] += p[d];
      }
      util::normalize(pmf);
      const auto w = wdcl_test(util::pmf_to_cdf(pmf), cfg.eps_l, cfg.eps_d);
      accepted[static_cast<std::size_t>(r)] = w.accepted ? 1 : 0;
      f2s[static_cast<std::size_t>(r)] = w.f_at_2istar;
    }
  };

  std::unique_ptr<util::ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<util::ThreadPool>(workers);
  util::parallel_indexed(pool.get(), chunks, run_chunk);

  int accepts = 0;
  for (char a : accepted) accepts += a ? 1 : 0;
  out.accept_fraction = static_cast<double>(accepts) / cfg.replicates;
  out.f2istar_lo = util::quantile(f2s, 0.05);
  out.f2istar_hi = util::quantile(f2s, 0.95);
  return out;
}

BootstrapResult bootstrap_wdcl_refit(const std::vector<int>& seq,
                                     const inference::Mmhd& point_fit,
                                     const inference::EmOptions& em,
                                     const BootstrapConfig& cfg) {
  DCL_ENSURE(cfg.replicates >= 1);
  DCL_ENSURE_MSG(seq.size() >= 2, "need at least two observations");
  const std::size_t t_len = seq.size();
  constexpr int kLoss = inference::Discretizer::kLossSymbol;
  // Loss-free resamples cannot be scored; bounded redraws keep the draw
  // count deterministic, and the bound is never reached in practice.
  constexpr int kMaxLossRedraws = 32;

  BootstrapResult out;
  out.replicates = cfg.replicates;
  for (int o : seq) out.losses += (o == kLoss) ? 1 : 0;
  if (out.losses == 0) return out;  // WDCL is undefined without losses

  const std::size_t block =
      cfg.block_len > 0
          ? std::min(cfg.block_len, t_len)
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::llround(std::sqrt(static_cast<double>(t_len)))));

  // Same determinism scheme as bootstrap_wdcl: one pre-forked RNG stream
  // per replicate, per-replicate result slots, replicate-ordered reduction.
  util::Rng parent(cfg.seed);
  std::vector<util::Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(cfg.replicates));
  for (int r = 0; r < cfg.replicates; ++r) rngs.push_back(parent.fork());

  std::vector<double> f2s(static_cast<std::size_t>(cfg.replicates), 0.0);
  std::vector<char> accepted(static_cast<std::size_t>(cfg.replicates), 0);
  std::vector<int> iters(static_cast<std::size_t>(cfg.replicates), 0);

  const std::size_t workers =
      std::min(util::ThreadPool::resolve(cfg.threads),
               static_cast<std::size_t>(cfg.replicates));
  const int chunks = static_cast<int>(workers);
  const int per_chunk = (cfg.replicates + chunks - 1) / chunks;
  auto run_chunk = [&](int chunk) {
    DCL_STAGE_V("bootstrap.refit_chunk", chunk);
    // One refitter per worker: its workspace/trellis (and the warm-start
    // snapshot of the point fit) are reused by every replicate in the
    // chunk.
    inference::MmhdRefitter refitter(point_fit, em);
    std::vector<int> rep(t_len);
    const int lo = chunk * per_chunk;
    const int hi = std::min(cfg.replicates, lo + per_chunk);
    for (int r = lo; r < hi; ++r) {
      DCL_STAGE_V("bootstrap.replicate", r);
      util::Rng& rng = rngs[static_cast<std::size_t>(r)];
      bool has_loss = false;
      for (int attempt = 0; attempt < kMaxLossRedraws && !has_loss;
           ++attempt) {
        std::size_t filled = 0;
        while (filled < t_len) {
          const auto start = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(t_len) - 1));
          const std::size_t len = std::min(block, t_len - filled);
          for (std::size_t k = 0; k < len; ++k)
            rep[filled + k] = seq[(start + k) % t_len];
          filled += len;
        }
        for (int o : rep) {
          if (o == kLoss) {
            has_loss = true;
            break;
          }
        }
      }
      if (!has_loss) rep = seq;  // degenerate draw: score the original

      const auto fit = refitter.refit(rep);
      iters[static_cast<std::size_t>(r)] = fit.iterations;
      const auto w = wdcl_test(util::pmf_to_cdf(fit.virtual_delay_pmf),
                               cfg.eps_l, cfg.eps_d);
      accepted[static_cast<std::size_t>(r)] = w.accepted ? 1 : 0;
      f2s[static_cast<std::size_t>(r)] = w.f_at_2istar;
    }
  };

  std::unique_ptr<util::ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<util::ThreadPool>(workers);
  util::parallel_indexed(pool.get(), chunks, run_chunk);

  int accepts = 0;
  for (char a : accepted) accepts += a ? 1 : 0;
  out.accept_fraction = static_cast<double>(accepts) / cfg.replicates;
  out.f2istar_lo = util::quantile(f2s, 0.05);
  out.f2istar_hi = util::quantile(f2s, 0.95);
  double iter_sum = 0.0;
  for (int it : iters) iter_sum += it;
  out.mean_refit_iterations = iter_sum / cfg.replicates;
  return out;
}

}  // namespace dcl::core
