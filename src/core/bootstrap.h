// Decision confidence via bootstrap over the per-loss posteriors.
//
// The WDCL-Test compares F(2 i*) against a threshold; with few losses the
// estimated CDF — hence the decision — carries sampling noise the paper
// handles by "probing long enough". This module quantifies it: after the
// model fit, each loss has a posterior distribution over delay symbols
// (the summands of eq. (5)). Resampling losses with replacement and
// re-running the test per replicate yields the fraction of replicates
// that accept — a direct confidence for the decision — plus a percentile
// interval for F(2 i*).
//
// The resampling treats per-loss posteriors as exchangeable; it captures
// sampling noise from the number of losses, not model misspecification
// (and inherits whatever correlation the smoothed posteriors encode).
#pragma once

#include <cstdint>
#include <vector>

#include "core/hypothesis.h"
#include "inference/em_options.h"
#include "util/stats.h"

namespace dcl::inference {
class Mmhd;
}

namespace dcl::core {

struct BootstrapConfig {
  int replicates = 500;
  double eps_l = 0.06;
  double eps_d = 0.0;
  std::uint64_t seed = 1;
  // Worker threads for the replicates: 0 = all hardware threads, 1 =
  // serial. Each replicate draws from its own RNG stream forked by
  // replicate index, so the result is identical for any thread count.
  int threads = 0;
  // Refit variant only: circular block length for the sequence resampling;
  // 0 picks round(sqrt(T)), the usual rate-optimal block-bootstrap choice,
  // preserving the short-range symbol correlation the MMHD models.
  std::size_t block_len = 0;
};

struct BootstrapResult {
  // Fraction of replicates in which the WDCL-Test accepted.
  double accept_fraction = 0.0;
  // Percentile interval for the test statistic F(2 i*).
  double f2istar_lo = 0.0;   // 5th percentile
  double f2istar_hi = 0.0;   // 95th percentile
  std::size_t losses = 0;
  int replicates = 0;
  // Refit variant only: average EM iterations per replicate — warm starts
  // should hold this far below EmOptions::max_iterations.
  double mean_refit_iterations = 0.0;
};

// `per_loss_posteriors` holds one PMF over the M delay symbols per lost
// probe (e.g., from Mmhd::per_loss_posteriors).
BootstrapResult bootstrap_wdcl(
    const std::vector<util::Pmf>& per_loss_posteriors,
    const BootstrapConfig& cfg = {});

// Sequence-level bootstrap with warm-started refits. Each replicate is a
// circular block resample of `seq` (preserving within-block symbol
// dynamics), refit by EM starting from `point_fit`'s parameters — no cold
// restarts — and scored by the WDCL-Test on the replicate's own
// virtual-delay PMF. Unlike bootstrap_wdcl, which resamples the point
// fit's per-loss posteriors, this propagates parameter re-estimation
// noise into the decision at the cost of one warm EM run per replicate;
// MmhdRefitter reuses one workspace per worker so the replicate loop is
// allocation-free in steady state. A replicate that draws no losses is
// redrawn (bounded), then falls back to the original sequence — with the
// WDCL precondition of a lossy trace this is vanishingly rare. Results
// are identical for any cfg.threads (per-replicate forked RNG streams,
// replicate-ordered reduction). `em` supplies the engine/convergence
// options (restarts/racing/observer are ignored; see MmhdRefitter).
BootstrapResult bootstrap_wdcl_refit(const std::vector<int>& seq,
                                     const inference::Mmhd& point_fit,
                                     const inference::EmOptions& em,
                                     const BootstrapConfig& cfg = {});

}  // namespace dcl::core
