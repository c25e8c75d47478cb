// Forward-backward kernels (raw recursions, auto-vectorized loops).
//
// Both models' E-steps are forward-backward sweeps over a chain of N x N
// transition x emission blocks; this layer runs them over cache-friendly
// layouts so the compiler vectorizes the inner loops (no intrinsics; see
// the DCL_VECTOR_REPORT cmake option to inspect what the vectorizer did):
//
//   * One chain kernel serves both models (skeleton_sweep, at the end of
//     this file): the raw forward-backward over a sequence of N x N blocks
//     picked by index, in one two-ended pass. The HMM folds A with each
//     emission column once per iteration, F_c(i, j) = A(i, j) * emit(j, c),
//     and sweeps every probe; the MMHD sweeps its received probes only,
//     with A's block between adjacent ones and a bridge across a loss run.
//   * The MMHD's loss runs range over the N * S supported states; the
//     loss-segment kernels evaluate each distinct run once per iteration.
//     Their state lives in 64-byte-aligned rows padded to a whole number
//     of 8-double lanes (PaddedMatrix), padding kept at exact zero, so
//     vector loops run over the full padded width with no masking and no
//     effect on sums.
//   * No sweep normalizes per step. The classic scaled recursion puts a
//     horizontal sum and a divide on the loop-carried critical path of
//     every step; here the sweeps run *raw* and rescale a row by an exact
//     power of two only when its mass leaves a fixed range. Power-of-two
//     scalings are rounding-free, every posterior normalizer is a measured
//     mass, and the log likelihood telescopes to log(final mass) plus the
//     rescaling exponents — so the critical path per step is just the FMA
//     chain.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/aligned.h"

// Function multiversioning for the hot kernel loops: without it the build
// targets baseline x86-64 and the vectorizer is stuck with 16-byte SSE2
// vectors. target_clones makes GCC emit additional x86-64-v3 (AVX2+FMA)
// and x86-64-v4 (AVX-512) clones behind a one-time ifunc dispatch, so one
// portable binary still runs full-width FMA loops — an 8-double kernel row
// is then exactly one zmm register. Annotates definitions only. Not under
// ThreadSanitizer: the ifunc resolvers run before its runtime is up, and
// every binary linking the kernels would crash before main.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define DCL_KERNEL_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define DCL_KERNEL_CLONES
#endif

namespace dcl::inference::fb {

// Doubles per 64-byte cache line; the pad quantum for PaddedMatrix rows.
inline constexpr std::size_t kLane = 8;

constexpr std::size_t pad_up(std::size_t n) {
  return (n + kLane - 1) / kLane * kLane;
}

// Raw-recursion renormalization of the loss-segment sweeps: when the
// previous step's probability mass drops below the threshold, the next
// step multiplies the state vector by kRenormFactor (an exact power of
// two — rounding-free). Parameter floors bound one step's shrink at
// ~1e-12 = 2^-40, so monitored mass stays in [2^-104, 1]: far from both
// underflow and the subnormal range.
inline constexpr double kRenormThreshold = 0x1p-64;
inline constexpr double kRenormFactor = 0x1p64;

// Row-major matrix whose rows are 64-byte aligned and padded to a whole
// number of lanes. Padding stays exact zero through ensure()/reshape().
class PaddedMatrix {
 public:
  // Grows/reshapes without shrinking capacity; contents zeroed.
  void ensure(std::size_t rows, std::size_t cols) {
    if (rows == rows_ && cols == cols_) {
      zero();
      return;
    }
    rows_ = rows;
    cols_ = cols;
    stride_ = pad_up(cols);
    data_.assign(rows_ * stride_, 0.0);
  }

  // Reshapes without clearing when the shape already matches — for sweep
  // storage whose every row (padding included) is rewritten by the kernels.
  void reshape(std::size_t rows, std::size_t cols) {
    if (rows == rows_ && cols == cols_) return;
    rows_ = rows;
    cols_ = cols;
    stride_ = pad_up(cols);
    data_.assign(rows_ * stride_, 0.0);
  }

  void zero() { std::fill(data_.begin(), data_.end(), 0.0); }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t stride() const { return stride_; }
  double* row(std::size_t r) { return data_.data() + r * stride_; }
  const double* row(std::size_t r) const { return data_.data() + r * stride_; }
  double& at(std::size_t r, std::size_t c) { return data_[r * stride_ + c]; }
  double at(std::size_t r, std::size_t c) const {
    return data_[r * stride_ + c];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  util::AlignedVector<double> data_;
};

// ---------------------------------------------------------------------------
// Loss-segment kernels (the MMHD state space, every hidden-state count N).
//
// At a received probe the MMHD state is one of the N composite states that
// carry the received symbol; only inside a maximal run of lost probes (a
// loss segment) does it range over the N * S supported states. The E-step
// therefore splits in two:
//
//   * A loss segment's forward-backward over the supported states depends
//     only on its (left symbol, right symbol, length) key and on the hidden
//     states at its two boundaries, so each distinct key is evaluated once
//     per iteration. Its alpha rows depend only on the left boundary and
//     its beta rows only on the right boundary and the distance to it: one
//     forward sweep per left boundary seeded from each of its hidden states
//     (N seeds, swept in lockstep), and one backward sweep per right
//     boundary likewise, serve every segment. The N x N BRIDGE of a key,
//     bridge(h, h') = P(its losses, then (h', right) | (h, left)), is a dot
//     product of those rows (segment_bridges).
//   * A sweep over the received probes only (the skeleton, see below) runs
//     the raw forward-backward with one N x N block per step: A's
//     (h, d) -> (h', d') block times 1 - C[d'] between adjacent received
//     probes, a key's bridge across a loss run. Its xi at a bridged step is
//     the posterior weight of the segment's boundary-state pairs.
//   * segment_expand turns each key's N x N weight into its loss-step
//     gamma and its entry, loss -> loss and exit xi.
//
// With N = 1 every received probe's state is certain, the skeleton
// degenerates to fixed bigram counts, and only the segment kernels run.
// The sequence start (end) is a boundary with a single seed: pi .* C
// (all ones).
// ---------------------------------------------------------------------------

// Per-iteration folded inputs, in the compact coordinates of the supported
// states (rows padded to stride(), padding zero):
//   loss(i, j)   = A(i, j) * C[j]                 loss -> loss
//   loss_t       = the same block, transposed
//   entry(r, j)  = A(s_r, j) * C[j]               seed row r: state s_r
//                  beside a left boundary; the sequence start uses
//                  pi(j) * C[j]
//   exit(r, i)   = A(i, s_r) * (1 - C[sym(s_r)])  seed row r: state s_r
//                  beside a right boundary; the sequence end is all ones
// Boundary b's seed rows are [entry_begin[b], entry_begin[b + 1]) (and
// likewise for exits). The caller rewrites every live entry each iteration.
struct SegmentChain {
  PaddedMatrix loss, loss_t, entry, exit;
  std::vector<std::size_t> entry_begin, exit_begin;

  // Shapes the blocks for `width` supported states and the given seed
  // counts per boundary; storage (and zero padding) is kept when the shape
  // matches.
  void init(std::size_t width, const std::vector<std::size_t>& entry_seeds,
            const std::vector<std::size_t>& exit_seeds);
  std::size_t width() const { return loss.cols(); }
  std::size_t stride() const { return loss.stride(); }
  std::size_t entries() const { return entry_begin.size() - 1; }
  std::size_t exits() const { return exit_begin.size() - 1; }
  std::size_t entry_seeds(std::size_t e) const {
    return entry_begin[e + 1] - entry_begin[e];
  }
  std::size_t exit_seeds(std::size_t x) const {
    return exit_begin[x + 1] - exit_begin[x];
  }
  // Every boundary has a single seed (always when N = 1).
  bool single_seeds() const {
    return entry.rows() == entries() && exit.rows() == exits();
  }
};

// One distinct segment key and its multiplicity in the sequence.
struct LossSegment {
  std::size_t entry = 0;  // left boundary (SegmentChain entry boundary)
  std::size_t exit = 0;   // right boundary (SegmentChain exit boundary)
  std::size_t len = 0;    // lost probes in the run, >= 1
  double count = 0.0;     // occurrences
};

// Per-iteration state of the segment kernels. Per-segment blocks (bridge,
// weight) are entry_seeds x exit_seeds, row-major, at bridge_off[i]; they
// are not sized when every boundary has a single seed.
struct SegmentEStep {
  // segment_bridges output: the raw bridge in its entry sweep's frame —
  // the true block is bridge * 2^(-64 * bridge_renorms[i]) — for the
  // segments with more than one seed on a side.
  util::AlignedVector<double> bridge;
  std::vector<std::size_t> bridge_off;  // per segment, plus the total
  std::vector<double> bridge_renorms;
  // segment_expand input: each boundary pair's posterior weight divided by
  // its bridge entry, up to a positive factor per segment (the expansion
  // renormalizes every step to the segment's count). Unread for 1 x 1
  // segments, whose single pair carries the whole count.
  util::AlignedVector<double> weight;

  // segment_expand output: count-weighted sums of normalized posteriors.
  util::AlignedVector<double> gamma;  // over loss steps: eq. (5) numerator
  // Loss -> loss xi numerators divided by the folded loss block: the kernel
  // accumulates alpha_t (x) beta_{t+1} outer products and the caller
  // multiplies by SegmentChain::loss once per iteration.
  PaddedMatrix outer;
  PaddedMatrix entry_gamma;  // per entry seed row: xi into a first loss step
  PaddedMatrix exit_gamma;   // per exit seed row: xi out of a last loss step

  // Zeroes the accumulators and sizes the sweeps for the longest segment
  // at each boundary.
  void prepare(const SegmentChain& sc, const std::vector<LossSegment>& segs);

  // Raw alpha rows of each entry boundary's forward sweep (seed h of entry
  // e at step t is row fwd_row[e] + t * seeds + h), with the renorm factor
  // applied at each step and the count of renorms up to it (per step, at
  // fwd_step[e] + t), and raw beta rows of each exit boundary's backward
  // sweep (row k is beta at the loss step k steps before a segment's last
  // one).
  PaddedMatrix fwd, bwd;
  std::vector<std::size_t> fwd_row, fwd_step, bwd_row, fwd_len, bwd_len;
  std::vector<double> fwd_rf, fwd_renorms;
  // Scratch: gamma row, per-exit-seed weighted alpha rows (this step and
  // the previous one), and one split row.
  util::AlignedVector<double> g, cur, prev, split;
};

// One raw forward sweep per entry boundary, its seeds in lockstep under one
// renorm schedule (exact powers of two), then the
// bridge of every segment with more than one seed on a side, from the last
// rows and the exit rows.
void segment_bridges(const SegmentChain& sc,
                     const std::vector<LossSegment>& segs, SegmentEStep& out);

// One raw backward sweep per exit boundary (seeds in lockstep), then every
// segment's gamma and xi from the sweep rows and its weight, in the given
// (fixed) order. Requires segment_bridges on the same inputs first.
// Returns the sum over the segments with a single seed on both sides
// (every segment when N = 1) of count * log(segment mass): their share of
// the log likelihood when the states beside them are certain.
double segment_expand(const SegmentChain& sc,
                      const std::vector<LossSegment>& segs,
                      SegmentEStep& out);

// ---------------------------------------------------------------------------
// Chain sweep: the raw forward-backward over a chain of N x N blocks
// (row-major, stride N), one picked by index per step; the caller folds
// them once per iteration. The HMM's steps are its probes, block c being
// A times emission column c (any N; N = 2..4 run specialized bodies, the
// rest a runtime-N body). The MMHD's are its received probes (N >= 2),
// with adjacent-pair blocks and normalized bridges. A row whose mass
// leaves [kRenormThreshold, 2^64) is rescaled in place by the exact power
// of two that brings it back to [1, 2): a bridge may shrink the mass by
// far more than one 2^64 factor restores, and since a bridge's largest
// entry is scaled into [0.5, 1), its rows can sum to nearly N, so bridged
// steps can also grow it.
//
// One two-ended sweep does the whole E-step: the forward chain starts at
// step 0 and the backward chain at K - 1, and both advance in the same
// loop. Until they meet, each stores its rows (alpha for the left half,
// beta for the right half: K x N doubles in all); after that, each chain
// accumulates the xi of its own side against the other's stored rows. The
// chains do not depend on each other, so their FMA latencies overlap. Each
// xi is normalized by its own measured pair mass,
//   sum_ij alpha_k(i) B(i, j) beta_{k+1}(j),
// so the chains' independent power-of-two scalings cancel exactly.
// ---------------------------------------------------------------------------

struct SkeletonSweep {
  // outer(b) = sum over steps k -> k+1 through block b of the normalized
  // alpha_k (x) beta_{k+1}; times block b it is that block's xi. Blocks are
  // n x n at b * n * n (the storage past them is kernel scratch).
  util::AlignedVector<double> outer;
  std::size_t block_count = 0;
  util::AlignedVector<double> first;  // beta_0 / gsum_0
  util::AlignedVector<double> last;   // alpha_{K-1} / gsum_{K-1}
  long long renorm_total = 0;  // net forward rescaling: 2^renorm_total
  // K x N raw rows: alpha at the steps the backward chain reads, beta at
  // those the forward chain reads; plus the runtime-N chain rows.
  util::AlignedVector<double> rows, scratch;

  void prepare(std::size_t blocks, std::size_t n);
};

// The two-ended sweep. steps[k] (k >= 1) is the block from step k - 1 to
// k; v0 is the raw row at step 0; tail (nullptr for none) is the
// column a trailing loss segment multiplies the last row by. Returns the
// log of the final raw forward mass; the true log likelihood is that minus
// out.renorm_total * log(2), plus the log of whatever the caller divided
// out of the blocks. out must be prepared for the block count.
double skeleton_sweep(const double* blocks, std::size_t n,
                      const std::vector<int>& steps, const double* v0,
                      const double* tail, SkeletonSweep& out);

}  // namespace dcl::inference::fb
