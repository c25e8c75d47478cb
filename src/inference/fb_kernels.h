// Vectorized forward-backward kernels (SoA layout, run-length batching).
//
// The EM hot path spends its time in three loops over the probe sequence:
// the scaled alpha recursion, the scaled beta recursion, and the E-step
// accumulators. This layer rewrites them over a cache-friendly layout so the
// compiler auto-vectorizes the inner loops (no intrinsics; see the
// DCL_VECTOR_REPORT cmake option to inspect what the vectorizer did):
//
//   * State vectors live in 64-byte-aligned rows padded to a whole number of
//     8-double lanes (PaddedMatrix). Padding entries are kept at exact zero,
//     so vector loops run over the full padded width with no masking and no
//     effect on sums.
//   * The transition matrix is folded with each emission column once per
//     iteration: F_c(i, j) = A(i, j) * emit(j, c) (FoldedMatrices), stored
//     both row-major and transposed. Both recursions then become branch-free
//     multiply-add loops over contiguous rows in axpy form — no horizontal
//     reduction inside either recursion's inner loop.
//   * Neither recursion normalizes per step. The classic scaled recursion
//     puts a horizontal sum and a divide on the loop-carried critical path
//     of every time step; here both sweeps run *raw* and renormalize by the
//     exact power of two kRenormFactor only when the (off-critical-path)
//     previous-step mass crosses kRenormThreshold. Power-of-two scalings
//     are rounding-free, the per-step posterior normalizers fall out of the
//     gamma sums that the E-step measures anyway, and the log likelihood
//     telescopes to log(final mass) + renorm corrections — so the critical
//     path per step is just the FMA chain.
//   * The backward sweep keeps only two rotating beta rows instead of a T×N
//     trellis, halving hot-loop memory traffic; the per-step gamma
//     bookkeeping collapses to one fused multiply-add row per observation
//     column (EStep::col_gamma).
//   * Likelihood-only evaluation folds runs of identical observation symbols
//     through memoized scaled powers F_c^(2^k) with tracked log norms
//     (ScaledPowers), turning a length-L run into O(log L) matrix
//     applications without underflow — discretized probe delays are sticky
//     and loss bursts overwhelmingly so.
//
// The kernels are model-agnostic: Hmm uses them directly over its N hidden
// states; Mmhd reuses PaddedMatrix/ScaledPowers over its compact
// active-state blocks (see mmhd.cpp), and with one hidden state sweeps only
// its distinct loss segments (segment_estep).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/aligned.h"
#include "util/matrix.h"

// Function multiversioning for the hot kernel loops: without it the build
// targets baseline x86-64 and the vectorizer is stuck with 16-byte SSE2
// vectors. target_clones makes GCC emit additional x86-64-v3 (AVX2+FMA)
// and x86-64-v4 (AVX-512) clones behind a one-time ifunc dispatch, so one
// portable binary still runs full-width FMA loops — an 8-double kernel row
// is then exactly one zmm register. Annotates definitions only.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define DCL_KERNEL_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define DCL_KERNEL_CLONES
#endif

namespace dcl::inference::fb {

// Doubles per 64-byte cache line; the pad quantum for all kernel rows.
inline constexpr std::size_t kLane = 8;

constexpr std::size_t pad_up(std::size_t n) {
  return (n + kLane - 1) / kLane * kLane;
}

// Runs at least this long are folded through ScaledPowers in the
// likelihood-only kernels; shorter runs are cheaper stepped directly.
inline constexpr std::size_t kFoldMinRun = 32;

// Raw-recursion renormalization: when the previous step's probability mass
// drops below the threshold, the next step multiplies the state vector by
// kRenormFactor (an exact power of two — rounding-free). Parameter floors
// bound one step's shrink at ~1e-12 = 2^-40, so monitored mass stays in
// [2^-104, 1]: far from both underflow and the subnormal range.
inline constexpr double kRenormThreshold = 0x1p-64;
inline constexpr double kRenormFactor = 0x1p64;

// Scale factors multiplied together per log() call in the likelihood sum.
// Each factor is >= the parameter floor (1e-12), so 16 of them stay far
// above DBL_MIN.
inline constexpr std::size_t kLogBatch = 16;

// Row-major matrix whose rows are 64-byte aligned and padded to a whole
// number of lanes. Padding stays exact zero through resize()/zero().
class PaddedMatrix {
 public:
  PaddedMatrix() = default;
  PaddedMatrix(std::size_t rows, std::size_t cols) { resize(rows, cols); }

  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    stride_ = pad_up(cols);
    data_.assign(rows_ * stride_, 0.0);
  }

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

  // Reshapes without clearing when the shape already matches — for trellis
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

// Run-length encoding of the per-step emission-column sequence. Consecutive
// steps with the same column share one folded matrix (and, in the
// likelihood kernels, one power chain).
struct RunLengthIndex {
  struct Run {
    int col = 0;
    std::size_t begin = 0;
    std::size_t len = 0;
  };
  std::vector<Run> runs;

  void build(const std::vector<int>& cols);
};

// Per-iteration folded transition x emission blocks:
//   block(c)[i * stride + j] = a(i, j) * emit(j, c)
//   block_t(c)[j * stride + i] = a(i, j) * emit(j, c)   (transpose)
// for every emission column c in [0, emit.cols()), plus the transposed
// emission rows emission_row(c)[j] = emit(j, c) for the t = 0 init.
// The transpose lets the beta recursion run as a j-outer axpy (new beta =
// sum_j coeff_j * row_j of F^T) with no inner horizontal reduction.
// a is n x n, emit is n x n_cols; rows are padded/aligned, padding zero.
class FoldedMatrices {
 public:
  void build(const util::Matrix& a, const util::Matrix& emit);

  std::size_t n() const { return n_; }
  std::size_t stride() const { return stride_; }
  std::size_t cols() const { return blocks_.rows() / (n_ == 0 ? 1 : n_); }
  const double* block(std::size_t c) const { return blocks_.row(c * n_); }
  const double* block_t(std::size_t c) const { return blocks_t_.row(c * n_); }
  const double* emission_row(std::size_t c) const { return emit_t_.row(c); }

 private:
  std::size_t n_ = 0;
  std::size_t stride_ = 0;
  PaddedMatrix blocks_;    // (n_cols * n) x n, block c at rows [c*n, (c+1)*n)
  PaddedMatrix blocks_t_;  // same shape, block c transposed
  PaddedMatrix emit_t_;    // n_cols x n
};

// Forward trellis: RAW (unnormalized) alpha rows plus the step indices at
// which forward() applied a kRenormFactor renormalization. Row t holds
// alpha_t up to the positive factor 2^(64 * #{renorms <= t}); every
// downstream use (gamma, xi, posterior splits) is scale-invariant because
// the E-step divides by measured per-step mass. The backward sweep never
// stores beta, so this is the only T-sized kernel state.
struct Trellis {
  PaddedMatrix alpha;  // t_len x n, fully rewritten by forward()
  std::vector<std::size_t> renorms;  // ascending step indices, usually sparse
};

// E-step accumulators filled by backward_estep.
struct EStep {
  // col_gamma(c, j) = sum over steps t with cols[t] == c of the normalized
  // gamma_t(j). For the HMM the loss column's row is the gl vector that
  // multiplies the (constant within an iteration) loss posterior split.
  PaddedMatrix col_gamma;  // n_cols x n
  PaddedMatrix xi;         // n x n transition numerators
  util::AlignedVector<double> pi0;  // normalized gamma at t = 0

  void prepare(std::size_t n_cols, std::size_t n);

  // Rotating beta rows + gamma scratch (stride-wide, padding zero).
  util::AlignedVector<double> beta_next, beta_cur, gamma;
};

// Raw forward pass. cols[t] selects the folded block per step. Returns the
// log likelihood, which telescopes to log(final raw mass) minus the renorm
// corrections; the raw alpha rows and renorm positions land in tr.
double forward(const FoldedMatrices& f, const std::vector<int>& cols,
               const double* pi, Trellis& tr);

// Fused backward + E-step sweep over a raw forward trellis. Computes raw
// beta on the fly (two rotating rows, transposed-axpy recursion, its own
// renorm monitoring), accumulating xi and per-column gamma sums; all
// normalizers come from the measured per-step gamma mass, so the arbitrary
// power-of-two scalings of alpha and beta cancel exactly. out must be
// prepared with n_cols >= max(cols) + 1.
void backward_estep(const FoldedMatrices& f, const std::vector<int>& cols,
                    const Trellis& tr, EStep& out);

class ScaledPowers;  // declared below, shared by both kernel families

// ---------------------------------------------------------------------------
// Varying-width block-chain kernels (the MMHD state space).
//
// The MMHD trellis is sparse: at an observed step only the N composite
// states carrying that symbol are feasible; at a loss step, the states of
// every supported symbol. Instead of gathering through per-step active-set
// index lists (the cached engine), the kernel assigns each step a CLASS —
// one class per observed symbol plus one shared loss class — and works in
// the class's own compact, contiguous coordinates. The transition-times-
// emission product for every adjacent class pair that actually occurs in
// the sequence is folded once per EM iteration into a dense block
// (BlockChain), after which both sweeps are the same raw axpy recursions as
// the HMM kernels above, just with per-step block selection and widths.
// ---------------------------------------------------------------------------

// Folded transition blocks between per-step classes. block(u, v) maps the
// compact states of class u to those of class v:
//   block(u, v)[i * stride(v) + j]   = A(state_u(i), state_v(j)) * emit_v(j)
//   block_t(u, v)[j * stride(u) + i] = same value, transposed
// Only pairs flagged used are allocated; the caller rewrites their entries
// every EM iteration (row padding is zeroed once at init and never written
// again).
class BlockChain {
 public:
  static constexpr std::size_t kUnused = static_cast<std::size_t>(-1);

  void init(const std::vector<std::size_t>& widths,
            const std::vector<char>& pair_used);

  std::size_t classes() const { return n_cls_; }
  std::size_t width(std::size_t c) const { return width_[c]; }
  std::size_t stride(std::size_t c) const { return stride_[c]; }
  std::size_t max_stride() const { return max_stride_; }
  bool used(std::size_t u, std::size_t v) const {
    return off_fw_[u * n_cls_ + v] != kUnused;
  }
  // Offset of block (u, v) in the forward-layout flat array; ChainEStep::xi
  // mirrors this layout.
  std::size_t offset(std::size_t u, std::size_t v) const {
    return off_fw_[u * n_cls_ + v];
  }
  std::size_t total() const { return total_fw_; }

  double* block(std::size_t u, std::size_t v) {
    return data_.data() + off_fw_[u * n_cls_ + v];
  }
  const double* block(std::size_t u, std::size_t v) const {
    return data_.data() + off_fw_[u * n_cls_ + v];
  }
  double* block_t(std::size_t u, std::size_t v) {
    return data_t_.data() + off_bw_[u * n_cls_ + v];
  }
  const double* block_t(std::size_t u, std::size_t v) const {
    return data_t_.data() + off_bw_[u * n_cls_ + v];
  }

  // Raw views for the kernel hot loops: hoisted into __restrict locals once
  // per sweep, so per-step block/width/stride lookups are plain L1 loads
  // rather than accessor chains the compiler must re-derive each step.
  const double* data() const { return data_.data(); }
  const double* data_t() const { return data_t_.data(); }
  const std::size_t* offsets() const { return off_fw_.data(); }
  const std::size_t* offsets_t() const { return off_bw_.data(); }
  const std::size_t* widths() const { return width_.data(); }
  const std::size_t* strides() const { return stride_.data(); }

 private:
  std::size_t n_cls_ = 0;
  std::size_t max_stride_ = 0;
  std::size_t total_fw_ = 0;
  std::vector<std::size_t> width_, stride_;
  std::vector<std::size_t> off_fw_, off_bw_;  // kUnused for absent pairs
  util::AlignedVector<double> data_, data_t_;
};

// E-step accumulators for the block-chain sweep.
struct ChainEStep {
  // cls_gamma(c, j) = sum over steps of class c of the normalized gamma in
  // class-c compact coordinates. For the loss class this is the virtual
  // delay numerator; for observed classes it feeds the C[d] denominators.
  PaddedMatrix cls_gamma;            // n_cls x max_width
  util::AlignedVector<double> xi;    // mirrors BlockChain forward layout
  util::AlignedVector<double> pi0;   // compact gamma at t = 0

  void prepare(const BlockChain& bc);

  util::AlignedVector<double> beta_next, beta_cur, gamma;
};

// Raw block-chain forward pass. cls[t] names each step's class; v0 is the
// caller-built compact init row pi .* emit for class cls[0] (padding zero).
// Same renorm scheme and telescoped likelihood as forward().
double chain_forward(const BlockChain& bc, const std::vector<int>& cls,
                     const double* v0, Trellis& tr);

// Fused raw backward + E-step over a chain_forward trellis; the chain
// analog of backward_estep.
void chain_backward_estep(const BlockChain& bc, const std::vector<int>& cls,
                          const Trellis& tr, ChainEStep& out);

// Likelihood-only block-chain pass with run-length folding: within a run of
// one class, steps 2..len apply the self block (c, c) and fold through the
// per-class ScaledPowers cache once the remaining run is long enough.
double chain_log_likelihood(const BlockChain& bc, const RunLengthIndex& runs,
                            const double* v0,
                            std::vector<ScaledPowers>& cache);

// ---------------------------------------------------------------------------
// Loss-segment kernels (the MMHD with one hidden state).
//
// With N = 1 the MMHD state at a received probe IS its delay symbol, so the
// posterior is certain everywhere except inside maximal runs of lost probes
// (loss segments). A segment bridges from its left received symbol (or the
// sequence start) to its right one (or the sequence end); its forward-
// backward over the S supported symbols depends only on that (left, right,
// length) key, so identical segments are evaluated once per iteration and
// weighted by how often they occur. Going further, a segment's alpha rows
// depend only on its left boundary and its beta rows only on its right
// boundary and the distance to it, so one forward sweep per left boundary
// and one backward sweep per right boundary serve every segment; what
// remains per segment is the gamma and xi accumulation.
// ---------------------------------------------------------------------------

// Per-iteration folded inputs, in the compact coordinates of the S
// supported symbols (rows padded to stride(), padding zero):
//   loss(i, j)   = A(i, j) * C[j]                 loss -> loss
//   loss_t       = the same block, transposed
//   entry(e, j)  = A(l_e, j) * C[j]               left boundary e; the
//                  sequence-start boundary uses pi(j) * C[j]
//   exit(x, i)   = A(i, r_x) * (1 - C[r_x])       right boundary x; the
//                  sequence-end boundary is all ones
// The caller rewrites every live entry each iteration.
struct SegmentChain {
  PaddedMatrix loss, loss_t, entry, exit;

  // Shapes the blocks for `width` supported symbols and the given boundary
  // row counts; storage (and zero padding) is kept when the shape matches.
  void init(std::size_t width, std::size_t entries, std::size_t exits);
  std::size_t width() const { return loss.cols(); }
  std::size_t stride() const { return loss.stride(); }
};

// One distinct segment key and its multiplicity in the sequence.
struct LossSegment {
  std::size_t entry = 0;  // row of SegmentChain::entry
  std::size_t exit = 0;   // row of SegmentChain::exit
  std::size_t len = 0;    // lost probes in the run, >= 1
  double count = 0.0;     // occurrences
};

// E-step accumulators of segment_estep, count-weighted sums of normalized
// posteriors over every segment.
struct SegmentEStep {
  util::AlignedVector<double> gamma;  // over loss steps: eq. (5) numerator
  // Loss -> loss xi numerators divided by the folded loss block: the kernel
  // accumulates alpha_t (x) beta_{t+1} outer products and the caller
  // multiplies by SegmentChain::loss once per iteration.
  PaddedMatrix outer;
  PaddedMatrix entry_gamma;  // per entry row: gamma at segments' first step
  PaddedMatrix exit_gamma;   // per exit row: gamma at segments' last step

  // Zeroes the accumulators and sizes the sweeps for the longest segment
  // at each boundary.
  void prepare(const SegmentChain& sc, const std::vector<LossSegment>& segs);

  // Raw alpha rows of each entry row's forward sweep (entry e's step t at
  // row fwd_off[e] + t) with the renorm factor applied at that step and
  // the count of renorms up to it, and raw beta rows of each exit row's
  // backward sweep (exit x's row k is beta at the loss step k steps before
  // a segment's last one).
  PaddedMatrix fwd, bwd;
  std::vector<std::size_t> fwd_off, bwd_off, fwd_len, bwd_len;
  std::vector<double> fwd_rf, fwd_renorms;
  util::AlignedVector<double> g;
};

// One raw forward sweep per entry row and one raw backward sweep per exit
// row (renormalized by exact powers of two, as chain_forward), then every
// segment's gamma and xi from those rows, in the given (fixed) order.
// Returns sum over segments of count * log(segment mass), the
// loss-segment share of the sequence log likelihood.
double segment_estep(const SegmentChain& sc,
                     const std::vector<LossSegment>& segs, SegmentEStep& out);

// Memoized scaled powers M^(2^k) of one n x n block with accumulated log
// norms. Lets likelihood-only evaluation fold a length-L run of one
// emission column into O(log L) matrix applications; the per-power
// renormalization keeps every intermediate in range for arbitrarily long
// runs (the T=500k underflow stress test exercises exactly this).
class ScaledPowers {
 public:
  // Rebind to a block (n rows of the given stride). Drops cached powers.
  void reset(const double* m, std::size_t n, std::size_t stride);
  bool bound() const { return base_ != nullptr; }

  // v <- normalize(v * M^len) (row vector times matrix power). Returns the
  // log of the total mass shed, i.e. the sum of the per-step log scale
  // factors of the equivalent step-by-step recursion.
  double apply(std::size_t len, double* v);

 private:
  struct Power {
    util::AlignedVector<double> m;
    double log_norm = 0.0;
  };
  const Power& power(std::size_t k);

  const double* base_ = nullptr;
  std::size_t n_ = 0;
  std::size_t stride_ = 0;
  std::vector<Power> powers_;
  util::AlignedVector<double> tmp_;
};

// Likelihood-only scaled forward pass with run-length folding: runs shorter
// than kFoldMinRun step through the folded block directly; longer runs go
// through the per-column ScaledPowers cache (resized/rebound lazily).
double log_likelihood(const FoldedMatrices& f, const RunLengthIndex& runs,
                      const double* pi, std::vector<ScaledPowers>& cache);

}  // namespace dcl::inference::fb
