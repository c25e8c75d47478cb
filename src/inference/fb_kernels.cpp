#include "inference/fb_kernels.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "util/error.h"

namespace dcl::inference::fb {
namespace {

// Batched log of per-step scale factors: multiplies kLogBatch scales per
// std::log call. Every scale is bounded below by the parameter floor
// (~1e-12) and above by the state count (<= pad width), so the running
// product stays far inside double range.
struct LogAccumulator {
  double ll = 0.0;
  double prod = 1.0;
  std::size_t pending = 0;

  void push(double scale) {
    prod *= scale;
    if (++pending == kLogBatch) {
      ll += std::log(prod);
      prod = 1.0;
      pending = 0;
    }
  }

  double finish() {
    if (pending > 0) {
      ll += std::log(prod);
      prod = 1.0;
      pending = 0;
    }
    return ll;
  }
};

}  // namespace

void RunLengthIndex::build(const std::vector<int>& cols) {
  runs.clear();
  for (std::size_t t = 0; t < cols.size(); ++t) {
    if (!runs.empty() && runs.back().col == cols[t]) {
      ++runs.back().len;
    } else {
      runs.push_back(Run{cols[t], t, 1});
    }
  }
}

void FoldedMatrices::build(const util::Matrix& a, const util::Matrix& emit) {
  n_ = a.rows();
  stride_ = pad_up(n_);
  const std::size_t n_cols = emit.cols();
  blocks_.ensure(n_cols * n_, n_);
  blocks_t_.ensure(n_cols * n_, n_);
  emit_t_.ensure(n_cols, n_);
  for (std::size_t c = 0; c < n_cols; ++c) {
    double* e = emit_t_.row(c);
    for (std::size_t j = 0; j < n_; ++j) e[j] = emit(j, c);
    for (std::size_t i = 0; i < n_; ++i) {
      double* dst = blocks_.row(c * n_ + i);
      const double* src = a.row(i);
      for (std::size_t j = 0; j < n_; ++j) dst[j] = src[j] * e[j];
    }
    for (std::size_t j = 0; j < n_; ++j) {
      double* dst = blocks_t_.row(c * n_ + j);
      const double ej = e[j];
      for (std::size_t i = 0; i < n_; ++i) dst[i] = a(i, j) * ej;
    }
  }
}

void EStep::prepare(std::size_t n_cols, std::size_t n) {
  col_gamma.ensure(n_cols, n);
  xi.ensure(n, n);
  const std::size_t w = pad_up(n);
  pi0.assign(w, 0.0);
  beta_next.assign(w, 0.0);
  beta_cur.assign(w, 0.0);
  gamma.assign(w, 0.0);
}

namespace {

// The recursion bodies are templated on the row width so the common narrow
// strides (one or two cache lines) compile with a constant trip count: the
// inner loops then unroll into straight-line vector code with no per-step
// loop setup, which matters when each row is only one register wide. The
// bodies are force-inlined into the exported (multiversioned) functions, so
// each ISA clone carries its own specialized copies.
template <typename WidthT>
[[gnu::always_inline]] inline double forward_body(const FoldedMatrices& f,
                                                  const std::vector<int>& cols,
                                                  const double* pi, Trellis& tr,
                                                  WidthT width) {
  const std::size_t n = f.n();
  const std::size_t w = width;
  const std::size_t t_len = cols.size();
  DCL_ENSURE_MSG(t_len > 0, "forward kernel: empty sequence");
  tr.alpha.reshape(t_len, n);
  tr.renorms.clear();

  // Raw recursion: w_t = (r_t * w_{t-1}) . F_c, with r_t = kRenormFactor
  // when the previous step's mass crossed the threshold and 1 otherwise.
  // The classic scaled recursion serializes FMA -> horizontal sum ->
  // divide -> next FMA on every step; here the loop-carried dependency is
  // only the FMA chain itself. The mass s is still summed each step, but
  // nothing downstream waits on it within the step: it feeds the (rare,
  // predictable) renorm branch of the NEXT step, the positivity check, and
  // the final telescoped likelihood log(s_last) - #renorms * log(2^64).
  double s_prev;
  {
    const double* __restrict e0 =
        f.emission_row(static_cast<std::size_t>(cols[0]));
    double* __restrict a0 = tr.alpha.row(0);
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      a0[j] = pi[j] * e0[j];
      s += a0[j];
    }
    for (std::size_t j = n; j < w; ++j) a0[j] = 0.0;
    DCL_ENSURE_MSG(s > 0.0, "forward kernel: zero probability at t = 0");
    s_prev = s;
  }

  // Hoisted bases: the loop indexes flat arrays off loop-invariant locals so
  // no per-step loads of container internals survive into the hot loop.
  const double* __restrict blk0 = f.block(0);
  double* __restrict alpha0 = tr.alpha.row(0);
  const int* __restrict col = cols.data();
  const std::size_t bstride = n * w;
  for (std::size_t t = 1; t < t_len; ++t) {
    const double* __restrict blk = blk0 + static_cast<std::size_t>(col[t]) * bstride;
    const double* __restrict vprev = alpha0 + (t - 1) * w;
    double* __restrict vout = alpha0 + t * w;
    double r = 1.0;
    if (s_prev < kRenormThreshold) {
      r = kRenormFactor;
      tr.renorms.push_back(t);
    }
    {
      const double a = vprev[0] * r;
      for (std::size_t j = 0; j < w; ++j) vout[j] = a * blk[j];
    }
    for (std::size_t i = 1; i < n; ++i) {
      const double a = vprev[i] * r;
      const double* __restrict row = blk + i * w;
      for (std::size_t j = 0; j < w; ++j) vout[j] += a * row[j];
    }
    double s = 0.0;
    for (std::size_t j = 0; j < w; ++j) s += vout[j];
    DCL_ENSURE_MSG(s > 0.0, "forward kernel: zero probability mass");
    s_prev = s;
  }

  return std::log(s_prev) -
         static_cast<double>(tr.renorms.size()) * std::log(kRenormFactor);
}

template <typename WidthT>
[[gnu::always_inline]] inline void backward_estep_body(
    const FoldedMatrices& f, const std::vector<int>& cols, const Trellis& tr,
    EStep& out, WidthT width) {
  const std::size_t n = f.n();
  const std::size_t w = width;
  const std::size_t t_len = cols.size();
  double* bnext = out.beta_next.data();
  double* bcur = out.beta_cur.data();
  double* __restrict g = out.gamma.data();
  std::fill(bnext, bnext + w, 0.0);
  std::fill(bcur, bcur + w, 0.0);
  for (std::size_t j = 0; j < n; ++j) bnext[j] = 1.0;

  // Like forward(), the beta recursion runs raw: B_t = (r * B_{t+1}) . F^T
  // with r an exact power of two applied only when the measured posterior
  // mass drifts low. All normalizers cancel through the per-step gamma
  // mass: writing a_t for the raw alpha row and B_t for the raw beta row,
  //   gamma_t     = (a_t . B_t) / gsum_t,        gsum_t = sum_j a_t(j) B_t(j)
  //   xi_t(i, j) ~= a_t(i) F(i,j) B_{t+1}(j) * rf_{t+1} / gsum_{t+1}
  // where rf_{t+1} is the forward renorm factor recorded at step t+1 (it
  // relates a_{t+1} to a_t . F, which is what the xi normalizer needs).
  // Neither quantity references a per-step scale factor, so no divide or
  // horizontal sum sits on the beta critical path — only the transposed
  // axpy FMA chain.
  double gsum_next;
  {
    const double* __restrict a = tr.alpha.row(t_len - 1);
    double gsum = 0.0;
    for (std::size_t j = 0; j < w; ++j) {
      g[j] = a[j] * bnext[j];
      gsum += g[j];
    }
    DCL_ENSURE_MSG(gsum > 0.0, "backward kernel: zero posterior mass");
    const double invg = 1.0 / gsum;
    double* __restrict row =
        out.col_gamma.row(static_cast<std::size_t>(cols[t_len - 1]));
    for (std::size_t j = 0; j < w; ++j) row[j] += g[j] * invg;
    if (t_len == 1) {
      for (std::size_t j = 0; j < n; ++j) out.pi0[j] = g[j] * invg;
    }
    gsum_next = gsum;
  }

  // Hoisted bases, as in forward(): everything the hot loop touches is
  // reached from loop-invariant locals.
  const double* __restrict blk0 = f.block(0);
  const double* __restrict blk_t0 = f.block_t(0);
  const double* __restrict alpha0 = tr.alpha.row(0);
  double* __restrict xi0 = out.xi.row(0);
  double* __restrict cg0 = out.col_gamma.row(0);
  const int* __restrict col = cols.data();
  const std::size_t* __restrict renorm = tr.renorms.data();
  const std::size_t bstride = n * w;
  std::size_t ridx = tr.renorms.size();
  // Renorm decisions come from this tracked mass, not from the measured
  // gsum: in exact arithmetic gsum evolves by exactly rb/rf per step (both
  // powers of two, so the tracking multiplies are rounding-free), and
  // keeping the decision off the measured sum removes the horizontal
  // reduction from the loop-carried critical path — the only carried chain
  // left is the beta axpy itself. FP drift between tracked and measured
  // mass is ~1e-14 relative, irrelevant against power-of-two thresholds.
  double mass = gsum_next;
  for (std::size_t t = t_len - 1; t-- > 0;) {
    const std::size_t c = static_cast<std::size_t>(col[t + 1]);
    const double* __restrict blk = blk0 + c * bstride;
    const double* __restrict blk_t = blk_t0 + c * bstride;
    const double* __restrict a = alpha0 + t * w;
    const double* __restrict bn = bnext;
    double* __restrict bc = bcur;

    // Forward renorm factor between rows t and t+1 (rare, recorded
    // ascending; consumed here descending).
    double rf = 1.0;
    if (ridx > 0 && renorm[ridx - 1] == t + 1) {
      rf = kRenormFactor;
      --ridx;
    }
    // Beta's own renorm, folded into this step's axpy coefficients. It
    // deliberately does NOT touch bn as seen by the xi update below: the
    // xi normalizer divides by gsum_{t+1}, which was measured on the
    // un-renormalized B_{t+1}.
    const double rb = mass < kRenormThreshold ? kRenormFactor : 1.0;
    mass = mass * rb / rf;
    const double nf = rf / gsum_next;

    // Transposed axpy: B_t = sum_j (B_{t+1}(j) * rb) * F^T row j. The
    // loop-carried chain across steps is just this FMA chain.
    {
      const double b0 = bn[0] * rb;
      for (std::size_t i = 0; i < w; ++i) bc[i] = b0 * blk_t[i];
    }
    for (std::size_t j = 1; j < n; ++j) {
      const double b = bn[j] * rb;
      const double* __restrict row = blk_t + j * w;
      for (std::size_t i = 0; i < w; ++i) bc[i] += b * row[i];
    }

    // Xi accumulation: off the beta chain, plain row-major blocks.
    for (std::size_t i = 0; i < n; ++i) {
      const double* __restrict r = blk + i * w;
      double* __restrict xr = xi0 + i * w;
      const double ai = a[i] * nf;
      for (std::size_t j = 0; j < w; ++j) xr[j] += ai * (r[j] * bn[j]);
    }

    double gsum = 0.0;
    for (std::size_t j = 0; j < w; ++j) {
      g[j] = a[j] * bc[j];
      gsum += g[j];
    }
    DCL_ENSURE_MSG(gsum > 0.0, "backward kernel: zero posterior mass");
    const double invg = 1.0 / gsum;
    double* __restrict row = cg0 + static_cast<std::size_t>(col[t]) * w;
    for (std::size_t j = 0; j < w; ++j) row[j] += g[j] * invg;
    if (t == 0) {
      for (std::size_t j = 0; j < n; ++j) out.pi0[j] = g[j] * invg;
    }
    gsum_next = gsum;
    std::swap(bnext, bcur);
  }
}

}  // namespace

DCL_KERNEL_CLONES
double forward(const FoldedMatrices& f, const std::vector<int>& cols,
               const double* pi, Trellis& tr) {
  const std::size_t w = f.stride();
  if (w == kLane) {
    return forward_body(f, cols, pi, tr,
                        std::integral_constant<std::size_t, kLane>{});
  }
  if (w == 2 * kLane) {
    return forward_body(f, cols, pi, tr,
                        std::integral_constant<std::size_t, 2 * kLane>{});
  }
  return forward_body(f, cols, pi, tr, w);
}

DCL_KERNEL_CLONES
void backward_estep(const FoldedMatrices& f, const std::vector<int>& cols,
                    const Trellis& tr, EStep& out) {
  const std::size_t w = f.stride();
  if (w == kLane) {
    backward_estep_body(f, cols, tr, out,
                        std::integral_constant<std::size_t, kLane>{});
    return;
  }
  if (w == 2 * kLane) {
    backward_estep_body(f, cols, tr, out,
                        std::integral_constant<std::size_t, 2 * kLane>{});
    return;
  }
  backward_estep_body(f, cols, tr, out, w);
}

void BlockChain::init(const std::vector<std::size_t>& widths,
                      const std::vector<char>& pair_used) {
  n_cls_ = widths.size();
  DCL_ENSURE_MSG(pair_used.size() == n_cls_ * n_cls_,
                 "block chain: pair_used size mismatch");
  width_ = widths;
  stride_.resize(n_cls_);
  max_stride_ = 0;
  for (std::size_t c = 0; c < n_cls_; ++c) {
    DCL_ENSURE_MSG(width_[c] > 0, "block chain: empty class");
    stride_[c] = pad_up(width_[c]);
    max_stride_ = std::max(max_stride_, stride_[c]);
  }
  off_fw_.assign(n_cls_ * n_cls_, kUnused);
  off_bw_.assign(n_cls_ * n_cls_, kUnused);
  std::size_t fw = 0;
  std::size_t bw = 0;
  for (std::size_t u = 0; u < n_cls_; ++u) {
    for (std::size_t v = 0; v < n_cls_; ++v) {
      if (!pair_used[u * n_cls_ + v]) continue;
      off_fw_[u * n_cls_ + v] = fw;
      fw += width_[u] * stride_[v];
      off_bw_[u * n_cls_ + v] = bw;
      bw += width_[v] * stride_[u];
    }
  }
  total_fw_ = fw;
  // Zeroing here is what keeps the row padding zero for good: the caller
  // rewrites only the width(u) x width(v) live entries of each used block.
  data_.assign(fw, 0.0);
  data_t_.assign(bw, 0.0);
}

void ChainEStep::prepare(const BlockChain& bc) {
  cls_gamma.ensure(bc.classes(), bc.max_stride());
  xi.assign(bc.total(), 0.0);
  pi0.assign(bc.max_stride(), 0.0);
  beta_next.assign(bc.max_stride(), 0.0);
  beta_cur.assign(bc.max_stride(), 0.0);
  gamma.assign(bc.max_stride(), 0.0);
}

namespace {

// Shared axpy form of both chain sweeps: out[j] = sum_i (coef[i] * r) *
// blk[i * w + j] over `rows` block rows, returning the mass of the result.
// Forward uses it with the row-major block (rows = width(u), w = stride(v));
// backward uses it with the transposed block (rows = width(v), w =
// stride(u)). Width-specialized for the dominant one-cache-line case, same
// rationale as the fixed-width bodies above.
template <typename WidthT>
[[gnu::always_inline]] inline double chain_axpy(
    const double* __restrict coef, double r, const double* __restrict blk,
    std::size_t rows, double* __restrict out, WidthT width) {
  const std::size_t w = width;
  // The dominant observation classes have exactly `states_per_symbol` rows;
  // a fused fixed-trip body keeps GCC from outer-vectorizing the unknown
  // rows loop into a shuffle-heavy 8x8 transpose (measured ~2x slower).
  if (rows == 2) {
    const double a0 = coef[0] * r;
    const double a1 = coef[1] * r;
    const double* __restrict r1 = blk + w;
    double s = 0.0;
    for (std::size_t j = 0; j < w; ++j) {
      out[j] = a0 * blk[j] + a1 * r1[j];
      s += out[j];
    }
    return s;
  }
  {
    const double a = coef[0] * r;
    for (std::size_t j = 0; j < w; ++j) out[j] = a * blk[j];
  }
  for (std::size_t i = 1; i < rows; ++i) {
    const double a = coef[i] * r;
    const double* __restrict row = blk + i * w;
    for (std::size_t j = 0; j < w; ++j) out[j] += a * row[j];
  }
  double s = 0.0;
  for (std::size_t j = 0; j < w; ++j) s += out[j];
  return s;
}

template <typename WidthT>
[[gnu::always_inline]] inline void chain_xi(const double* __restrict a,
                                            double nf,
                                            const double* __restrict blk,
                                            const double* __restrict bn,
                                            std::size_t rows,
                                            double* __restrict xr0,
                                            WidthT width) {
  const std::size_t w = width;
  if (rows == 2) {  // same fixed-trip escape hatch as chain_axpy
    const double a0 = a[0] * nf;
    const double a1 = a[1] * nf;
    const double* __restrict r1 = blk + w;
    double* __restrict x1 = xr0 + w;
    for (std::size_t j = 0; j < w; ++j) {
      const double bj = bn[j];
      xr0[j] += a0 * (blk[j] * bj);
      x1[j] += a1 * (r1[j] * bj);
    }
    return;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const double* __restrict r = blk + i * w;
    double* __restrict xr = xr0 + i * w;
    const double ai = a[i] * nf;
    for (std::size_t j = 0; j < w; ++j) xr[j] += ai * (r[j] * bn[j]);
  }
}

// gamma_t = alpha_t .* beta_t over one padded row; returns its mass.
template <typename WidthT>
[[gnu::always_inline]] inline double chain_gamma(const double* __restrict a,
                                                 const double* __restrict b,
                                                 double* __restrict g,
                                                 WidthT width) {
  const std::size_t w = width;
  double s = 0.0;
  for (std::size_t j = 0; j < w; ++j) {
    g[j] = a[j] * b[j];
    s += g[j];
  }
  return s;
}

// chain_xi without the block factor: out(i, j) += (a[i] * nf) * bn[j]. The
// segment sweep multiplies the summed outer products by the (per-iteration
// constant) loss block once, instead of once per step.
template <typename WidthT>
[[gnu::always_inline]] inline void chain_outer(const double* __restrict a,
                                               double nf,
                                               const double* __restrict bn,
                                               std::size_t rows,
                                               double* __restrict xr0,
                                               WidthT width) {
  const std::size_t w = width;
  for (std::size_t i = 0; i < rows; ++i) {
    double* __restrict xr = xr0 + i * w;
    const double ai = a[i] * nf;
    for (std::size_t j = 0; j < w; ++j) xr[j] += ai * bn[j];
  }
}

// out += scale * g over one padded row.
template <typename WidthT>
[[gnu::always_inline]] inline void chain_add(const double* __restrict g,
                                             double scale,
                                             double* __restrict out,
                                             WidthT width) {
  const std::size_t w = width;
  for (std::size_t j = 0; j < w; ++j) out[j] += g[j] * scale;
}

}  // namespace

DCL_KERNEL_CLONES
double chain_forward(const BlockChain& bc, const std::vector<int>& cls,
                     const double* v0, Trellis& tr) {
  const std::size_t t_len = cls.size();
  DCL_ENSURE_MSG(t_len > 0, "chain forward: empty sequence");
  const std::size_t mw = bc.max_stride();
  tr.alpha.reshape(t_len, mw);
  tr.renorms.clear();

  // Same raw recursion as forward(): no per-step normalization, exact
  // power-of-two renorms recorded in tr.renorms, telescoped likelihood.
  double s_prev;
  {
    double* __restrict a0 = tr.alpha.row(0);
    const std::size_t s0 = bc.stride(static_cast<std::size_t>(cls[0]));
    double s = 0.0;
    for (std::size_t j = 0; j < s0; ++j) {
      a0[j] = v0[j];  // caller zero-pads v0 up to the class stride
      s += a0[j];
    }
    DCL_ENSURE_MSG(s > 0.0, "chain forward: zero probability at t = 0");
    s_prev = s;
  }

  double* __restrict alpha0 = tr.alpha.row(0);
  const int* __restrict cl = cls.data();
  const double* __restrict data0 = bc.data();
  const std::size_t* __restrict off = bc.offsets();
  const std::size_t* __restrict wid = bc.widths();
  const std::size_t* __restrict str = bc.strides();
  const std::size_t n_cls = bc.classes();
  for (std::size_t t = 1; t < t_len; ++t) {
    const std::size_t u = static_cast<std::size_t>(cl[t - 1]);
    const std::size_t v = static_cast<std::size_t>(cl[t]);
    const double* __restrict blk = data0 + off[u * n_cls + v];
    const std::size_t nu = wid[u];
    const std::size_t sv = str[v];
    const double* __restrict vprev = alpha0 + (t - 1) * mw;
    double* __restrict vout = alpha0 + t * mw;
    double r = 1.0;
    if (s_prev < kRenormThreshold) {
      r = kRenormFactor;
      tr.renorms.push_back(t);
    }
    const double s =
        sv == kLane
            ? chain_axpy(vprev, r, blk, nu, vout,
                         std::integral_constant<std::size_t, kLane>{})
            : chain_axpy(vprev, r, blk, nu, vout, sv);
    DCL_ENSURE_MSG(s > 0.0, "chain forward: zero probability mass");
    s_prev = s;
  }

  return std::log(s_prev) -
         static_cast<double>(tr.renorms.size()) * std::log(kRenormFactor);
}

DCL_KERNEL_CLONES
void chain_backward_estep(const BlockChain& bc, const std::vector<int>& cls,
                          const Trellis& tr, ChainEStep& out) {
  const std::size_t t_len = cls.size();
  DCL_ENSURE_MSG(t_len > 0, "chain backward: empty sequence");
  const std::size_t mw = bc.max_stride();
  double* bnext = out.beta_next.data();
  double* bcur = out.beta_cur.data();
  double* __restrict g = out.gamma.data();
  std::fill(bnext, bnext + mw, 0.0);
  std::fill(bcur, bcur + mw, 0.0);

  // Same renorm bookkeeping as backward_estep(): raw beta, forward factors
  // consumed descending from tr.renorms, beta's own renorm decided from the
  // tracked (power-of-two exact) mass, and every normalizer cancelling
  // through the measured per-step gamma mass.
  double gsum_next;
  {
    const std::size_t last = static_cast<std::size_t>(cls[t_len - 1]);
    const std::size_t sw = bc.stride(last);
    for (std::size_t j = 0; j < bc.width(last); ++j) bnext[j] = 1.0;
    const double* __restrict a = tr.alpha.row(t_len - 1);
    const double gsum =
        sw == kLane ? chain_gamma(a, bnext, g,
                                  std::integral_constant<std::size_t, kLane>{})
                    : chain_gamma(a, bnext, g, sw);
    DCL_ENSURE_MSG(gsum > 0.0, "chain backward: zero posterior mass");
    const double invg = 1.0 / gsum;
    double* __restrict row = out.cls_gamma.row(last);
    for (std::size_t j = 0; j < sw; ++j) row[j] += g[j] * invg;
    if (t_len == 1) {
      for (std::size_t j = 0; j < bc.width(last); ++j) out.pi0[j] = g[j] * invg;
    }
    gsum_next = gsum;
  }

  const double* __restrict alpha0 = tr.alpha.row(0);
  double* __restrict xi0 = out.xi.data();
  double* __restrict cg0 = out.cls_gamma.row(0);
  const std::size_t cg_stride = out.cls_gamma.stride();
  const int* __restrict cl = cls.data();
  const std::size_t* __restrict renorm = tr.renorms.data();
  const double* __restrict data0 = bc.data();
  const double* __restrict data_t0 = bc.data_t();
  const std::size_t* __restrict off = bc.offsets();
  const std::size_t* __restrict off_t = bc.offsets_t();
  const std::size_t* __restrict wid = bc.widths();
  const std::size_t* __restrict str = bc.strides();
  const std::size_t n_cls = bc.classes();
  std::size_t ridx = tr.renorms.size();
  double mass = gsum_next;
  for (std::size_t t = t_len - 1; t-- > 0;) {
    const std::size_t u = static_cast<std::size_t>(cl[t]);
    const std::size_t v = static_cast<std::size_t>(cl[t + 1]);
    const std::size_t pair = u * n_cls + v;
    const double* __restrict blk = data0 + off[pair];
    const double* __restrict blk_t = data_t0 + off_t[pair];
    const std::size_t nu = wid[u];
    const std::size_t su = str[u];
    const std::size_t nv = wid[v];
    const std::size_t sv = str[v];
    const double* __restrict a = alpha0 + t * mw;
    const double* __restrict bn = bnext;
    double* __restrict bcr = bcur;

    double rf = 1.0;
    if (ridx > 0 && renorm[ridx - 1] == t + 1) {
      rf = kRenormFactor;
      --ridx;
    }
    const double rb = mass < kRenormThreshold ? kRenormFactor : 1.0;
    mass = mass * rb / rf;
    const double nf = rf / gsum_next;

    // Transposed axpy: B_t(i) = sum_j (B_{t+1}(j) * rb) * blk_t[j][i].
    if (su == kLane) {
      chain_axpy(bn, rb, blk_t, nv, bcr,
                 std::integral_constant<std::size_t, kLane>{});
    } else {
      chain_axpy(bn, rb, blk_t, nv, bcr, su);
    }

    // Xi into the flat accumulator at this pair's block offset.
    double* __restrict xr0 = xi0 + off[pair];
    if (sv == kLane) {
      chain_xi(a, nf, blk, bn, nu, xr0,
               std::integral_constant<std::size_t, kLane>{});
    } else {
      chain_xi(a, nf, blk, bn, nu, xr0, sv);
    }

    const double gsum =
        su == kLane ? chain_gamma(a, bcr, g,
                                  std::integral_constant<std::size_t, kLane>{})
                    : chain_gamma(a, bcr, g, su);
    DCL_ENSURE_MSG(gsum > 0.0, "chain backward: zero posterior mass");
    const double invg = 1.0 / gsum;
    double* __restrict row = cg0 + u * cg_stride;
    for (std::size_t j = 0; j < su; ++j) row[j] += g[j] * invg;
    if (t == 0) {
      for (std::size_t j = 0; j < nu; ++j) out.pi0[j] = g[j] * invg;
    }
    gsum_next = gsum;
    std::swap(bnext, bcur);
  }
}

DCL_KERNEL_CLONES
double chain_log_likelihood(const BlockChain& bc, const RunLengthIndex& runs,
                            const double* v0,
                            std::vector<ScaledPowers>& cache) {
  DCL_ENSURE_MSG(!runs.runs.empty(), "chain likelihood: empty sequence");
  if (cache.size() < bc.classes()) cache.resize(bc.classes());
  std::vector<char> bound(bc.classes(), 0);

  util::AlignedVector<double> v(bc.max_stride(), 0.0);
  util::AlignedVector<double> tmp(bc.max_stride(), 0.0);
  LogAccumulator acc;
  double folded = 0.0;

  // One normalized step through block (u, v); v's live width becomes
  // stride(v) afterwards (block padding keeps the tail zero).
  const auto step = [&](std::size_t u, std::size_t v_cls) {
    const double* blk = bc.block(u, v_cls);
    const std::size_t nu = bc.width(u);
    const std::size_t sv = bc.stride(v_cls);
    double* t = tmp.data();
    const double s = sv == kLane
                         ? chain_axpy(v.data(), 1.0, blk, nu, t,
                                      std::integral_constant<std::size_t,
                                                             kLane>{})
                         : chain_axpy(v.data(), 1.0, blk, nu, t, sv);
    DCL_ENSURE_MSG(s > 0.0, "chain likelihood: zero probability mass");
    const double inv = 1.0 / s;
    for (std::size_t j = 0; j < sv; ++j) v[j] = t[j] * inv;
    acc.push(s);
  };

  // len further steps through the self block (c, c), folded through the
  // per-class power cache when the run is long enough.
  const auto fold_or_steps = [&](std::size_t c, std::size_t len) {
    if (len == 0) return;
    if (len >= kFoldMinRun) {
      if (!bound[c]) {
        cache[c].reset(bc.block(c, c), bc.width(c), bc.stride(c));
        bound[c] = 1;
      }
      folded += cache[c].apply(len, v.data());
    } else {
      for (std::size_t l = 0; l < len; ++l) step(c, c);
    }
  };

  std::size_t prev = static_cast<std::size_t>(runs.runs.front().col);
  {
    const std::size_t w0 = bc.width(prev);
    double s = 0.0;
    for (std::size_t j = 0; j < w0; ++j) {
      v[j] = v0[j];
      s += v[j];
    }
    DCL_ENSURE_MSG(s > 0.0, "chain likelihood: zero probability at t = 0");
    const double inv = 1.0 / s;
    for (std::size_t j = 0; j < w0; ++j) v[j] *= inv;
    acc.push(s);
    fold_or_steps(prev, runs.runs.front().len - 1);
  }
  for (std::size_t ri = 1; ri < runs.runs.size(); ++ri) {
    const std::size_t c = static_cast<std::size_t>(runs.runs[ri].col);
    step(prev, c);
    fold_or_steps(c, runs.runs[ri].len - 1);
    prev = c;
  }
  return acc.finish() + folded;
}

void SegmentChain::init(std::size_t width, std::size_t entries,
                        std::size_t exits) {
  DCL_ENSURE_MSG(width > 0, "segment chain: no supported symbol");
  loss.reshape(width, width);
  loss_t.reshape(width, width);
  entry.reshape(entries, width);
  exit.reshape(exits, width);
}

void SegmentEStep::prepare(const SegmentChain& sc,
                           const std::vector<LossSegment>& segs) {
  const std::size_t n = sc.width();
  gamma.assign(sc.stride(), 0.0);
  outer.ensure(n, n);
  entry_gamma.ensure(sc.entry.rows(), n);
  exit_gamma.ensure(sc.exit.rows(), n);
  fwd_len.assign(sc.entry.rows(), 0);
  bwd_len.assign(sc.exit.rows(), 0);
  for (const LossSegment& seg : segs) {
    fwd_len[seg.entry] = std::max(fwd_len[seg.entry], seg.len);
    bwd_len[seg.exit] = std::max(bwd_len[seg.exit], seg.len);
  }
  const auto offsets = [](const std::vector<std::size_t>& len,
                          std::vector<std::size_t>& off) {
    off.resize(len.size());
    std::size_t total = 0;
    for (std::size_t i = 0; i < len.size(); ++i) {
      off[i] = total;
      total += len[i];
    }
    return total;
  };
  const std::size_t fwd_rows = offsets(fwd_len, fwd_off);
  fwd.reshape(fwd_rows, n);
  fwd_rf.resize(fwd_rows);
  fwd_renorms.resize(fwd_rows);
  bwd.reshape(offsets(bwd_len, bwd_off), n);
  g.assign(sc.stride(), 0.0);
}

namespace {

template <typename WidthT>
[[gnu::always_inline]] inline double segment_estep_body(
    const SegmentChain& sc, const std::vector<LossSegment>& segs,
    SegmentEStep& out, WidthT width) {
  const std::size_t n = sc.width();
  const std::size_t w = width;
  const double* __restrict loss = sc.loss.row(0);
  const double* __restrict loss_t = sc.loss_t.row(0);
  double* __restrict outer = out.outer.row(0);
  double* __restrict gacc = out.gamma.data();
  double* __restrict g = out.g.data();

  // Forward sweeps, renormalized as chain_forward; each row records the
  // factor applied at its step (the xi normalizer needs it) and the renorms
  // so far (the segment mass needs them).
  for (std::size_t e = 0; e < out.fwd_len.size(); ++e) {
    const std::size_t len = out.fwd_len[e];
    if (len == 0) continue;
    double* __restrict a = out.fwd.row(out.fwd_off[e]);
    double* __restrict rf = out.fwd_rf.data() + out.fwd_off[e];
    double* __restrict renorms = out.fwd_renorms.data() + out.fwd_off[e];
    const double* __restrict entry = sc.entry.row(e);
    double s_prev = 0.0;
    for (std::size_t j = 0; j < w; ++j) {
      a[j] = entry[j];
      s_prev += entry[j];
    }
    DCL_ENSURE_MSG(s_prev > 0.0, "segment forward: zero entry mass");
    rf[0] = 1.0;
    renorms[0] = 0.0;
    for (std::size_t t = 1; t < len; ++t) {
      const bool renorm = s_prev < kRenormThreshold;
      rf[t] = renorm ? kRenormFactor : 1.0;
      renorms[t] = renorms[t - 1] + (renorm ? 1.0 : 0.0);
      s_prev = chain_axpy(a + (t - 1) * w, rf[t], loss, n, a + t * w, width);
      DCL_ENSURE_MSG(s_prev > 0.0, "segment forward: zero probability mass");
    }
  }

  // Backward sweeps from each exit row, renormalized on their own mass: a
  // beta row's scale cancels from every quantity it enters below.
  for (std::size_t x = 0; x < out.bwd_len.size(); ++x) {
    const std::size_t len = out.bwd_len[x];
    if (len == 0) continue;
    double* __restrict b = out.bwd.row(out.bwd_off[x]);
    const double* __restrict exit = sc.exit.row(x);
    double s_prev = 0.0;
    for (std::size_t j = 0; j < w; ++j) {
      b[j] = exit[j];
      s_prev += exit[j];
    }
    DCL_ENSURE_MSG(s_prev > 0.0, "segment backward: zero exit mass");
    for (std::size_t k = 1; k < len; ++k) {
      const double rb = s_prev < kRenormThreshold ? kRenormFactor : 1.0;
      s_prev = chain_axpy(b + (k - 1) * w, rb, loss_t, n, b + k * w, width);
      DCL_ENSURE_MSG(s_prev > 0.0, "segment backward: zero probability mass");
    }
  }

  // Per segment: gamma_t = alpha_t .* beta_t over its measured mass, and
  // xi_{t-1}(i, j) = alpha_{t-1}(i) F(i, j) beta_t(j) * rf_t / gsum_t (rf_t
  // relates alpha_t to alpha_{t-1} . F), accumulated without the F factor.
  double ll = 0.0;
  for (const LossSegment& seg : segs) {
    const std::size_t len = seg.len;
    const double cnt = seg.count;
    const std::size_t f0 = out.fwd_off[seg.entry];
    const double* __restrict a = out.fwd.row(f0);
    const double* __restrict b_last = out.bwd.row(out.bwd_off[seg.exit]);
    for (std::size_t t = 0; t < len; ++t) {
      const double* __restrict at = a + t * w;
      const double* __restrict bt = b_last + (len - 1 - t) * w;
      const double gsum = chain_gamma(at, bt, g, width);
      DCL_ENSURE_MSG(gsum > 0.0, "segment: zero posterior mass");
      const double scale = cnt / gsum;
      chain_add(g, scale, gacc, width);
      if (t == 0) chain_add(g, scale, out.entry_gamma.row(seg.entry), width);
      if (t > 0)
        chain_outer(at - w, scale * out.fwd_rf[f0 + t], bt, n, outer, width);
      if (t + 1 == len) {
        chain_add(g, scale, out.exit_gamma.row(seg.exit), width);
        // The last beta row is the unscaled exit row, so only the forward
        // renorms separate gsum from the segment's mass.
        ll += cnt * (std::log(gsum) -
                     out.fwd_renorms[f0 + t] * std::log(kRenormFactor));
      }
    }
  }
  return ll;
}

}  // namespace

DCL_KERNEL_CLONES
double segment_estep(const SegmentChain& sc,
                     const std::vector<LossSegment>& segs, SegmentEStep& out) {
  // Besides the one-lane case, specialize four lanes: the fine grid
  // (M = 50) supports about M / 2 symbols under the discretizer's range
  // factor of 2, so its blocks are 25..32 wide.
  const std::size_t w = sc.stride();
  if (w == kLane) {
    return segment_estep_body(sc, segs, out,
                              std::integral_constant<std::size_t, kLane>{});
  }
  if (w == 4 * kLane) {
    return segment_estep_body(
        sc, segs, out, std::integral_constant<std::size_t, 4 * kLane>{});
  }
  return segment_estep_body(sc, segs, out, w);
}

void ScaledPowers::reset(const double* m, std::size_t n, std::size_t stride) {
  base_ = m;
  n_ = n;
  stride_ = stride;
  powers_.clear();
  tmp_.assign(stride, 0.0);
}

const ScaledPowers::Power& ScaledPowers::power(std::size_t k) {
  DCL_ENSURE_MSG(bound(), "power cache used before reset()");
  while (powers_.size() <= k) {
    Power p;
    p.m.assign(n_ * stride_, 0.0);
    double mx = 0.0;
    if (powers_.empty()) {
      for (std::size_t i = 0; i < n_; ++i)
        for (std::size_t j = 0; j < n_; ++j)
          mx = std::max(mx, base_[i * stride_ + j]);
      DCL_ENSURE_MSG(mx > 0.0, "power cache: all-zero transition block");
      const double inv = 1.0 / mx;
      p.log_norm = std::log(mx);
      for (std::size_t i = 0; i < n_; ++i)
        for (std::size_t j = 0; j < n_; ++j)
          p.m[i * stride_ + j] = base_[i * stride_ + j] * inv;
    } else {
      const Power& q = powers_.back();
      for (std::size_t i = 0; i < n_; ++i) {
        double* dst = p.m.data() + i * stride_;
        for (std::size_t k2 = 0; k2 < n_; ++k2) {
          const double a = q.m[i * stride_ + k2];
          const double* r = q.m.data() + k2 * stride_;
          for (std::size_t j = 0; j < stride_; ++j) dst[j] += a * r[j];
        }
        for (std::size_t j = 0; j < n_; ++j) mx = std::max(mx, dst[j]);
      }
      DCL_ENSURE_MSG(mx > 0.0, "power cache: vanished transition power");
      const double inv = 1.0 / mx;
      p.log_norm = 2.0 * q.log_norm + std::log(mx);
      for (std::size_t i = 0; i < n_ * stride_; ++i) p.m[i] *= inv;
    }
    powers_.push_back(std::move(p));
  }
  return powers_[k];
}

DCL_KERNEL_CLONES
double ScaledPowers::apply(std::size_t len, double* v) {
  double shed = 0.0;
  std::size_t k = 0;
  for (std::size_t rem = len; rem != 0; rem >>= 1, ++k) {
    if (!(rem & 1)) continue;
    const Power& p = power(k);
    double* t = tmp_.data();
    std::fill(t, t + stride_, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
      const double a = v[i];
      const double* r = p.m.data() + i * stride_;
      for (std::size_t j = 0; j < stride_; ++j) t[j] += a * r[j];
    }
    double s = 0.0;
    for (std::size_t j = 0; j < stride_; ++j) s += t[j];
    DCL_ENSURE_MSG(s > 0.0, "power cache: zero probability mass in fold");
    shed += std::log(s) + p.log_norm;
    const double inv = 1.0 / s;
    for (std::size_t j = 0; j < stride_; ++j) v[j] = t[j] * inv;
  }
  return shed;
}

DCL_KERNEL_CLONES
double log_likelihood(const FoldedMatrices& f, const RunLengthIndex& runs,
                      const double* pi, std::vector<ScaledPowers>& cache) {
  const std::size_t n = f.n();
  const std::size_t w = f.stride();
  DCL_ENSURE_MSG(!runs.runs.empty(), "likelihood kernel: empty sequence");
  if (cache.size() < f.cols()) cache.resize(f.cols());
  std::vector<char> bound(f.cols(), 0);

  util::AlignedVector<double> v(w, 0.0);
  util::AlignedVector<double> tmp(w, 0.0);
  LogAccumulator acc;
  double folded = 0.0;

  const auto step = [&](const double* blk) {
    double* t = tmp.data();
    {
      const double a = v[0];
      for (std::size_t j = 0; j < w; ++j) t[j] = a * blk[j];
    }
    for (std::size_t i = 1; i < n; ++i) {
      const double a = v[i];
      const double* r = blk + i * w;
      for (std::size_t j = 0; j < w; ++j) t[j] += a * r[j];
    }
    double s = 0.0;
    for (std::size_t j = 0; j < w; ++j) s += t[j];
    DCL_ENSURE_MSG(s > 0.0, "likelihood kernel: zero probability mass");
    const double inv = 1.0 / s;
    for (std::size_t j = 0; j < w; ++j) v[j] = t[j] * inv;
    acc.push(s);
  };

  const auto fold_or_step = [&](std::size_t c, std::size_t len) {
    if (len == 0) return;
    if (len >= kFoldMinRun) {
      if (!bound[c]) {
        cache[c].reset(f.block(c), n, w);
        bound[c] = 1;
      }
      folded += cache[c].apply(len, v.data());
    } else {
      const double* blk = f.block(c);
      for (std::size_t l = 0; l < len; ++l) step(blk);
    }
  };

  {
    const auto& r0 = runs.runs.front();
    const double* e0 = f.emission_row(static_cast<std::size_t>(r0.col));
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      v[j] = pi[j] * e0[j];
      s += v[j];
    }
    DCL_ENSURE_MSG(s > 0.0, "likelihood kernel: zero probability at t = 0");
    const double inv = 1.0 / s;
    for (std::size_t j = 0; j < n; ++j) v[j] *= inv;
    acc.push(s);
    fold_or_step(static_cast<std::size_t>(r0.col), r0.len - 1);
  }
  for (std::size_t ri = 1; ri < runs.runs.size(); ++ri) {
    const auto& r = runs.runs[ri];
    fold_or_step(static_cast<std::size_t>(r.col), r.len);
  }
  return acc.finish() + folded;
}

}  // namespace dcl::inference::fb
