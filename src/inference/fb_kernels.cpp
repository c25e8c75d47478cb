#include "inference/fb_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "util/error.h"

namespace dcl::inference::fb {

namespace {

// Shared axpy form of the segment sweeps: out[j] = sum_i (coef[i] * r) *
// blk[i * w + j] over `rows` block rows, returning the mass of the result.
// Forward sweeps use it with the loss block, backward sweeps with its
// transpose. The callers are templated on the row width so the common
// strides compile with a constant trip count: the inner loops then unroll
// into straight-line vector code with no per-step loop setup, which
// matters when each row is only one register wide. The bodies are
// force-inlined into the exported (multiversioned) functions, so each ISA
// clone carries its own specialized copies.
template <typename WidthT>
[[gnu::always_inline]] inline double axpy_rows(
    const double* __restrict coef, double r, const double* __restrict blk,
    std::size_t rows, double* __restrict out, WidthT width) {
  const std::size_t w = width;
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

// gamma = alpha .* beta over one padded row; returns its mass.
template <typename WidthT>
[[gnu::always_inline]] inline double gamma_row(const double* __restrict a,
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

// out(i, j) += (a[i] * nf) * bn[j]: an xi numerator without the block
// factor. The segment expansion multiplies the summed outer products by
// the (per-iteration constant) loss block once, instead of once per step.
// Two rows per pass share the bn loads and the row-loop bookkeeping, which
// weighs on rows only a few vectors wide; each element's update is the
// same either way.
template <typename WidthT>
[[gnu::always_inline]] inline void outer_add(const double* __restrict a,
                                             double nf,
                                             const double* __restrict bn,
                                             std::size_t rows,
                                             double* __restrict xr0,
                                             WidthT width) {
  const std::size_t w = width;
  std::size_t i = 0;
  for (; i + 2 <= rows; i += 2) {
    double* __restrict x0 = xr0 + i * w;
    double* __restrict x1 = x0 + w;
    const double a0 = a[i] * nf;
    const double a1 = a[i + 1] * nf;
    for (std::size_t j = 0; j < w; ++j) {
      x0[j] += a0 * bn[j];
      x1[j] += a1 * bn[j];
    }
  }
  if (i < rows) {
    double* __restrict xr = xr0 + i * w;
    const double ai = a[i] * nf;
    for (std::size_t j = 0; j < w; ++j) xr[j] += ai * bn[j];
  }
}

// out = in over one padded row; returns its mass. Row-wise (not over a
// boundary's whole seed block) so the reduction's vectorized grouping —
// this file may reassociate sums — follows the specialized width.
template <typename WidthT>
[[gnu::always_inline]] inline double copy_row(const double* __restrict in,
                                              double* __restrict out,
                                              WidthT width) {
  const std::size_t w = width;
  double s = 0.0;
  for (std::size_t j = 0; j < w; ++j) {
    out[j] = in[j];
    s += in[j];
  }
  return s;
}

// out = sum_k c[k * cs] * row k of `rows` (count rows, one padded width).
template <typename WidthT>
[[gnu::always_inline]] inline void mix_rows(const double* __restrict rows,
                                            std::size_t count,
                                            const double* __restrict c,
                                            std::size_t cs,
                                            double* __restrict out,
                                            WidthT width) {
  const std::size_t w = width;
  for (std::size_t j = 0; j < w; ++j) out[j] = c[0] * rows[j];
  for (std::size_t k = 1; k < count; ++k) {
    const double ck = c[k * cs];
    const double* __restrict row = rows + k * w;
    for (std::size_t j = 0; j < w; ++j) out[j] += ck * row[j];
  }
}

// out += scale * g over one padded row.
template <typename WidthT>
[[gnu::always_inline]] inline void add_scaled(const double* __restrict g,
                                              double scale,
                                              double* __restrict out,
                                              WidthT width) {
  const std::size_t w = width;
  for (std::size_t j = 0; j < w; ++j) out[j] += g[j] * scale;
}

}  // namespace

void SegmentChain::init(std::size_t width,
                        const std::vector<std::size_t>& entry_seeds,
                        const std::vector<std::size_t>& exit_seeds) {
  DCL_ENSURE_MSG(width > 0, "segment chain: no supported symbol");
  const auto offsets = [](const std::vector<std::size_t>& seeds,
                          std::vector<std::size_t>& begin) {
    begin.assign(seeds.size() + 1, 0);
    for (std::size_t b = 0; b < seeds.size(); ++b)
      begin[b + 1] = begin[b] + seeds[b];
    return begin.back();
  };
  loss.reshape(width, width);
  loss_t.reshape(width, width);
  entry.reshape(offsets(entry_seeds, entry_begin), width);
  exit.reshape(offsets(exit_seeds, exit_begin), width);
}

void SegmentEStep::prepare(const SegmentChain& sc,
                           const std::vector<LossSegment>& segs) {
  const std::size_t n = sc.width();
  const std::size_t w = sc.stride();
  gamma.assign(w, 0.0);
  outer.ensure(n, n);
  entry_gamma.ensure(sc.entry.rows(), n);
  exit_gamma.ensure(sc.exit.rows(), n);
  fwd_len.assign(sc.entries(), 0);
  bwd_len.assign(sc.exits(), 0);
  for (const LossSegment& seg : segs) {
    fwd_len[seg.entry] = std::max(fwd_len[seg.entry], seg.len);
    bwd_len[seg.exit] = std::max(bwd_len[seg.exit], seg.len);
  }
  std::size_t exit_seeds = 1;
  if (!sc.single_seeds()) {
    bridge_off.assign(segs.size() + 1, 0);
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const LossSegment& seg = segs[i];
      bridge_off[i + 1] = bridge_off[i] + sc.entry_seeds(seg.entry) *
                                              sc.exit_seeds(seg.exit);
      exit_seeds = std::max(exit_seeds, sc.exit_seeds(seg.exit));
    }
    bridge.resize(bridge_off.back());
    bridge_renorms.resize(segs.size());
    weight.resize(bridge_off.back());
  }

  // Offsets of each boundary's first row (per_seed) or step in the sweeps.
  const auto offsets = [](const std::vector<std::size_t>& len,
                          const std::vector<std::size_t>& begin,
                          bool per_seed, std::vector<std::size_t>& off) {
    off.resize(len.size());
    std::size_t total = 0;
    for (std::size_t b = 0; b < len.size(); ++b) {
      off[b] = total;
      total += len[b] * (per_seed ? begin[b + 1] - begin[b] : 1);
    }
    return total;
  };
  fwd.reshape(offsets(fwd_len, sc.entry_begin, true, fwd_row), n);
  const std::size_t steps = offsets(fwd_len, sc.entry_begin, false, fwd_step);
  fwd_rf.resize(steps);
  fwd_renorms.resize(steps);
  bwd.reshape(offsets(bwd_len, sc.exit_begin, true, bwd_row), n);
  g.assign(w, 0.0);
  cur.assign(exit_seeds * w, 0.0);
  prev.assign(exit_seeds * w, 0.0);
  split.assign(w, 0.0);
}

namespace {

template <typename WidthT>
[[gnu::always_inline]] inline void segment_bridges_body(
    const SegmentChain& sc, const std::vector<LossSegment>& segs,
    SegmentEStep& out, WidthT width) {
  const std::size_t n = sc.width();
  const std::size_t w = width;
  const double* __restrict loss = sc.loss.row(0);

  // Forward sweeps, one boundary's seeds in lockstep: one renorm decision
  // per step, from their summed mass, keeps all of a step's rows in one
  // frame — the bridges and the expansion's weighted row sums rely on it.
  // Each step records the factor applied at it (the xi normalizer needs
  // it) and the renorms so far (a bridge's exponent).
  for (std::size_t e = 0; e < sc.entries(); ++e) {
    const std::size_t len = out.fwd_len[e];
    if (len == 0) continue;
    const std::size_t rw = sc.entry_seeds(e) * w;  // one step's rows
    double* __restrict a = out.fwd.row(out.fwd_row[e]);
    double* __restrict rf = out.fwd_rf.data() + out.fwd_step[e];
    double* __restrict renorms = out.fwd_renorms.data() + out.fwd_step[e];
    const double* __restrict entry = sc.entry.row(sc.entry_begin[e]);
    double s_prev = 0.0;
    for (std::size_t h = 0; h < rw; h += w)
      s_prev += copy_row(entry + h, a + h, width);
    DCL_ENSURE_MSG(s_prev > 0.0, "segment forward: zero entry mass");
    rf[0] = 1.0;
    renorms[0] = 0.0;
    for (std::size_t t = 1; t < len; ++t) {
      const bool renorm = s_prev < kRenormThreshold;
      rf[t] = renorm ? kRenormFactor : 1.0;
      renorms[t] = renorms[t - 1] + (renorm ? 1.0 : 0.0);
      double s = 0.0;
      for (std::size_t h = 0; h < rw; h += w)
        s += axpy_rows(a + (t - 1) * rw + h, rf[t], loss, n, a + t * rw + h,
                       width);
      DCL_ENSURE_MSG(s > 0.0, "segment forward: zero probability mass");
      s_prev = s;
    }
  }

  // Bridges: each seed's last forward row against each exit row. A
  // segment's last beta row is its unscaled exit row, so only the forward
  // renorms separate a bridge from its true value.
  if (sc.single_seeds()) return;
  double* __restrict g = out.g.data();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const LossSegment& seg = segs[i];
    const std::size_t ls = sc.entry_seeds(seg.entry);
    const std::size_t rs = sc.exit_seeds(seg.exit);
    if (ls == 1 && rs == 1) continue;
    const double* last =
        out.fwd.row(out.fwd_row[seg.entry] + (seg.len - 1) * ls);
    const double* exit = sc.exit.row(sc.exit_begin[seg.exit]);
    double* b = out.bridge.data() + out.bridge_off[i];
    for (std::size_t h = 0; h < ls; ++h)
      for (std::size_t k = 0; k < rs; ++k)
        b[h * rs + k] = gamma_row(last + h * w, exit + k * w, g, width);
    out.bridge_renorms[i] =
        out.fwd_renorms[out.fwd_step[seg.entry] + seg.len - 1];
  }
}

template <typename WidthT>
[[gnu::always_inline]] inline double segment_expand_body(
    const SegmentChain& sc, const std::vector<LossSegment>& segs,
    SegmentEStep& out, WidthT width) {
  const std::size_t n = sc.width();
  const std::size_t w = width;
  const double* __restrict loss_t = sc.loss_t.row(0);
  double* __restrict outer = out.outer.row(0);
  double* __restrict gacc = out.gamma.data();
  double* __restrict g = out.g.data();
  double* __restrict split = out.split.data();

  // Backward sweeps from each exit boundary, seeds in lockstep like the
  // forward ones: a step's beta rows share one scale, which cancels from
  // every quantity they enter below.
  for (std::size_t x = 0; x < sc.exits(); ++x) {
    const std::size_t len = out.bwd_len[x];
    if (len == 0) continue;
    const std::size_t rw = sc.exit_seeds(x) * w;
    double* __restrict b = out.bwd.row(out.bwd_row[x]);
    const double* __restrict exit = sc.exit.row(sc.exit_begin[x]);
    double s_prev = 0.0;
    for (std::size_t h = 0; h < rw; h += w)
      s_prev += copy_row(exit + h, b + h, width);
    DCL_ENSURE_MSG(s_prev > 0.0, "segment backward: zero exit mass");
    for (std::size_t k = 1; k < len; ++k) {
      const double rb = s_prev < kRenormThreshold ? kRenormFactor : 1.0;
      double s = 0.0;
      for (std::size_t h = 0; h < rw; h += w)
        s += axpy_rows(b + (k - 1) * rw + h, rb, loss_t, n, b + k * rw + h,
                       width);
      DCL_ENSURE_MSG(s > 0.0, "segment backward: zero probability mass");
      s_prev = s;
    }
  }

  // Per segment: gamma_t = alpha_t .* beta_t over its measured mass, and
  // xi_{t-1}(i, j) = alpha_{t-1}(i) F(i, j) beta_t(j) * rf_t / gsum_t (rf_t
  // relates alpha_t to alpha_{t-1} . F), accumulated without the F factor.
  // This loop takes the segments with one seed on each side (every segment
  // when N = 1): a single boundary pair, whose weight cancels. The
  // weighted ones follow in a loop of their own, which keeps this hot loop
  // free of their register pressure.
  const bool all_single = sc.single_seeds();
  double ll = 0.0;
  for (const LossSegment& seg : segs) {
    if (!all_single &&
        (sc.entry_seeds(seg.entry) != 1 || sc.exit_seeds(seg.exit) != 1))
      continue;
    const std::size_t len = seg.len;
    const double cnt = seg.count;
    const std::size_t f0 = out.fwd_step[seg.entry];
    const double* __restrict a = out.fwd.row(out.fwd_row[seg.entry]);
    const double* __restrict b_last = out.bwd.row(out.bwd_row[seg.exit]);
    for (std::size_t t = 0; t < len; ++t) {
      const double* __restrict at = a + t * w;
      const double* __restrict bt = b_last + (len - 1 - t) * w;
      const double gsum = gamma_row(at, bt, g, width);
      DCL_ENSURE_MSG(gsum > 0.0, "segment: zero posterior mass");
      const double scale = cnt / gsum;
      add_scaled(g, scale, gacc, width);
      if (t == 0)
        add_scaled(g, scale, out.entry_gamma.row(sc.entry_begin[seg.entry]),
                   width);
      if (t > 0)
        outer_add(at - w, scale * out.fwd_rf[f0 + t], bt, n, outer, width);
      if (t + 1 == len) {
        add_scaled(g, scale, out.exit_gamma.row(sc.exit_begin[seg.exit]),
                   width);
        // The last beta row is the unscaled exit row, so only the forward
        // renorms separate gsum from the segment's mass.
        ll += cnt * (std::log(gsum) -
                     out.fwd_renorms[f0 + t] * std::log(kRenormFactor));
      }
    }
  }

  if (all_single) return ll;
  // With several seeds on a side, boundary pair (h, h') enters with its
  // weight V(h, h'): gamma_t is proportional to
  //   g_t = sum_h' cur_h' .* beta_h',   cur_h' = sum_h V(h, h') alpha_h,
  // scaled to the segment's count, xi_{t-1} to sum_h' prev_h' (x) beta_h'
  // on the same scale, and the split of g_t by left seed at the first
  // step (by right seed at the last) is the entry (exit) xi.
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const LossSegment& seg = segs[i];
    const std::size_t ls = sc.entry_seeds(seg.entry);
    const std::size_t rs = sc.exit_seeds(seg.exit);
    if (ls == 1 && rs == 1) continue;
    const std::size_t len = seg.len;
    const double cnt = seg.count;
    const std::size_t f0 = out.fwd_step[seg.entry];
    const double* a = out.fwd.row(out.fwd_row[seg.entry]);
    const double* b_last = out.bwd.row(out.bwd_row[seg.exit]);
    double* entry_rows = out.entry_gamma.row(sc.entry_begin[seg.entry]);
    double* exit_rows = out.exit_gamma.row(sc.exit_begin[seg.exit]);
    const double* v = out.weight.data() + out.bridge_off[i];
    double* cur = out.cur.data();
    double* prev = out.prev.data();
    for (std::size_t t = 0; t < len; ++t) {
      const double* at = a + t * ls * w;
      const double* bt = b_last + (len - 1 - t) * rs * w;
      for (std::size_t k = 0; k < rs; ++k)
        mix_rows(at, ls, v + k, rs, cur + k * w, width);
      for (std::size_t j = 0; j < w; ++j) g[j] = cur[j] * bt[j];
      for (std::size_t k = 1; k < rs; ++k) {
        const double* __restrict c = cur + k * w;
        const double* __restrict bk = bt + k * w;
        for (std::size_t j = 0; j < w; ++j) g[j] += c[j] * bk[j];
      }
      double gsum = 0.0;
      for (std::size_t j = 0; j < w; ++j) gsum += g[j];
      DCL_ENSURE_MSG(gsum > 0.0, "segment: zero posterior mass");
      const double scale = cnt / gsum;
      add_scaled(g, scale, gacc, width);
      if (t == 0) {
        for (std::size_t h = 0; h < ls; ++h) {
          mix_rows(bt, rs, v + h * rs, 1, split, width);
          for (std::size_t j = 0; j < w; ++j) split[j] *= at[h * w + j];
          add_scaled(split, scale, entry_rows + h * w, width);
        }
      }
      if (t > 0) {
        const double nf = scale * out.fwd_rf[f0 + t];
        for (std::size_t k = 0; k < rs; ++k)
          outer_add(prev + k * w, nf, bt + k * w, n, outer, width);
      }
      if (t + 1 == len) {
        for (std::size_t k = 0; k < rs; ++k) {
          const double* __restrict c = cur + k * w;
          const double* __restrict bk = bt + k * w;
          for (std::size_t j = 0; j < w; ++j) split[j] = c[j] * bk[j];
          add_scaled(split, scale, exit_rows + k * w, width);
        }
      }
      std::swap(cur, prev);
    }
  }
  return ll;
}

}  // namespace

// Besides the one-lane case, specialize four lanes: the fine grid (M = 50)
// supports about M / 2 symbols under the discretizer's range factor of 2,
// so its N = 1 blocks are 25..32 wide. (Other specializations would
// regroup the reassociated sums and change N = 1 results in the last bit.)
#define DCL_SEGMENT_DISPATCH(body, sc, segs, out)                    \
  do {                                                               \
    const std::size_t w_ = (sc).stride();                            \
    if (w_ == kLane)                                                 \
      return body(sc, segs, out,                                     \
                  std::integral_constant<std::size_t, kLane>{});     \
    if (w_ == 4 * kLane)                                             \
      return body(sc, segs, out,                                     \
                  std::integral_constant<std::size_t, 4 * kLane>{}); \
    return body(sc, segs, out, w_);                                  \
  } while (false)

DCL_KERNEL_CLONES
void segment_bridges(const SegmentChain& sc,
                     const std::vector<LossSegment>& segs, SegmentEStep& out) {
  DCL_SEGMENT_DISPATCH(segment_bridges_body, sc, segs, out);
}

DCL_KERNEL_CLONES
double segment_expand(const SegmentChain& sc,
                      const std::vector<LossSegment>& segs,
                      SegmentEStep& out) {
  DCL_SEGMENT_DISPATCH(segment_expand_body, sc, segs, out);
}

#undef DCL_SEGMENT_DISPATCH

void SkeletonSweep::prepare(std::size_t blocks, std::size_t n) {
  // Two banks: the forward chain's xi and the backward chain's accumulate
  // apart, so neither chain's updates wait on the other's stores; the
  // sweep folds the second bank into the first at the end.
  block_count = blocks;
  outer.assign(2 * blocks * n * n, 0.0);
  first.assign(n, 0.0);
  last.assign(n, 0.0);
  scratch.assign(4 * n, 0.0);
}

namespace {

// True when a row's (positive) mass lies outside [2^-64, 2^64): below,
// it would drift toward underflow; above, toward overflow — a bridge is
// scaled so its largest entry lies in [0.5, 1), so its rows can sum to
// nearly N and a run of bridged steps can grow the mass without bound.
// One unsigned compare on the biased exponent keeps it one branch.
[[gnu::always_inline]] inline bool mass_out_of_range(double mass) {
  constexpr std::uint64_t kLowExponent = 1023 - 64;  // biased, of 2^-64
  return (std::bit_cast<std::uint64_t>(mass) >> 52) - kLowExponent >= 128;
}

// Rescales a row whose mass left [2^-64, 2^64) by the power of two that
// brings the mass back to [1, 2); returns the exponent (negative when the
// mass had grown). Rare, and applied after the step that measured the
// mass, so the common path keeps no renorm factor on the loop-carried
// chain.
[[gnu::always_inline]] inline int renormalize(double* row, std::size_t n,
                                              double& mass) {
  const int e = -std::ilogb(mass);
  const double r = std::ldexp(1.0, e);
  for (std::size_t j = 0; j < n; ++j) row[j] *= r;
  mass *= r;
  return e;
}

// The sweep body is templated on N for the same reason as the segment
// bodies on their width: N = 2..4 compile to straight-line code, with the
// carried state rows in registers (the runtime-N fallback keeps them in
// memory).
// Fixed<NT>::cap sizes the register rows (1, unused, at runtime N).
template <typename NT>
struct Fixed {
  static constexpr bool value = false;
  static constexpr std::size_t cap = 1;
};
template <std::size_t N>
struct Fixed<std::integral_constant<std::size_t, N>> {
  static constexpr bool value = true;
  static constexpr std::size_t cap = N;
};

// What one chain step does besides advancing its row: store it for the
// other chain, nothing (the one row neither chain reads), or accumulate
// the xi of the step against the other chain's stored row.
using Store = std::integral_constant<int, 0>;
using Plain = std::integral_constant<int, 1>;
using Xi = std::integral_constant<int, 2>;

// Sizes the sweep's stored rows (a no-op after a fit's first iteration).
// Kept out of line: whether the compiler inlines the vector resize into a
// sweep body depends on the size of this whole file, and inlined it shifts
// the body's register allocation; in alternating runs on an x86-64 host
// the N = 2..4 sweeps ran 2-7% faster with it out of line.
[[gnu::noinline]] void size_rows(util::AlignedVector<double>& rows,
                                 std::size_t len) {
  rows.resize(len);
}

template <typename NT>
[[gnu::always_inline]] inline double skeleton_sweep_body(
    const double* __restrict blocks, const std::vector<int>& steps,
    const double* v0, const double* tail, SkeletonSweep& out, NT nt) {
  constexpr bool kFixed = Fixed<NT>::value;
  constexpr std::size_t kCap = Fixed<NT>::cap;
  const std::size_t n = nt;
  const std::size_t nn = n * n;
  const std::size_t k_len = steps.size();
  DCL_ENSURE_MSG(k_len > 0, "skeleton sweep: no received probe");
  size_rows(out.rows, k_len * n);
  out.renorm_total = 0;
  double* __restrict rows = out.rows.data();
  const int* __restrict step = steps.data();
  double* __restrict outer_f = out.outer.data();
  double* __restrict outer_b = outer_f + out.block_count * nn;
  double* scratch = out.scratch.data();
  double fv_loc[kCap], fo_loc[kCap], bu_loc[kCap], bx_loc[kCap];
  double* __restrict fv = kFixed ? fv_loc : scratch;          // alpha_{k-1}
  double* __restrict fo = kFixed ? fo_loc : scratch + n;      // alpha_k
  double* __restrict bu = kFixed ? bu_loc : scratch + 2 * n;  // beta_{k+1}
  double* __restrict bx = kFixed ? bx_loc : scratch + 3 * n;  // beta_k

  double s = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    fv[j] = v0[j];
    s += v0[j];
  }
  DCL_ENSURE_MSG(s > 0.0, "skeleton sweep: zero probability at k = 0");
  if (mass_out_of_range(s)) out.renorm_total += renormalize(fv, n, s);
  for (std::size_t j = 0; j < n; ++j) {
    rows[j] = fv[j];
    bu[j] = tail == nullptr ? 1.0 : tail[j];
  }
  if (k_len > 1)
    for (std::size_t j = 0; j < n; ++j) rows[(k_len - 1) * n + j] = bu[j];

  // Forward step k: alpha_k = alpha_{k-1} . B, renormalized after the step
  // (the factor relating alpha_k to alpha_{k-1} . B is counted at k). Its
  // xi is that of the step k - 1 -> k against the stored beta_k.
  const auto forward = [&](std::size_t k, auto mode)
      __attribute__((always_inline)) {
    const double* __restrict blk =
        blocks + static_cast<std::size_t>(step[k]) * nn;
    double mass = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      double x = fv[0] * blk[j];
      for (std::size_t i = 1; i < n; ++i) x += fv[i] * blk[i * n + j];
      fo[j] = x;
      mass += x;
    }
    DCL_ENSURE_MSG(mass > 0.0, "skeleton sweep: zero probability mass");
    if constexpr (decltype(mode)::value == Xi::value) {
      const double* __restrict b = rows + k * n;
      double pair = 0.0;
      for (std::size_t j = 0; j < n; ++j) pair += fo[j] * b[j];
      DCL_ENSURE_MSG(pair > 0.0, "skeleton sweep: zero posterior mass");
      const double nf = 1.0 / pair;
      double* __restrict xo = outer_f + static_cast<std::size_t>(step[k]) * nn;
      for (std::size_t i = 0; i < n; ++i) {
        const double ai = fv[i] * nf;
        for (std::size_t j = 0; j < n; ++j) xo[i * n + j] += ai * b[j];
      }
    }
    if (mass_out_of_range(mass))
      out.renorm_total += renormalize(fo, n, mass);
    if constexpr (decltype(mode)::value == Store::value)
      for (std::size_t j = 0; j < n; ++j) rows[k * n + j] = fo[j];
    for (std::size_t j = 0; j < n; ++j) fv[j] = fo[j];
    s = mass;
  };
  // Backward step k: beta_k = B . beta_{k+1}, renormalized after the step
  // by its own mass. Its xi is that of the step k -> k + 1 against the
  // stored alpha_k.
  const auto backward = [&](std::size_t k, auto mode)
      __attribute__((always_inline)) {
    const auto b = static_cast<std::size_t>(step[k + 1]);
    const double* __restrict blk = blocks + b * nn;
    double mass = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* __restrict row = blk + i * n;
      double x = row[0] * bu[0];
      for (std::size_t j = 1; j < n; ++j) x += row[j] * bu[j];
      bx[i] = x;
      mass += x;
    }
    DCL_ENSURE_MSG(mass > 0.0, "skeleton sweep: zero probability mass");
    if constexpr (decltype(mode)::value == Xi::value) {
      const double* __restrict a = rows + k * n;
      double pair = 0.0;
      for (std::size_t i = 0; i < n; ++i) pair += a[i] * bx[i];
      DCL_ENSURE_MSG(pair > 0.0, "skeleton sweep: zero posterior mass");
      const double nf = 1.0 / pair;
      double* __restrict xo = outer_b + b * nn;
      for (std::size_t i = 0; i < n; ++i) {
        const double ai = a[i] * nf;
        for (std::size_t j = 0; j < n; ++j) xo[i * n + j] += ai * bu[j];
      }
    }
    if (mass_out_of_range(mass)) renormalize(bx, n, mass);
    if constexpr (decltype(mode)::value == Store::value)
      for (std::size_t i = 0; i < n; ++i) rows[k * n + i] = bx[i];
    for (std::size_t i = 0; i < n; ++i) bu[i] = bx[i];
  };

  // Loop step i advances the forward chain to alpha_i and the backward
  // chain to beta_{K-1-i}. The backward chain takes the xi of the steps
  // k -> k + 1 with k <= t0, the forward chain the rest, so alpha is
  // stored at probes 0..t0 and beta at t0 + 2..K - 1: each chain reads a
  // row the other stored in an earlier loop step.
  if (k_len > 1) {
    const std::size_t t0 = (k_len - 2) / 2;
    const std::size_t store_end = k_len >= t0 + 3 ? k_len - 3 - t0 : 0;
    const std::size_t xi_begin = std::max(t0 + 2, k_len - 1 - t0);
    std::size_t i = 1;
    for (; i <= store_end; ++i) {
      forward(i, Store{});
      backward(k_len - 1 - i, Store{});
    }
    for (; i < xi_begin && i < k_len; ++i) {
      if (i <= t0)
        forward(i, Store{});
      else if (i == t0 + 1)
        forward(i, Plain{});
      else
        forward(i, Xi{});
      const std::size_t k = k_len - 1 - i;
      if (k >= t0 + 2)
        backward(k, Store{});
      else if (k == t0 + 1)
        backward(k, Plain{});
      else
        backward(k, Xi{});
    }
    for (; i < k_len; ++i) {
      forward(i, Xi{});
      backward(k_len - 1 - i, Xi{});
    }
  }
  const std::size_t bank = out.block_count * nn;
  for (std::size_t i = 0; i < bank; ++i) outer_f[i] += outer_b[i];

  // The end rows: alpha_{K-1} against beta_{K-1} (the tail column or
  // ones), beta_0 against the stored alpha_0.
  double gsum = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    gsum += fv[j] * (tail == nullptr ? 1.0 : tail[j]);
  DCL_ENSURE_MSG(gsum > 0.0, "skeleton sweep: zero probability at the end");
  double inv = 1.0 / gsum;
  for (std::size_t j = 0; j < n; ++j) out.last[j] = fv[j] * inv;
  double gsum0 = 0.0;
  for (std::size_t j = 0; j < n; ++j) gsum0 += rows[j] * bu[j];
  DCL_ENSURE_MSG(gsum0 > 0.0, "skeleton sweep: zero posterior mass");
  inv = 1.0 / gsum0;
  for (std::size_t j = 0; j < n; ++j) out.first[j] = bu[j] * inv;
  return std::log(tail == nullptr ? s : gsum);
}

}  // namespace

#define DCL_SKELETON_DISPATCH(body, n, ...)                                  \
  do {                                                                       \
    if ((n) == 2)                                                            \
      return body(__VA_ARGS__, std::integral_constant<std::size_t, 2>{});    \
    if ((n) == 3)                                                            \
      return body(__VA_ARGS__, std::integral_constant<std::size_t, 3>{});    \
    if ((n) == 4)                                                            \
      return body(__VA_ARGS__, std::integral_constant<std::size_t, 4>{});    \
    return body(__VA_ARGS__, n);                                             \
  } while (false)

DCL_KERNEL_CLONES
double skeleton_sweep(const double* blocks, std::size_t n,
                      const std::vector<int>& steps, const double* v0,
                      const double* tail, SkeletonSweep& out) {
  DCL_SKELETON_DISPATCH(skeleton_sweep_body, n, blocks, steps, v0, tail, out);
}

#undef DCL_SKELETON_DISPATCH

}  // namespace dcl::inference::fb
