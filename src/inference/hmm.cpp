#include "inference/hmm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "inference/discretizer.h"
#include "inference/em_internal.h"
#include "inference/fb_kernels.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace dcl::inference {

namespace {
constexpr double kFloor = 1e-12;
constexpr int kLoss = Discretizer::kLossSymbol;

// 0-based symbol index of an observation, or -1 for a loss.
inline int sym(int obs) { return obs == kLoss ? -1 : obs - 1; }
}  // namespace

struct Hmm::Trellis {
  util::Matrix alpha;  // T x N, scaled
  util::Matrix beta;   // T x N, scaled
  std::vector<double> scale;
  std::vector<char> support;  // observed-symbol mask for loss attribution

  void resize(std::size_t t, std::size_t n) {
    alpha = util::Matrix(t, n);
    beta = util::Matrix(t, n);
    scale.assign(t, 0.0);
  }

  // Reuse-friendly variant for the cached path: keeps the existing storage
  // when the shape already matches (every cell is overwritten per pass).
  void ensure(std::size_t t, std::size_t n) {
    if (alpha.rows() != t || alpha.cols() != n) {
      alpha = util::Matrix(t, n);
      beta = util::Matrix(t, n);
    }
    if (scale.size() != t) scale.resize(t);
  }
};

// Immutable per-fit inputs, computed once and shared (read-only) by every
// restart worker.
struct Hmm::FitContext {
  std::vector<char> support;
  // Emission-table column per step: the 0-based symbol, or M for a loss.
  std::vector<int> col;
};

// Everything a restart mutates besides the model parameters themselves.
// Owned by the restart worker; sized once, then reused across iterations so
// the inner loops allocate nothing.
struct Hmm::Workspace {
  Trellis w;
  util::Matrix emit;  // N x (M+1); column M = loss emission
  // Hoisted em_step accumulators.
  std::vector<double> new_pi, gamma_sum, c_loss, c_total, gamma;
  util::Matrix a_num, b_num;
  // Parameters entering the most recent em_step — the values the restart
  // installs at the end, since the step's reported likelihood is theirs.
  std::vector<double> old_pi, old_c;
  util::Matrix old_a, old_b;
  // Vectorized-engine state (EmOptions::kernels): folded blocks, padded
  // forward trellis, fused E-step accumulators, the per-iteration loss
  // posterior split W(h,d) = B[h][d] C[d] / loss_emit(h), and the retained
  // loss-column numerator that doubles as the virtual-delay posterior.
  fb::FoldedMatrices folded;
  fb::Trellis ktr;
  fb::EStep acc;
  util::Matrix wsplit;
  std::vector<double> kpmf;

  void prepare(std::size_t n, std::size_t m) {
    if (emit.rows() != n || emit.cols() != m + 1)
      emit = util::Matrix(n, m + 1);
    if (a_num.rows() != n || a_num.cols() != n) a_num = util::Matrix(n, n);
    if (b_num.rows() != n || b_num.cols() != m) b_num = util::Matrix(n, m);
    if (wsplit.rows() != n || wsplit.cols() != m) wsplit = util::Matrix(n, m);
    gamma.resize(n);
  }
};

Hmm::Hmm(int hidden_states, int symbols)
    : n_(hidden_states),
      m_(symbols),
      pi_(static_cast<std::size_t>(hidden_states),
          1.0 / static_cast<double>(hidden_states)),
      a_(static_cast<std::size_t>(hidden_states),
         static_cast<std::size_t>(hidden_states),
         1.0 / static_cast<double>(hidden_states)),
      b_(static_cast<std::size_t>(hidden_states),
         static_cast<std::size_t>(symbols),
         1.0 / static_cast<double>(symbols)),
      c_(static_cast<std::size_t>(symbols), 0.1) {
  DCL_ENSURE(hidden_states >= 1 && symbols >= 1);
}

void Hmm::set_parameters(std::vector<double> pi, util::Matrix a,
                         util::Matrix b, std::vector<double> c) {
  DCL_ENSURE(pi.size() == static_cast<std::size_t>(n_));
  DCL_ENSURE(a.rows() == static_cast<std::size_t>(n_) &&
             a.cols() == static_cast<std::size_t>(n_));
  DCL_ENSURE(b.rows() == static_cast<std::size_t>(n_) &&
             b.cols() == static_cast<std::size_t>(m_));
  DCL_ENSURE(c.size() == static_cast<std::size_t>(m_));
  pi_ = std::move(pi);
  a_ = std::move(a);
  b_ = std::move(b);
  c_ = std::move(c);
  clamp_parameters();
}

void Hmm::random_init(util::Rng& rng, double observed_loss_rate) {
  for (int h = 0; h < n_; ++h) {
    auto row = rng.simplex(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) a_(h, j) = row[static_cast<std::size_t>(j)];
    auto em = rng.simplex(static_cast<std::size_t>(m_));
    for (int d = 0; d < m_; ++d) b_(h, d) = em[static_cast<std::size_t>(d)];
  }
  pi_.assign(static_cast<std::size_t>(n_), 1.0 / static_cast<double>(n_));
  // Start the per-symbol loss probabilities near the empirical loss rate
  // with random jitter so EM can break the symmetry between symbols.
  const double base = std::clamp(observed_loss_rate, 0.005, 0.5);
  for (int d = 0; d < m_; ++d)
    c_[static_cast<std::size_t>(d)] = base * rng.uniform(0.25, 4.0);
  clamp_parameters();
}

void Hmm::clamp_parameters() {
  for (auto& x : pi_) x = std::max(x, kFloor);
  util::normalize(pi_);
  for (int h = 0; h < n_; ++h) {
    for (int j = 0; j < n_; ++j) a_(h, j) = std::max(a_(h, j), kFloor);
    for (int d = 0; d < m_; ++d) b_(h, d) = std::max(b_(h, d), kFloor);
  }
  a_.normalize_rows();
  b_.normalize_rows();
  for (auto& x : c_) x = std::clamp(x, kFloor, 1.0 - 1e-9);
}

std::vector<char> Hmm::observed_support(const std::vector<int>& seq) const {
  std::vector<char> support(static_cast<std::size_t>(m_), 0);
  bool any = false;
  for (int o : seq) {
    if (o != kLoss) {
      support[static_cast<std::size_t>(sym(o))] = 1;
      any = true;
    }
  }
  if (!any) support.assign(static_cast<std::size_t>(m_), 1);
  return support;
}

Hmm::FitContext Hmm::make_context(const std::vector<int>& seq) const {
  FitContext ctx;
  ctx.support = observed_support(seq);
  ctx.col.resize(seq.size());
  for (std::size_t t = 0; t < seq.size(); ++t) {
    const int d = sym(seq[t]);
    ctx.col[t] = d >= 0 ? d : m_;
  }
  return ctx;
}

double Hmm::emission(int h, int obs, const std::vector<char>& support) const {
  const int d = sym(obs);
  if (d < 0) return loss_emission(h, support);
  return b_(h, d) * (1.0 - c_[static_cast<std::size_t>(d)]);
}

double Hmm::loss_emission(int h, const std::vector<char>& support) const {
  double e = 0.0;
  for (int d = 0; d < m_; ++d)
    if (support[static_cast<std::size_t>(d)])
      e += b_(h, d) * c_[static_cast<std::size_t>(d)];
  return e;
}

void Hmm::build_emission_table(const std::vector<char>& support,
                               util::Matrix& emit) const {
  // Same expressions and (for the loss column) the same d-ascending
  // summation order as emission()/loss_emission(), so table entries equal
  // the per-call values.
  for (int h = 0; h < n_; ++h) {
    double loss = 0.0;
    for (int d = 0; d < m_; ++d) {
      const auto di = static_cast<std::size_t>(d);
      emit(h, d) = b_(h, d) * (1.0 - c_[di]);
      if (support[di]) loss += b_(h, d) * c_[di];
    }
    emit(h, m_) = loss;
  }
}

double Hmm::forward_backward(const std::vector<int>& seq, Trellis& w) const {
  const std::size_t t_len = seq.size();
  w.resize(t_len, static_cast<std::size_t>(n_));
  w.support = observed_support(seq);

  // Forward pass with per-step scaling.
  double sum = 0.0;
  for (int h = 0; h < n_; ++h) {
    const double v =
        pi_[static_cast<std::size_t>(h)] * emission(h, seq[0], w.support);
    w.alpha(0, h) = v;
    sum += v;
  }
  DCL_ENSURE_MSG(sum > 0.0, "impossible observation at t=0");
  w.scale[0] = sum;
  for (int h = 0; h < n_; ++h) w.alpha(0, h) /= sum;

  for (std::size_t t = 1; t < t_len; ++t) {
    sum = 0.0;
    for (int j = 0; j < n_; ++j) {
      double acc = 0.0;
      for (int i = 0; i < n_; ++i) acc += w.alpha(t - 1, i) * a_(i, j);
      const double v = acc * emission(j, seq[t], w.support);
      w.alpha(t, j) = v;
      sum += v;
    }
    DCL_ENSURE_MSG(sum > 0.0, "impossible observation at t=" << t);
    w.scale[t] = sum;
    for (int j = 0; j < n_; ++j) w.alpha(t, j) /= sum;
  }

  // Backward pass, scaled by the forward constants.
  for (int h = 0; h < n_; ++h) w.beta(t_len - 1, h) = 1.0;
  for (std::size_t t = t_len - 1; t-- > 0;) {
    for (int i = 0; i < n_; ++i) {
      double acc = 0.0;
      for (int j = 0; j < n_; ++j)
        acc += a_(i, j) * emission(j, seq[t + 1], w.support) *
               w.beta(t + 1, j);
      w.beta(t, i) = acc / w.scale[t + 1];
    }
  }

  double ll = 0.0;
  for (double c : w.scale) ll += std::log(c);
  return ll;
}

double Hmm::forward_backward_cached(const FitContext& ctx,
                                    Workspace& ws) const {
  const std::size_t t_len = ctx.col.size();
  const auto n = static_cast<std::size_t>(n_);
  Trellis& w = ws.w;
  w.ensure(t_len, n);
  const util::Matrix& emit = ws.emit;

  double sum = 0.0;
  {
    const int c0 = ctx.col[0];
    for (std::size_t h = 0; h < n; ++h) {
      const double v = pi_[h] * emit(h, c0);
      w.alpha(0, h) = v;
      sum += v;
    }
  }
  DCL_ENSURE_MSG(sum > 0.0, "impossible observation at t=0");
  w.scale[0] = sum;
  for (std::size_t h = 0; h < n; ++h) w.alpha(0, h) /= sum;

  for (std::size_t t = 1; t < t_len; ++t) {
    const int ct = ctx.col[t];
    sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t i = 0; i < n; ++i) acc += w.alpha(t - 1, i) * a_(i, j);
      const double v = acc * emit(j, ct);
      w.alpha(t, j) = v;
      sum += v;
    }
    DCL_ENSURE_MSG(sum > 0.0, "impossible observation at t=" << t);
    w.scale[t] = sum;
    for (std::size_t j = 0; j < n; ++j) w.alpha(t, j) /= sum;
  }

  for (std::size_t h = 0; h < n; ++h) w.beta(t_len - 1, h) = 1.0;
  for (std::size_t t = t_len - 1; t-- > 0;) {
    const int cn = ctx.col[t + 1];
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        acc += a_(i, j) * emit(j, cn) * w.beta(t + 1, j);
      w.beta(t, i) = acc / w.scale[t + 1];
    }
  }

  double ll = 0.0;
  for (double c : w.scale) ll += std::log(c);
  return ll;
}

std::pair<double, double> Hmm::em_step(const std::vector<int>& seq,
                                       Workspace& ws) {
  // Reference path (EmOptions::cache_emissions == false): per-call
  // emission() evaluation and per-step allocations, as originally written.
  const std::size_t t_len = seq.size();
  Trellis& w = ws.w;
  const double ll = forward_backward(seq, w);

  std::vector<double> new_pi(static_cast<std::size_t>(n_), 0.0);
  util::Matrix a_num(static_cast<std::size_t>(n_),
                     static_cast<std::size_t>(n_));
  util::Matrix b_num(static_cast<std::size_t>(n_),
                     static_cast<std::size_t>(m_));
  std::vector<double> gamma_sum(static_cast<std::size_t>(n_), 0.0);
  std::vector<double> c_loss(static_cast<std::size_t>(m_), 0.0);
  std::vector<double> c_total(static_cast<std::size_t>(m_), 0.0);

  std::vector<double> gamma(static_cast<std::size_t>(n_));
  std::vector<double> loss_emit(static_cast<std::size_t>(n_));
  for (int h = 0; h < n_; ++h)
    loss_emit[static_cast<std::size_t>(h)] = loss_emission(h, w.support);

  for (std::size_t t = 0; t < t_len; ++t) {
    double gsum = 0.0;
    for (int h = 0; h < n_; ++h) {
      gamma[static_cast<std::size_t>(h)] = w.alpha(t, h) * w.beta(t, h);
      gsum += gamma[static_cast<std::size_t>(h)];
    }
    DCL_ENSURE(gsum > 0.0);
    for (int h = 0; h < n_; ++h) gamma[static_cast<std::size_t>(h)] /= gsum;

    if (t == 0)
      for (int h = 0; h < n_; ++h)
        new_pi[static_cast<std::size_t>(h)] =
            gamma[static_cast<std::size_t>(h)];

    const int d = sym(seq[t]);
    for (int h = 0; h < n_; ++h) {
      const double g = gamma[static_cast<std::size_t>(h)];
      gamma_sum[static_cast<std::size_t>(h)] += g;
      if (d >= 0) {
        b_num(h, d) += g;
        c_total[static_cast<std::size_t>(d)] += g;
      } else {
        // Distribute the loss over symbols with the per-state posterior
        // P(d | h, loss) = B[h][d] C[d] / sum_d' B[h][d'] C[d'].
        const double denom = loss_emit[static_cast<std::size_t>(h)];
        for (int dd = 0; dd < m_; ++dd) {
          if (!w.support[static_cast<std::size_t>(dd)]) continue;
          const double p =
              g * b_(h, dd) * c_[static_cast<std::size_t>(dd)] / denom;
          b_num(h, dd) += p;
          c_loss[static_cast<std::size_t>(dd)] += p;
          c_total[static_cast<std::size_t>(dd)] += p;
        }
      }
    }

    if (t + 1 < t_len) {
      // xi accumulation for the transition counts.
      for (int i = 0; i < n_; ++i) {
        const double ai = w.alpha(t, i);
        for (int j = 0; j < n_; ++j) {
          a_num(i, j) += ai * a_(i, j) * emission(j, seq[t + 1], w.support) *
                         w.beta(t + 1, j) / w.scale[t + 1];
        }
      }
    }
  }

  // M-step.
  ws.old_pi = pi_;
  ws.old_a = a_;
  ws.old_b = b_;
  ws.old_c = c_;

  pi_ = new_pi;
  a_ = a_num;
  a_.normalize_rows();
  for (int h = 0; h < n_; ++h)
    for (int d = 0; d < m_; ++d)
      b_(h, d) = gamma_sum[static_cast<std::size_t>(h)] > 0.0
                     ? b_num(h, d) / gamma_sum[static_cast<std::size_t>(h)]
                     : 1.0 / static_cast<double>(m_);
  for (int d = 0; d < m_; ++d) {
    const auto di = static_cast<std::size_t>(d);
    if (c_total[di] > 0.0) c_[di] = c_loss[di] / c_total[di];
  }
  clamp_parameters();

  double delta = 0.0;
  for (std::size_t h = 0; h < static_cast<std::size_t>(n_); ++h)
    delta = std::max(delta, std::abs(pi_[h] - ws.old_pi[h]));
  delta = std::max(delta, util::Matrix::max_abs_diff(a_, ws.old_a));
  delta = std::max(delta, util::Matrix::max_abs_diff(b_, ws.old_b));
  for (std::size_t d = 0; d < static_cast<std::size_t>(m_); ++d)
    delta = std::max(delta, std::abs(c_[d] - ws.old_c[d]));
  return {ll, delta};
}

std::pair<double, double> Hmm::em_step_cached(const std::vector<int>& seq,
                                              const FitContext& ctx,
                                              Workspace& ws) {
  const std::size_t t_len = seq.size();
  const auto n = static_cast<std::size_t>(n_);
  const auto m = static_cast<std::size_t>(m_);

  build_emission_table(ctx.support, ws.emit);
  const double ll = forward_backward_cached(ctx, ws);

  // Snapshot the entering parameters (the E-step reads, never writes them).
  ws.old_pi = pi_;
  ws.old_a = a_;
  ws.old_b = b_;
  ws.old_c = c_;

  ws.new_pi.assign(n, 0.0);
  ws.a_num.fill(0.0);
  ws.b_num.fill(0.0);
  ws.gamma_sum.assign(n, 0.0);
  ws.c_loss.assign(m, 0.0);
  ws.c_total.assign(m, 0.0);

  const Trellis& w = ws.w;
  const util::Matrix& emit = ws.emit;

  for (std::size_t t = 0; t < t_len; ++t) {
    double gsum = 0.0;
    for (std::size_t h = 0; h < n; ++h) {
      ws.gamma[h] = w.alpha(t, h) * w.beta(t, h);
      gsum += ws.gamma[h];
    }
    DCL_ENSURE(gsum > 0.0);
    for (std::size_t h = 0; h < n; ++h) ws.gamma[h] /= gsum;

    if (t == 0)
      for (std::size_t h = 0; h < n; ++h) ws.new_pi[h] = ws.gamma[h];

    const int d = sym(seq[t]);
    for (std::size_t h = 0; h < n; ++h) {
      const double g = ws.gamma[h];
      ws.gamma_sum[h] += g;
      if (d >= 0) {
        ws.b_num(h, static_cast<std::size_t>(d)) += g;
        ws.c_total[static_cast<std::size_t>(d)] += g;
      } else {
        const double denom = emit(h, m);  // loss column
        for (std::size_t dd = 0; dd < m; ++dd) {
          if (!ctx.support[dd]) continue;
          const double p = g * b_(h, dd) * c_[dd] / denom;
          ws.b_num(h, dd) += p;
          ws.c_loss[dd] += p;
          ws.c_total[dd] += p;
        }
      }
    }

    if (t + 1 < t_len) {
      const int cn = ctx.col[t + 1];
      for (std::size_t i = 0; i < n; ++i) {
        const double ai = w.alpha(t, i);
        for (std::size_t j = 0; j < n; ++j) {
          ws.a_num(i, j) +=
              ai * a_(i, j) * emit(j, cn) * w.beta(t + 1, j) / w.scale[t + 1];
        }
      }
    }
  }

  // M-step from the workspace accumulators (vector/matrix copy-assignments
  // below reuse the existing storage — no allocations in steady state).
  pi_ = ws.new_pi;
  a_ = ws.a_num;
  a_.normalize_rows();
  for (std::size_t h = 0; h < n; ++h)
    for (std::size_t d = 0; d < m; ++d)
      b_(h, d) = ws.gamma_sum[h] > 0.0
                     ? ws.b_num(h, d) / ws.gamma_sum[h]
                     : 1.0 / static_cast<double>(m_);
  for (std::size_t d = 0; d < m; ++d)
    if (ws.c_total[d] > 0.0) c_[d] = ws.c_loss[d] / ws.c_total[d];
  clamp_parameters();

  double delta = 0.0;
  for (std::size_t h = 0; h < n; ++h)
    delta = std::max(delta, std::abs(pi_[h] - ws.old_pi[h]));
  delta = std::max(delta, util::Matrix::max_abs_diff(a_, ws.old_a));
  delta = std::max(delta, util::Matrix::max_abs_diff(b_, ws.old_b));
  for (std::size_t d = 0; d < m; ++d)
    delta = std::max(delta, std::abs(c_[d] - ws.old_c[d]));
  return {ll, delta};
}

std::pair<double, double> Hmm::em_step_kernel(const FitContext& ctx,
                                              Workspace& ws) {
  const auto n = static_cast<std::size_t>(n_);
  const auto m = static_cast<std::size_t>(m_);

  build_emission_table(ctx.support, ws.emit);
  ws.folded.build(a_, ws.emit);
  const double ll = fb::forward(ws.folded, ctx.col, pi_.data(), ws.ktr);
  ws.acc.prepare(m + 1, n);
  fb::backward_estep(ws.folded, ctx.col, ws.ktr, ws.acc);

  // Snapshot the entering parameters, then build the loss posterior split
  // from them — W is constant within the iteration, which is what lets the
  // per-loss-step bookkeeping collapse to the single gl row.
  ws.old_pi = pi_;
  ws.old_a = a_;
  ws.old_b = b_;
  ws.old_c = c_;
  for (std::size_t h = 0; h < n; ++h) {
    const double denom = ws.emit(h, m);
    for (std::size_t d = 0; d < m; ++d)
      ws.wsplit(h, d) = ctx.support[d] ? b_(h, d) * c_[d] / denom : 0.0;
  }

  const double* gl = ws.acc.col_gamma.row(m);  // loss-column gamma sums

  // M-step from the fused accumulators.
  for (std::size_t h = 0; h < n; ++h) pi_[h] = ws.acc.pi0[h];
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a_(i, j) = ws.acc.xi.at(i, j);
  a_.normalize_rows();

  ws.gamma_sum.assign(n, 0.0);
  ws.c_loss.assign(m, 0.0);
  ws.c_total.assign(m, 0.0);
  for (std::size_t h = 0; h < n; ++h) {
    double gs = gl[h];
    for (std::size_t d = 0; d < m; ++d) gs += ws.acc.col_gamma.at(d, h);
    ws.gamma_sum[h] = gs;
  }
  for (std::size_t d = 0; d < m; ++d) {
    double obs_g = 0.0;
    double loss_g = 0.0;
    for (std::size_t h = 0; h < n; ++h) {
      obs_g += ws.acc.col_gamma.at(d, h);
      loss_g += gl[h] * ws.wsplit(h, d);
    }
    ws.c_loss[d] = loss_g;
    ws.c_total[d] = obs_g + loss_g;
  }
  for (std::size_t h = 0; h < n; ++h)
    for (std::size_t d = 0; d < m; ++d)
      b_(h, d) = ws.gamma_sum[h] > 0.0
                     ? (ws.acc.col_gamma.at(d, h) + gl[h] * ws.wsplit(h, d)) /
                           ws.gamma_sum[h]
                     : 1.0 / static_cast<double>(m_);
  for (std::size_t d = 0; d < m; ++d)
    if (ws.c_total[d] > 0.0) c_[d] = ws.c_loss[d] / ws.c_total[d];
  clamp_parameters();

  // The loss-column numerator, divided by the loss count, is exactly the
  // paper's eq. (5) posterior for the entering parameters — the kernel
  // path never needs a retained beta trellis for it.
  ws.kpmf = ws.c_loss;

  double delta = 0.0;
  for (std::size_t h = 0; h < n; ++h)
    delta = std::max(delta, std::abs(pi_[h] - ws.old_pi[h]));
  delta = std::max(delta, util::Matrix::max_abs_diff(a_, ws.old_a));
  delta = std::max(delta, util::Matrix::max_abs_diff(b_, ws.old_b));
  for (std::size_t d = 0; d < m; ++d)
    delta = std::max(delta, std::abs(c_[d] - ws.old_c[d]));
  return {ll, delta};
}

// Resumable per-restart EM state for detail::drive_restarts: a local model
// copy plus everything run_restart used to keep on its stack, so a restart
// can pause at the pruning checkpoint and continue (or be abandoned)
// without redoing work.
struct Hmm::Runner {
  Hmm model;
  const std::vector<int>* seq = nullptr;
  const FitContext* ctx = nullptr;
  const EmOptions* opts = nullptr;
  util::Rng rng;
  double loss_rate = 0.0;
  std::size_t losses = 0;
  Workspace ws;
  FitResult res;
  std::vector<detail::IterEvent> events;
  bool inited = false;
  bool done = false;
  bool pruned_flag = false;
  double ll_last = -std::numeric_limits<double>::infinity();
  const char* ll_track = nullptr;  // interned trace counter name, lazy

  Runner(const Hmm& proto, const std::vector<int>& s, const FitContext& c,
         const EmOptions& o, util::Rng r, int restart, double rate,
         std::size_t loss_count)
      : model(proto.n_, proto.m_),
        seq(&s),
        ctx(&c),
        opts(&o),
        rng(r),
        loss_rate(rate),
        losses(loss_count) {
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

  void advance(int upto) {
    if (done) return;
    // Profiler stage tag: EM restarts run on pool workers with no
    // enclosing DCL_SPAN, so samples here would otherwise be untagged.
    DCL_PROF_STAGE("em.hmm");
    // Restart scope + per-restart log-likelihood counter track; the work
    // runs on whichever pool worker picked this restart up, so the trace
    // shows the actual thread-to-restart assignment.
    obs::trace::Scope restart_scope(
        "hmm.restart", static_cast<double>(res.winning_restart));
    if (obs::trace::enabled() && ll_track == nullptr)
      ll_track = obs::trace::intern(
          "hmm.restart" + std::to_string(res.winning_restart) + ".ll");
    if (!inited) {
      model.random_init(rng, loss_rate);
      ws.prepare(static_cast<std::size_t>(model.n_),
                 static_cast<std::size_t>(model.m_));
      inited = true;
    }
    const int cap = std::min(upto, opts->max_iterations);
    while (res.iterations < cap) {
      DCL_TRACE_SCOPE("hmm.iter");
      const int it = res.iterations;
      const auto [ll, delta] =
          !opts->cache_emissions ? model.em_step(*seq, ws)
          : opts->kernels        ? model.em_step_kernel(*ctx, ws)
                                 : model.em_step_cached(*seq, *ctx, ws);
      res.log_likelihood_history.push_back(ll);
      ll_last = ll;
      res.iterations = it + 1;
      if (ll_track != nullptr) obs::trace::counter(ll_track, ll);
      if (opts->observer != nullptr) events.push_back({it, ll, delta});
      if (delta < opts->tolerance) {
        res.converged = true;
        done = true;
        break;
      }
    }
    if (res.iterations >= opts->max_iterations) done = true;
  }

  void finalize() {
    // Install the parameters *entering* the final step: ll_last is exactly
    // their likelihood, and the retained trellis/accumulators were computed
    // from them, so the posterior costs no extra forward-backward pass.
    model.pi_ = std::move(ws.old_pi);
    model.a_ = std::move(ws.old_a);
    model.b_ = std::move(ws.old_b);
    model.c_ = std::move(ws.old_c);
    res.log_likelihood = ll_last;
    res.pruned = pruned_flag;
    if (pruned_flag) return;  // cannot win; skip the posterior
    if (opts->cache_emissions && opts->kernels) {
      util::Pmf pmf(ws.kpmf.begin(), ws.kpmf.end());
      if (losses > 0)
        for (auto& p : pmf) p /= static_cast<double>(losses);
      res.virtual_delay_pmf = std::move(pmf);
    } else {
      res.virtual_delay_pmf =
          model.posterior_from_trellis(*seq, ctx->support, ws.w);
    }
  }
};

FitResult Hmm::fit(const std::vector<int>& seq, const EmOptions& opts) {
  DCL_ENSURE_MSG(seq.size() >= 2, "need at least two observations to fit");
  DCL_ENSURE(opts.restarts >= 1 && opts.max_iterations >= 1);
  std::size_t losses = 0;
  for (int o : seq) losses += (o == kLoss) ? 1 : 0;
  const double loss_rate =
      static_cast<double>(losses) / static_cast<double>(seq.size());

  const FitContext ctx = make_context(seq);
  // RNG streams are forked in restart order before dispatch, so every
  // restart sees the same stream for any thread count.
  auto rngs = detail::fork_restart_rngs(opts.seed, opts.restarts);

  std::vector<Runner> runs;
  runs.reserve(static_cast<std::size_t>(opts.restarts));
  for (int r = 0; r < opts.restarts; ++r)
    runs.emplace_back(*this, seq, ctx, opts,
                      rngs[static_cast<std::size_t>(r)], r, loss_rate, losses);

  const std::size_t workers =
      std::min(util::ThreadPool::resolve(opts.threads),
               static_cast<std::size_t>(opts.restarts));
  std::unique_ptr<util::ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<util::ThreadPool>(workers);
  const int race_rungs = detail::drive_restarts(pool.get(), opts, runs);

  int pruned_count = 0;
  for (const Runner& run : runs) pruned_count += run.pruned_flag ? 1 : 0;

  FitResult best =
      detail::reduce_restarts(runs, opts.observer, [&](Runner& o) {
        pi_ = std::move(o.model.pi_);
        a_ = std::move(o.model.a_);
        b_ = std::move(o.model.b_);
        c_ = std::move(o.model.c_);
      });
  best.losses = losses;
  best.pruned_restarts = pruned_count;
  best.race_rungs = race_rungs;
  if (opts.observer != nullptr)
    opts.observer->on_winner(best.winning_restart, best);
  return best;
}

// ---------------------------------------------------------------------------
// StagedFit: the fit() setup (context, forked RNGs, runners, pool) held
// open so the restarts advance in externally driven increments — the
// substrate of the HMM-vs-MMHD structure race in core::Identifier. See
// Mmhd::StagedFit for the full contract; the two implementations mirror
// each other.

struct Hmm::StagedFit::Impl {
  Hmm* target;
  const std::vector<int>* seq;
  EmOptions opts;  // stable copy: every Runner points into it
  std::size_t losses = 0;
  FitContext ctx;
  std::vector<Runner> runs;
  std::unique_ptr<util::ThreadPool> pool;
  detail::RaceState race;
  bool probed = false;

  Impl(Hmm& model, const std::vector<int>& s, const EmOptions& o)
      : target(&model),
        seq(&s),
        opts(o),
        ctx(model.make_context(s)),
        race(static_cast<std::size_t>(opts.restarts)) {
    for (int sym : s) losses += (sym == kLoss) ? 1 : 0;
    const double loss_rate =
        static_cast<double>(losses) / static_cast<double>(s.size());
    auto rngs = detail::fork_restart_rngs(opts.seed, opts.restarts);
    runs.reserve(static_cast<std::size_t>(opts.restarts));
    for (int r = 0; r < opts.restarts; ++r)
      runs.emplace_back(model, *seq, ctx, opts,
                        rngs[static_cast<std::size_t>(r)], r, loss_rate,
                        losses);
    const std::size_t workers =
        std::min(util::ThreadPool::resolve(opts.threads),
                 static_cast<std::size_t>(opts.restarts));
    if (workers > 1) pool = std::make_unique<util::ThreadPool>(workers);
  }
};

Hmm::StagedFit::StagedFit(Hmm& model, const std::vector<int>& seq,
                          const EmOptions& opts)
    : impl_(std::make_unique<Impl>(model, seq, opts)) {
  DCL_ENSURE_MSG(seq.size() >= 2, "need at least two observations to fit");
  DCL_ENSURE(opts.restarts >= 1 && opts.max_iterations >= 1);
}

Hmm::StagedFit::~StagedFit() = default;
Hmm::StagedFit::StagedFit(StagedFit&&) noexcept = default;
Hmm::StagedFit& Hmm::StagedFit::operator=(StagedFit&&) noexcept = default;

void Hmm::StagedFit::advance(int upto) {
  Impl& im = *impl_;
  const std::size_t n = im.runs.size();
  const int cap = std::min(upto, im.opts.max_iterations);
  if (!im.probed) {
    // One probe iteration so gain estimates — and therefore
    // ll_upper_bound — are finite from the first shared rung on.
    util::parallel_indexed(im.pool.get(), n,
                           [&](std::size_t r) { im.runs[r].advance(1); });
    im.race.snapshot(im.runs);
    im.probed = true;
  }
  util::parallel_indexed(im.pool.get(), n,
                         [&](std::size_t r) { im.runs[r].advance(cap); });
  if (im.opts.race_warmup > 0 && n > 1 && cap < im.opts.max_iterations &&
      detail::RaceState::live_count(im.runs) > 0)
    im.race.reduce(im.opts, im.runs, cap);
  im.race.snapshot(im.runs);
}

bool Hmm::StagedFit::finished() const {
  for (const Runner& run : impl_->runs)
    if (!run.pruned() && !run.finished()) return false;
  return true;
}

int Hmm::StagedFit::iterations() const {
  int most = 0;
  for (const Runner& run : impl_->runs)
    if (!run.pruned()) most = std::max(most, run.iterations());
  return most;
}

double Hmm::StagedFit::best_ll() const {
  double best = -std::numeric_limits<double>::infinity();
  for (const Runner& run : impl_->runs)
    if (!run.pruned() && run.last_ll() > best) best = run.last_ll();
  return best;
}

double Hmm::StagedFit::ll_upper_bound(double overtake) const {
  const Impl& im = *impl_;
  double bound = -std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < im.runs.size(); ++r) {
    const Runner& run = im.runs[r];
    if (run.pruned()) continue;
    bound = std::max(bound, im.race.ll_bound(run, r, im.opts.max_iterations,
                                             overtake));
  }
  return bound;
}

FitResult Hmm::StagedFit::finish() {
  Impl& im = *impl_;
  util::parallel_indexed(im.pool.get(), im.runs.size(),
                         [&](std::size_t r) { im.runs[r].finalize(); });
  int pruned_count = 0;
  for (const Runner& run : im.runs) pruned_count += run.pruned() ? 1 : 0;
  Hmm& model = *im.target;
  FitResult best =
      detail::reduce_restarts(im.runs, im.opts.observer, [&](Runner& o) {
        model.pi_ = std::move(o.model.pi_);
        model.a_ = std::move(o.model.a_);
        model.b_ = std::move(o.model.b_);
        model.c_ = std::move(o.model.c_);
      });
  best.losses = im.losses;
  best.pruned_restarts = pruned_count;
  best.race_rungs = im.race.rungs;
  if (im.opts.observer != nullptr)
    im.opts.observer->on_winner(best.winning_restart, best);
  return best;
}

util::Pmf Hmm::posterior_from_trellis(const std::vector<int>& seq,
                                      const std::vector<char>& support,
                                      const Trellis& w) const {
  util::Pmf pmf(static_cast<std::size_t>(m_), 0.0);
  std::vector<double> loss_emit(static_cast<std::size_t>(n_));
  for (int h = 0; h < n_; ++h)
    loss_emit[static_cast<std::size_t>(h)] = loss_emission(h, support);
  std::size_t losses = 0;
  for (std::size_t t = 0; t < seq.size(); ++t) {
    if (sym(seq[t]) >= 0) continue;
    ++losses;
    double gsum = 0.0;
    for (int h = 0; h < n_; ++h) gsum += w.alpha(t, h) * w.beta(t, h);
    for (int h = 0; h < n_; ++h) {
      const double g = w.alpha(t, h) * w.beta(t, h) / gsum;
      const double denom = loss_emit[static_cast<std::size_t>(h)];
      for (int d = 0; d < m_; ++d)
        if (support[static_cast<std::size_t>(d)])
          pmf[static_cast<std::size_t>(d)] +=
              g * b_(h, d) * c_[static_cast<std::size_t>(d)] / denom;
    }
  }
  if (losses > 0)
    for (auto& p : pmf) p /= static_cast<double>(losses);
  return pmf;
}

util::Pmf Hmm::virtual_delay_pmf(const std::vector<int>& seq) const {
  Trellis w;
  forward_backward(seq, w);
  return posterior_from_trellis(seq, w.support, w);
}

util::Pmf Hmm::stationary_virtual_delay_pmf() const {
  // Stationary hidden distribution by power iteration.
  std::vector<double> mu(static_cast<std::size_t>(n_),
                         1.0 / static_cast<double>(n_));
  std::vector<double> next(static_cast<std::size_t>(n_));
  for (int it = 0; it < 1000; ++it) {
    for (int j = 0; j < n_; ++j) {
      double acc = 0.0;
      for (int i = 0; i < n_; ++i)
        acc += mu[static_cast<std::size_t>(i)] * a_(i, j);
      next[static_cast<std::size_t>(j)] = acc;
    }
    double delta = 0.0;
    for (int j = 0; j < n_; ++j)
      delta += std::abs(next[static_cast<std::size_t>(j)] -
                        mu[static_cast<std::size_t>(j)]);
    mu.swap(next);
    if (delta < 1e-12) break;
  }
  util::Pmf pmf(static_cast<std::size_t>(m_), 0.0);
  for (int d = 0; d < m_; ++d) {
    double pd = 0.0;
    for (int h = 0; h < n_; ++h) pd += mu[static_cast<std::size_t>(h)] * b_(h, d);
    pmf[static_cast<std::size_t>(d)] = pd * c_[static_cast<std::size_t>(d)];
  }
  util::normalize(pmf);
  return pmf;
}

double Hmm::log_likelihood(const std::vector<int>& seq) const {
  // Likelihood-only evaluation is the kernel engine's forward sweep: its
  // raw recursion renormalizes by exact powers of two and telescopes the
  // likelihood, so 500k-step sequences stay finite.
  DCL_ENSURE_MSG(!seq.empty(), "log_likelihood of an empty sequence");
  const FitContext ctx = make_context(seq);
  util::Matrix emit(static_cast<std::size_t>(n_),
                    static_cast<std::size_t>(m_) + 1);
  build_emission_table(ctx.support, emit);
  fb::FoldedMatrices folded;
  folded.build(a_, emit);
  fb::Trellis tr;
  return fb::forward(folded, ctx.col, pi_.data(), tr);
}

}  // namespace dcl::inference
