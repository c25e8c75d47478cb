#include "inference/hmm.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "inference/discretizer.h"
#include "inference/em_internal.h"
#include "inference/fb_kernels.h"
#include "util/error.h"

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
};

// Immutable per-fit inputs, computed once and shared (read-only) by every
// restart worker.
struct Hmm::FitContext {
  bool reference = false;  // EmOptions::cache_emissions == false
  std::vector<char> support;
  // Emission-table column per step: the 0-based symbol, or M for a loss.
  std::vector<int> col;
};

// Everything a restart mutates besides the model parameters themselves.
// Owned by the restart worker; sized once, then reused across iterations so
// the inner loops allocate nothing.
struct Hmm::Workspace {
  Trellis w;  // reference engine
  // E-step numerators, filled by either engine for the one M-step tail:
  // pi, A's rows, B's entries over their row's gamma sum, C's loss share
  // over its total.
  std::vector<double> new_pi, gamma_sum, c_loss, c_total;
  util::Matrix a_num, b_num;
  // Parameters entering the most recent em_step — the values the restart
  // installs at the end, since the step's reported likelihood is theirs.
  std::vector<double> old_pi, old_c;
  util::Matrix old_a, old_b;
  // Kernel-engine state: the N x (M+1) emission table (column M = loss
  // emission), the folded blocks F_c = A .* emit(:, c) (N x N, block c at
  // c * N * N), the sweep's start row and state, and the per-column gamma
  // sums read off it.
  util::Matrix emit, col_gamma;
  std::vector<double> blocks, v0;
  fb::SkeletonSweep sweep;

  void prepare(const Hmm& model) {
    const auto n = static_cast<std::size_t>(model.n_);
    const auto m = static_cast<std::size_t>(model.m_);
    new_pi.resize(n);
    gamma_sum.resize(n);
    c_loss.resize(m);
    c_total.resize(m);
    a_num = util::Matrix(n, n);
    b_num = util::Matrix(n, m);
    emit = util::Matrix(n, m + 1);
    col_gamma = util::Matrix(m + 1, n);
    blocks.resize((m + 1) * n * n);
    v0.resize(n);
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

Hmm::FitContext Hmm::make_context(const std::vector<int>& seq,
                                  const EmOptions& opts) const {
  FitContext ctx;
  ctx.reference = !opts.cache_emissions;
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

std::pair<double, double> Hmm::em_step(const std::vector<int>& seq,
                                       const FitContext& ctx, Workspace& ws) {
  return ctx.reference ? em_step_reference(seq, ws) : em_step_kernel(ctx, ws);
}

std::pair<double, double> Hmm::em_step_reference(const std::vector<int>& seq,
                                                 Workspace& ws) {
  const std::size_t t_len = seq.size();
  Trellis& w = ws.w;
  const double ll = forward_backward(seq, w);

  std::fill(ws.new_pi.begin(), ws.new_pi.end(), 0.0);
  ws.a_num.fill(0.0);
  ws.b_num.fill(0.0);
  std::fill(ws.gamma_sum.begin(), ws.gamma_sum.end(), 0.0);
  std::fill(ws.c_loss.begin(), ws.c_loss.end(), 0.0);
  std::fill(ws.c_total.begin(), ws.c_total.end(), 0.0);

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
        ws.new_pi[static_cast<std::size_t>(h)] =
            gamma[static_cast<std::size_t>(h)];

    const int d = sym(seq[t]);
    for (int h = 0; h < n_; ++h) {
      const double g = gamma[static_cast<std::size_t>(h)];
      ws.gamma_sum[static_cast<std::size_t>(h)] += g;
      if (d >= 0) {
        ws.b_num(h, d) += g;
        ws.c_total[static_cast<std::size_t>(d)] += g;
      } else {
        // Distribute the loss over symbols with the per-state posterior
        // P(d | h, loss) = B[h][d] C[d] / sum_d' B[h][d'] C[d'].
        const double denom = loss_emit[static_cast<std::size_t>(h)];
        for (int dd = 0; dd < m_; ++dd) {
          if (!w.support[static_cast<std::size_t>(dd)]) continue;
          const double p =
              g * b_(h, dd) * c_[static_cast<std::size_t>(dd)] / denom;
          ws.b_num(h, dd) += p;
          ws.c_loss[static_cast<std::size_t>(dd)] += p;
          ws.c_total[static_cast<std::size_t>(dd)] += p;
        }
      }
    }

    if (t + 1 < t_len) {
      // xi accumulation for the transition counts.
      for (int i = 0; i < n_; ++i) {
        const double ai = w.alpha(t, i);
        for (int j = 0; j < n_; ++j) {
          ws.a_num(i, j) += ai * a_(i, j) *
                            emission(j, seq[t + 1], w.support) *
                            w.beta(t + 1, j) / w.scale[t + 1];
        }
      }
    }
  }
  return {ll, m_step(ws)};
}

double Hmm::chain_sweep(const FitContext& ctx, Workspace& ws) const {
  const auto n = static_cast<std::size_t>(n_);
  const auto m = static_cast<std::size_t>(m_);
  const std::size_t nn = n * n;
  build_emission_table(ctx.support, ws.emit);
  for (std::size_t c = 0; c <= m; ++c) {
    double* blk = ws.blocks.data() + c * nn;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        blk[i * n + j] = a_(i, j) * ws.emit(j, c);
  }
  const auto c0 = static_cast<std::size_t>(ctx.col[0]);
  for (std::size_t j = 0; j < n; ++j) ws.v0[j] = pi_[j] * ws.emit(j, c0);
  ws.sweep.prepare(m + 1, n);
  const double log_mass = fb::skeleton_sweep(ws.blocks.data(), n, ctx.col,
                                             ws.v0.data(), nullptr, ws.sweep);
  return log_mass -
         static_cast<double>(ws.sweep.renorm_total) * std::log(2.0);
}

std::pair<double, double> Hmm::em_step_kernel(const FitContext& ctx,
                                              Workspace& ws) {
  const auto n = static_cast<std::size_t>(n_);
  const auto m = static_cast<std::size_t>(m_);
  const std::size_t nn = n * n;
  const double ll = chain_sweep(ctx, ws);
  const fb::SkeletonSweep& sw = ws.sweep;

  // Block c's xi is its outer-product sum times the block; its column sums
  // are the gamma of the steps t >= 1 that emit column c. Step 0's gamma
  // is the start row times beta_0.
  ws.a_num.fill(0.0);
  ws.col_gamma.fill(0.0);
  for (std::size_t c = 0; c <= m; ++c) {
    const double* o = sw.outer.data() + c * nn;
    const double* f = ws.blocks.data() + c * nn;
    double* cg = ws.col_gamma.row(c);
    for (std::size_t i = 0; i < n; ++i) {
      double* a_row = ws.a_num.row(i);
      for (std::size_t j = 0; j < n; ++j) {
        const double x = o[i * n + j] * f[i * n + j];
        a_row[j] += x;
        cg[j] += x;
      }
    }
  }
  double g0 = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    ws.new_pi[j] = ws.v0[j] * sw.first[j];
    g0 += ws.new_pi[j];
  }
  DCL_ENSURE_MSG(g0 > 0.0, "chain sweep: zero posterior mass at t = 0");
  double* cg0 = ws.col_gamma.row(static_cast<std::size_t>(ctx.col[0]));
  for (std::size_t j = 0; j < n; ++j) {
    ws.new_pi[j] /= g0;
    cg0[j] += ws.new_pi[j];
  }

  // The loss posterior split W(h, d) = B[h][d] C[d] / loss_emit(h) of the
  // entering parameters is constant within the iteration, so the loss
  // steps' gamma sums gl split over the symbols once.
  const double* gl = ws.col_gamma.row(m);
  for (std::size_t h = 0; h < n; ++h) {
    double gs = gl[h];
    for (std::size_t d = 0; d < m; ++d) gs += ws.col_gamma(d, h);
    ws.gamma_sum[h] = gs;
  }
  for (std::size_t d = 0; d < m; ++d) {
    double obs_g = 0.0;
    double loss_g = 0.0;
    for (std::size_t h = 0; h < n; ++h) {
      const double split =
          ctx.support[d] ? b_(h, d) * c_[d] / ws.emit(h, m) : 0.0;
      ws.b_num(h, d) = ws.col_gamma(d, h) + gl[h] * split;
      obs_g += ws.col_gamma(d, h);
      loss_g += gl[h] * split;
    }
    ws.c_loss[d] = loss_g;
    ws.c_total[d] = obs_g + loss_g;
  }
  return {ll, m_step(ws)};
}

double Hmm::m_step(Workspace& ws) {
  const auto n = static_cast<std::size_t>(n_);
  const auto m = static_cast<std::size_t>(m_);
  ws.old_pi = pi_;
  ws.old_a = a_;
  ws.old_b = b_;
  ws.old_c = c_;

  pi_ = ws.new_pi;
  a_ = ws.a_num;
  a_.normalize_rows();
  for (std::size_t h = 0; h < n; ++h)
    for (std::size_t d = 0; d < m; ++d)
      b_(h, d) = ws.gamma_sum[h] > 0.0 ? ws.b_num(h, d) / ws.gamma_sum[h]
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
  return delta;
}

void Hmm::install_entering(Workspace& ws) {
  pi_ = std::move(ws.old_pi);
  a_ = std::move(ws.old_a);
  b_ = std::move(ws.old_b);
  c_ = std::move(ws.old_c);
}

util::Pmf Hmm::fitted_posterior(const std::vector<int>& seq,
                                const FitContext& ctx, const Workspace& ws,
                                std::size_t losses) const {
  if (ctx.reference) return posterior_from_trellis(seq, ctx.support, ws.w);
  // The kernel's loss-column numerator is paper eq. (5) times the loss
  // count, for the parameters entering the last step.
  util::Pmf pmf(ws.c_loss.begin(), ws.c_loss.end());
  if (losses > 0)
    for (auto& p : pmf) p /= static_cast<double>(losses);
  return pmf;
}

FitResult Hmm::fit(const std::vector<int>& seq, const EmOptions& opts) {
  return detail::RestartSet<Hmm>(*this, seq, opts).run();
}

Hmm::StagedFit::StagedFit(Hmm& model, const std::vector<int>& seq,
                          const EmOptions& opts)
    : impl_(std::make_unique<detail::RestartSet<Hmm>>(model, seq, opts)) {}
Hmm::StagedFit::~StagedFit() = default;
Hmm::StagedFit::StagedFit(StagedFit&&) noexcept = default;
Hmm::StagedFit& Hmm::StagedFit::operator=(StagedFit&&) noexcept = default;
void Hmm::StagedFit::advance(int upto) { impl_->advance(upto); }
bool Hmm::StagedFit::finished() const { return impl_->finished(); }
int Hmm::StagedFit::iterations() const { return impl_->iterations(); }
double Hmm::StagedFit::best_ll() const { return impl_->best_ll(); }
double Hmm::StagedFit::ll_upper_bound(double overtake) const {
  return impl_->ll_upper_bound(overtake);
}
FitResult Hmm::StagedFit::finish() { return impl_->finish(); }

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
  // The kernel engine's fold and chain sweep: its rows are rescaled by
  // exact powers of two and the likelihood telescopes, so 500k-step
  // sequences stay finite.
  DCL_ENSURE_MSG(!seq.empty(), "log_likelihood of an empty sequence");
  const FitContext ctx = make_context(seq, EmOptions{});
  Workspace ws;
  ws.prepare(*this);
  return chain_sweep(ctx, ws);
}

}  // namespace dcl::inference
