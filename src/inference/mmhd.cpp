#include "inference/mmhd.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "inference/discretizer.h"
#include "inference/em_internal.h"
#include "inference/fb_kernels.h"
#include "inference/mmhd_internal.h"
#include "util/error.h"

namespace dcl::inference {

namespace {
constexpr double kFloor = 1e-12;
constexpr int kLoss = Discretizer::kLossSymbol;
inline int sym(int obs) { return obs == kLoss ? -1 : obs - 1; }

// Paper eq. (5): the average of the per-loss posteriors.
util::Pmf mean_pmf(const std::vector<util::Pmf>& per_loss, int symbols) {
  util::Pmf pmf(static_cast<std::size_t>(symbols), 0.0);
  for (const auto& p : per_loss)
    for (std::size_t d = 0; d < pmf.size(); ++d) pmf[d] += p[d];
  if (!per_loss.empty())
    for (auto& p : pmf) p /= static_cast<double>(per_loss.size());
  return pmf;
}

// Rescales `len` nonnegative entries by the power of two that puts the
// largest in [0.5, 1); returns that power's exponent e (the old entries
// are the new ones times 2^e).
int normalize_max(double* c, std::size_t len) {
  const double mx = *std::max_element(c, c + len);
  DCL_ENSURE_MSG(mx > 0.0, "skeleton: zero block");
  int e = 0;
  std::frexp(mx, &e);
  const double s = std::ldexp(1.0, -e);
  for (std::size_t k = 0; k < len; ++k) c[k] *= s;
  return e;
}

// 2^e for e <= 0, zero once it falls below the subnormal range.
double pow2_at_most_one(long long e) {
  return std::ldexp(1.0, static_cast<int>(std::max(e, -2000LL)));
}

// c = a * b for n x n row-major matrices, normalized as above; returns the
// exponent (a * b = c * 2^e).
int mul_normalized(const double* a, const double* b, double* c,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double x = 0.0;
      for (std::size_t k = 0; k < n; ++k) x += a[i * n + k] * b[k * n + j];
      c[i * n + j] = x;
    }
  return normalize_max(c, n * n);
}

// The run-interior recurrence of one fold (Mmhd::run_interiors): B is B_d,
// keys[0..count) its run keys ascending in length, x[k] (n x n at k * n * n)
// the sweep's outer block of key k and exps[k] the exponent of its block,
// so Y_r = X_r * 2^-exps. With P = B^T, the interior xi of the runs of
// length r sum to B o sum_{t<r} P^t Y_r P^(r-1-t); summed over every r by
// levels t = r_max - 1 .. 0 as R <- R P + Y_(t+1), Z <- R + P Z. R and Z
// share one exponent (their true values are R, Z times 2^ex), moved when
// Z's mass leaves [2^-64, 2^64) and when an input is larger. Writes Z to
// z_out and returns ex. Templated on N like the sweep: kN = 2..4 keep the
// N x N matrices in registers (survey's trace p50 read 9% higher without);
// kN = 0 is the runtime-N body, which keeps them in scratch (5 n^2 doubles).
template <std::size_t kN, typename Key>
long long run_interior(const double* b, const double* x, const Key* keys,
                       const long long* exps, std::size_t count,
                       double* scratch, double* z_out, std::size_t n_any) {
  constexpr bool kFixed = kN != 0;
  constexpr std::size_t kCap = kFixed ? kN * kN : 1;
  const std::size_t n = kFixed ? kN : n_any;
  const std::size_t nn = n * n;
  double b_loc[kCap], r_loc[kCap], rn_loc[kCap], z_loc[kCap], zn_loc[kCap];
  double* bl = kFixed ? b_loc : scratch;
  double* r = kFixed ? r_loc : scratch + nn;
  double* rn = kFixed ? rn_loc : scratch + 2 * nn;
  double* z = kFixed ? z_loc : scratch + 3 * nn;
  double* zn = kFixed ? zn_loc : scratch + 4 * nn;
  for (std::size_t i = 0; i < nn; ++i) bl[i] = b[i];
  std::size_t k = count - 1;
  long long ex = -exps[k];
  for (std::size_t i = 0; i < nn; ++i) r[i] = z[i] = x[k * nn + i];
  for (std::size_t t = keys[k].len - 1; t-- > 0;) {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        double v = r[i * n] * bl[j * n];
        for (std::size_t a = 1; a < n; ++a) v += r[i * n + a] * bl[j * n + a];
        rn[i * n + j] = v;
      }
    if (k > 0 && keys[k - 1].len == t + 1) {
      --k;
      const long long g = -exps[k];
      if (g > ex) {
        const double s = pow2_at_most_one(ex - g);
        for (std::size_t i = 0; i < nn; ++i) {
          rn[i] *= s;
          z[i] *= s;
        }
        ex = g;
      }
      const double s = pow2_at_most_one(g - ex);
      for (std::size_t i = 0; i < nn; ++i) rn[i] += x[k * nn + i] * s;
    }
    double mass = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        double v = rn[i * n + j];
        for (std::size_t a = 0; a < n; ++a) v += bl[a * n + i] * z[a * n + j];
        zn[i * n + j] = v;
        mass += v;
      }
    for (std::size_t i = 0; i < nn; ++i) {
      r[i] = rn[i];
      z[i] = zn[i];
    }
    if (mass < 0x1p-64 || mass >= 0x1p64) {
      DCL_ENSURE_MSG(mass > 0.0, "run interiors: zero probability mass");
      const int e = std::ilogb(mass);
      const double s = std::ldexp(1.0, -e);
      for (std::size_t i = 0; i < nn; ++i) {
        r[i] *= s;
        z[i] *= s;
      }
      ex += e;
    }
  }
  for (std::size_t i = 0; i < nn; ++i) z_out[i] = z[i];
  return ex;
}
}  // namespace

Mmhd::Mmhd(int hidden_states, int symbols)
    : n_(hidden_states),
      m_(symbols),
      pi_(static_cast<std::size_t>(hidden_states * symbols),
          1.0 / static_cast<double>(hidden_states * symbols)),
      a_(static_cast<std::size_t>(hidden_states * symbols),
         static_cast<std::size_t>(hidden_states * symbols),
         1.0 / static_cast<double>(hidden_states * symbols)),
      c_(static_cast<std::size_t>(symbols), 0.1) {
  DCL_ENSURE(hidden_states >= 1 && symbols >= 1);
}

void Mmhd::set_parameters(std::vector<double> pi, util::Matrix a,
                          std::vector<double> c) {
  const auto s = static_cast<std::size_t>(states());
  DCL_ENSURE(pi.size() == s);
  DCL_ENSURE(a.rows() == s && a.cols() == s);
  DCL_ENSURE(c.size() == static_cast<std::size_t>(m_));
  pi_ = std::move(pi);
  a_ = std::move(a);
  c_ = std::move(c);
  clamp_parameters();
}

void Mmhd::random_init(util::Rng& rng, double observed_loss_rate) {
  const int s_count = states();
  for (int s = 0; s < s_count; ++s) {
    auto row = rng.simplex(static_cast<std::size_t>(s_count));
    for (int j = 0; j < s_count; ++j)
      a_(s, j) = row[static_cast<std::size_t>(j)];
  }
  pi_.assign(static_cast<std::size_t>(s_count),
             1.0 / static_cast<double>(s_count));
  const double base = std::clamp(observed_loss_rate, 0.005, 0.5);
  for (int d = 0; d < m_; ++d)
    c_[static_cast<std::size_t>(d)] = base * rng.uniform(0.25, 4.0);
  clamp_parameters();
}

void Mmhd::clamp_parameters() {
  for (auto& x : pi_) x = std::max(x, kFloor);
  util::normalize(pi_);
  const int s_count = states();
  for (int i = 0; i < s_count; ++i)
    for (int j = 0; j < s_count; ++j) a_(i, j) = std::max(a_(i, j), kFloor);
  a_.normalize_rows();
  for (auto& x : c_) x = std::clamp(x, kFloor, 1.0 - 1e-9);
}

void Mmhd::active_states(int obs, const std::vector<char>& support,
                         std::vector<int>& out) const {
  out.clear();
  const int d = sym(obs);
  if (d < 0) {
    for (int s = 0; s < states(); ++s)
      if (support[static_cast<std::size_t>(symbol_of_state(s))])
        out.push_back(s);
  } else {
    for (int h = 0; h < n_; ++h) out.push_back(state_of(h, d));
  }
}

double Mmhd::emission(int s, int obs) const {
  const int d = sym(obs);
  const int ds = symbol_of_state(s);
  if (d < 0) return c_[static_cast<std::size_t>(ds)];
  return ds == d ? 1.0 - c_[static_cast<std::size_t>(d)] : 0.0;
}

Mmhd::FitContext Mmhd::make_context(const std::vector<int>& seq,
                                    const EmOptions& opts) const {
  FitContext ctx;
  ctx.reference = !opts.cache_emissions;
  ctx.support = observed_support(seq, m_);
  // The supported states, ascending — the same order active_states
  // produces for a loss step — so compact loss coordinates match the
  // reference engine's.
  const auto s_count = static_cast<std::size_t>(states());
  ctx.compact.assign(s_count, -1);
  for (int s = 0; s < states(); ++s) {
    if (ctx.support[static_cast<std::size_t>(symbol_of_state(s))]) {
      ctx.compact[static_cast<std::size_t>(s)] =
          static_cast<int>(ctx.loss_states.size());
      ctx.loss_states.push_back(s);
    } else {
      ctx.dead_states.push_back(s);
    }
  }
  const double u = std::max(1.0 / static_cast<double>(s_count), kFloor);
  double usum = 0.0;
  for (std::size_t j = 0; j < s_count; ++j) usum += u;
  ctx.uniform = u / usum;
  if (opts.transition_prior > 0.0) {
    build_transition_prior(seq, opts.transition_prior, ctx);
    ctx.use_prior = true;
  }
  if (ctx.reference) return ctx;
  build_segments(seq, ctx);
  return ctx;
}

void Mmhd::build_segments(const std::vector<int>& seq,
                          FitContext& ctx) const {
  const auto m = static_cast<std::size_t>(m_);
  const std::size_t t_len = seq.size();
  ctx.received.assign(m, 0.0);
  ctx.first = sym(seq[0]);
  std::vector<double> pairs(m * m, 0.0);
  // Raw segment keys (left, right, length) in sequence order, with
  // boundary symbols shifted by one so that 0 is the sequence start (left)
  // or end (right).
  using Key = std::array<std::size_t, 3>;
  std::vector<Key> runs;
  for (std::size_t t = 0; t < t_len;) {
    const int d = sym(seq[t]);
    if (d >= 0) {
      ctx.received[static_cast<std::size_t>(d)] += 1.0;
      if (t + 1 < t_len && sym(seq[t + 1]) >= 0)
        pairs[static_cast<std::size_t>(d) * m +
              static_cast<std::size_t>(sym(seq[t + 1]))] += 1.0;
      ++t;
      continue;
    }
    std::size_t end = t;
    while (end < t_len && sym(seq[end]) < 0) ++end;
    const int left = t == 0 ? -1 : sym(seq[t - 1]);
    const int right = end == t_len ? -1 : sym(seq[end]);
    runs.push_back({static_cast<std::size_t>(left + 1),
                    static_cast<std::size_t>(right + 1), end - t});
    t = end;
  }
  std::vector<int> bigram_of(m * m, -1);
  for (std::size_t d = 0; d < m; ++d)
    for (std::size_t e = 0; e < m; ++e)
      if (pairs[d * m + e] > 0.0) {
        bigram_of[d * m + e] = static_cast<int>(ctx.bigrams.size());
        ctx.bigrams.push_back(
            {static_cast<int>(d), static_cast<int>(e), pairs[d * m + e]});
      }

  // Distinct keys in sorted order (a fixed function of the sequence), each
  // boundary given one seed row per hidden state beside it.
  std::vector<Key> keys = runs;
  std::sort(keys.begin(), keys.end());
  std::vector<std::size_t> entry_of(m + 1, 0), exit_of(m + 1, 0);
  std::vector<char> has_entry(m + 1, 0), has_exit(m + 1, 0);
  for (const Key& k : keys) {
    has_entry[k[0]] = 1;
    has_exit[k[1]] = 1;
  }
  const auto n = static_cast<std::size_t>(n_);
  for (std::size_t b = 0; b <= m; ++b) {
    if (has_entry[b]) {
      entry_of[b] = ctx.entry_sym.size();
      ctx.entry_sym.push_back(static_cast<int>(b) - 1);
      ctx.entry_seeds.push_back(b == 0 ? 1 : n);
    }
    if (has_exit[b]) {
      exit_of[b] = ctx.exit_sym.size();
      ctx.exit_sym.push_back(static_cast<int>(b) - 1);
      ctx.exit_seeds.push_back(b == 0 ? 1 : n);
    }
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i] == keys[i - 1]) {
      ctx.segments.back().count += 1.0;
      continue;
    }
    ctx.segments.push_back(
        {entry_of[keys[i][0]], exit_of[keys[i][1]], keys[i][2], 1.0});
  }
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  // The received-probe skeleton: with N = 1 the state at every received
  // probe is certain and the bigram counts above are its whole E-step.
  std::size_t received = 0;
  for (double r : ctx.received) received += static_cast<std::size_t>(r);
  if (n_ == 1 || received == 0) return;
  const auto seg_of = [&](const Key& k) {
    return static_cast<int>(std::lower_bound(keys.begin(), keys.end(), k) -
                            keys.begin());
  };
  const int n_bigrams = static_cast<int>(ctx.bigrams.size());
  if (sym(seq.front()) < 0) ctx.head = seg_of(runs.front());
  if (sym(seq.back()) < 0) ctx.tail = seg_of(runs.back());
  ctx.steps.reserve(received);
  std::size_t run = ctx.head >= 0 ? 1 : 0;  // next run in sequence order
  int prev = -1;
  for (std::size_t t = 0; t < t_len; ++t) {
    const int d = sym(seq[t]);
    if (d < 0) continue;
    if (prev < 0)
      ctx.steps.push_back(0);
    else if (sym(seq[t - 1]) >= 0)
      ctx.steps.push_back(bigram_of[static_cast<std::size_t>(prev) * m +
                                    static_cast<std::size_t>(d)]);
    else
      ctx.steps.push_back(n_bigrams + seg_of(runs[run++]));
    prev = d;
  }
  ctx.fold_runs(n);
}

void Mmhd::FitContext::fold_runs(std::size_t n) {
  const std::size_t nb = bigrams.size();
  const std::size_t m = received.size();
  // The symbol of each self bigram (d, d), -1 for the others.
  std::vector<int> self(nb, -1);
  for (std::size_t b = 0; b < nb; ++b)
    if (bigrams[b].from == bigrams[b].to) self[b] = bigrams[b].from;
  // The symbol of step k when it is a self-step, else -1, and the end of
  // the run of equal steps from k.
  const auto self_sym = [&](std::size_t k) {
    const auto b = static_cast<std::size_t>(steps[k]);
    return b < nb ? self[b] : -1;
  };
  const auto run_end = [&](std::size_t k) {
    std::size_t e = k;
    while (e < steps.size() && steps[e] == steps[k]) ++e;
    return e;
  };
  // Run lengths per symbol.
  std::vector<std::vector<std::size_t>> lens(m);
  for (std::size_t k = 1; k < steps.size();) {
    const int d = self_sym(k);
    const std::size_t e = d >= 0 ? run_end(k) : k + 1;
    if (e - k >= 2) lens[static_cast<std::size_t>(d)].push_back(e - k);
    k = e;
  }

  // A symbol folds when the sweep steps its runs remove outweigh the work
  // the fold adds per iteration: one recurrence level per unit of its
  // longest run and one N x N product per power, each costing at most
  // about N / 2 sweep steps (a level measured 0.75, 1.3 and 1.6 steps at
  // N = 2, 3, 4 on x86-64), so the rule errs toward not folding.
  std::vector<int> fold_of(m, -1);
  for (std::size_t d = 0; d < m; ++d) {
    std::vector<std::size_t>& l = lens[d];
    if (l.empty()) continue;
    std::sort(l.begin(), l.end());
    double saved = 0.0;
    for (std::size_t r : l) saved += static_cast<double>(r - 1);
    std::size_t products = 0, have = 0;
    for (std::size_t i = 0; i < l.size(); ++i) {
      if (i > 0 && l[i] == l[i - 1]) continue;
      products += static_cast<std::size_t>(std::popcount(l[i] - have));
      have = l[i];
    }
    products += static_cast<std::size_t>(std::bit_width(l.back()));
    const double work = static_cast<double>(n) / 2.0 *
                        static_cast<double>(l.back() + products);
    if (saved <= work) continue;
    Fold f;
    f.sym = static_cast<int>(d);
    for (std::size_t b = 0; b < nb; ++b)
      if (self[b] == f.sym) f.bigram = b;
    f.begin = run_keys.size();
    for (std::size_t i = 0; i < l.size(); ++i) {
      if (i > 0 && l[i] == l[i - 1])
        run_keys.back().count += 1.0;
      else
        run_keys.push_back({l[i], 1.0});
    }
    f.end = run_keys.size();
    fold_of[d] = static_cast<int>(folds.size());
    folds.push_back(f);
  }
  if (folds.empty()) return;

  // Rewrite the step list: a folded run becomes its key's block.
  const int base = static_cast<int>(nb + segments.size());
  std::vector<int> folded;
  folded.reserve(steps.size());
  folded.push_back(steps[0]);
  for (std::size_t k = 1; k < steps.size();) {
    const int d = self_sym(k);
    const std::size_t e = d >= 0 ? run_end(k) : k + 1;
    const int fi = d >= 0 ? fold_of[static_cast<std::size_t>(d)] : -1;
    if (fi < 0 || e - k < 2) {
      for (; k < e; ++k) folded.push_back(steps[k]);
      continue;
    }
    const Fold& f = folds[static_cast<std::size_t>(fi)];
    const auto key = std::lower_bound(
        run_keys.begin() + static_cast<std::ptrdiff_t>(f.begin),
        run_keys.begin() + static_cast<std::ptrdiff_t>(f.end), e - k,
        [](const RunKey& a, std::size_t len) { return a.len < len; });
    folded.push_back(base + static_cast<int>(key - run_keys.begin()));
    k = e;
  }
  steps = std::move(folded);
}

double Mmhd::forward_backward(const std::vector<int>& seq,
                              Trellis& w) const {
  const std::size_t t_len = seq.size();
  const auto s_count = static_cast<std::size_t>(states());
  w.alpha = util::Matrix(t_len, s_count);
  w.beta = util::Matrix(t_len, s_count);
  w.scale.assign(t_len, 0.0);

  // Losses may only be attributed to symbols observed somewhere in the
  // sequence (see active_states).
  const std::vector<char> support = observed_support(seq, m_);

  // Build the active-set index.
  w.active.clear();
  w.offset.assign(t_len + 1, 0);
  std::vector<int> act;
  for (std::size_t t = 0; t < t_len; ++t) {
    active_states(seq[t], support, act);
    w.active.insert(w.active.end(), act.begin(), act.end());
    w.offset[t + 1] = w.active.size();
  }

  // Forward.
  double sum = 0.0;
  for (const int* s = w.begin(0); s != w.end(0); ++s) {
    const double v =
        pi_[static_cast<std::size_t>(*s)] * emission(*s, seq[0]);
    w.alpha(0, static_cast<std::size_t>(*s)) = v;
    sum += v;
  }
  DCL_ENSURE_MSG(sum > 0.0, "impossible observation at t=0");
  w.scale[0] = sum;
  for (const int* s = w.begin(0); s != w.end(0); ++s)
    w.alpha(0, static_cast<std::size_t>(*s)) /= sum;

  for (std::size_t t = 1; t < t_len; ++t) {
    sum = 0.0;
    for (const int* j = w.begin(t); j != w.end(t); ++j) {
      double acc = 0.0;
      for (const int* i = w.begin(t - 1); i != w.end(t - 1); ++i)
        acc += w.alpha(t - 1, static_cast<std::size_t>(*i)) *
               a_(static_cast<std::size_t>(*i), static_cast<std::size_t>(*j));
      const double v = acc * emission(*j, seq[t]);
      w.alpha(t, static_cast<std::size_t>(*j)) = v;
      sum += v;
    }
    DCL_ENSURE_MSG(sum > 0.0, "impossible observation at t=" << t);
    w.scale[t] = sum;
    for (const int* j = w.begin(t); j != w.end(t); ++j)
      w.alpha(t, static_cast<std::size_t>(*j)) /= sum;
  }

  // Backward.
  for (const int* s = w.begin(t_len - 1); s != w.end(t_len - 1); ++s)
    w.beta(t_len - 1, static_cast<std::size_t>(*s)) = 1.0;
  for (std::size_t t = t_len - 1; t-- > 0;) {
    for (const int* i = w.begin(t); i != w.end(t); ++i) {
      double acc = 0.0;
      for (const int* j = w.begin(t + 1); j != w.end(t + 1); ++j)
        acc += a_(static_cast<std::size_t>(*i),
                  static_cast<std::size_t>(*j)) *
               emission(*j, seq[t + 1]) *
               w.beta(t + 1, static_cast<std::size_t>(*j));
      w.beta(t, static_cast<std::size_t>(*i)) = acc / w.scale[t + 1];
    }
  }

  double ll = 0.0;
  for (double c : w.scale) ll += std::log(c);
  return ll;
}

void Mmhd::build_transition_prior(const std::vector<int>& seq,
                                  double strength, FitContext& ctx) const {
  const std::size_t width = ctx.loss_states.size();
  ctx.prior = util::Matrix(width, width, 0.0);
  // Observed adjacent symbol pairs (pairs spanning a loss are skipped —
  // the point is to anchor transitions to loss-free evidence). Each bigram
  // (d, d') spreads uniformly over the N x N hidden combinations, all of
  // them live states.
  const double unit = strength / static_cast<double>(n_ * n_);
  const auto live = [&](int h, int d) {
    return static_cast<std::size_t>(
        ctx.compact[static_cast<std::size_t>(state_of(h, d))]);
  };
  for (std::size_t t = 0; t + 1 < seq.size(); ++t) {
    const int d0 = sym(seq[t]);
    const int d1 = sym(seq[t + 1]);
    if (d0 < 0 || d1 < 0) continue;
    for (int h0 = 0; h0 < n_; ++h0)
      for (int h1 = 0; h1 < n_; ++h1)
        ctx.prior(live(h0, d0), live(h1, d1)) += unit;
  }
}

std::pair<double, double> Mmhd::em_step_reference(
    const std::vector<int>& seq, const FitContext& ctx, Workspace& ws) {
  const std::size_t t_len = seq.size();
  const auto s_count = static_cast<std::size_t>(states());
  Trellis& w = ws.w;
  const double ll = forward_backward(seq, w);

  ws.new_pi.assign(s_count, 0.0);
  zero_numerators(ctx, ws);
  const int* compact = ctx.compact.data();
  ws.c_loss.assign(static_cast<std::size_t>(m_), 0.0);
  ws.c_total.assign(static_cast<std::size_t>(m_), 0.0);

  for (std::size_t t = 0; t < t_len; ++t) {
    double gsum = 0.0;
    for (const int* s = w.begin(t); s != w.end(t); ++s)
      gsum += w.alpha(t, static_cast<std::size_t>(*s)) *
              w.beta(t, static_cast<std::size_t>(*s));
    DCL_ENSURE(gsum > 0.0);

    const bool is_loss = sym(seq[t]) < 0;
    for (const int* s = w.begin(t); s != w.end(t); ++s) {
      const auto si = static_cast<std::size_t>(*s);
      const double g = w.alpha(t, si) * w.beta(t, si) / gsum;
      if (t == 0) ws.new_pi[si] = g;
      const auto d = static_cast<std::size_t>(symbol_of_state(*s));
      if (is_loss) ws.c_loss[d] += g;
      ws.c_total[d] += g;
    }

    if (t + 1 < t_len) {
      for (const int* i = w.begin(t); i != w.end(t); ++i) {
        const auto ii = static_cast<std::size_t>(*i);
        const double ai = w.alpha(t, ii);
        if (ai == 0.0) continue;
        double* a_row = ws.a_num.row(static_cast<std::size_t>(compact[ii]));
        for (const int* j = w.begin(t + 1); j != w.end(t + 1); ++j) {
          const auto jj = static_cast<std::size_t>(*j);
          a_row[compact[jj]] += ai * a_(ii, jj) * emission(*j, seq[t + 1]) *
                                w.beta(t + 1, jj) / w.scale[t + 1];
        }
      }
    }
  }

  return {ll, m_step(ctx, ws)};
}

void Mmhd::zero_numerators(const FitContext& ctx, Workspace& ws) const {
  const std::size_t width = ctx.loss_states.size();
  if (ws.a_num.data().size() != width * width)
    ws.a_num = util::Matrix(width, width);
  ws.a_num.fill(0.0);
}

double Mmhd::m_step(const FitContext& ctx, Workspace& ws) {
  const auto s_count = static_cast<std::size_t>(states());
  const auto m = static_cast<std::size_t>(m_);
  const std::vector<int>& live = ctx.loss_states;
  const std::vector<int>& dead = ctx.dead_states;
  const std::size_t width = live.size();
  const bool first = ws.m_steps == 0;
  // Snapshot the entering parameters. Copy-assignments reuse the existing
  // storage; A's buffers swap, so the new A is written over the one from
  // two steps back (allocated at a fit's first M-step).
  ws.old_pi = pi_;
  ws.old_c = c_;
  std::swap(a_, ws.old_a);
  if (a_.data().size() != s_count * s_count)  // also a moved-from matrix
    a_ = util::Matrix(s_count, s_count);
  const util::Matrix& old_a = ws.old_a;

  pi_ = ws.new_pi;
  for (std::size_t d = 0; d < m; ++d)
    if (ws.c_total[d] > 0.0) c_[d] = ws.c_loss[d] / ws.c_total[d];
  for (auto& x : pi_) x = std::max(x, kFloor);
  util::normalize(pi_);
  for (auto& x : c_) x = std::clamp(x, kFloor, 1.0 - 1e-9);
  // The loss-step gamma sums, divided by the loss count, are the paper's
  // eq. (5) posterior for the entering parameters — the kernel engine
  // never retains a beta trellis for it.
  ws.kpmf = ws.c_loss;

  double delta = 0.0;
  for (std::size_t s = 0; s < s_count; ++s)
    delta = std::max(delta, std::abs(pi_[s] - ws.old_pi[s]));
  for (std::size_t d = 0; d < m; ++d)
    delta = std::max(delta, std::abs(c_[d] - ws.old_c[d]));

  // A: what normalizing the numerators, flooring at kFloor and
  // renormalizing (clamp_parameters) gives, computed over the live states
  // only. Transition mass and the prior sit on live rows x live columns,
  // so a live row's dead entries are its floor and a dead row is uniform.
  for (std::size_t r = 0; r < width; ++r) {
    double* num = ws.a_num.row(r);
    if (ctx.use_prior) {
      const double* pr = ctx.prior.row(r);
      for (std::size_t j = 0; j < width; ++j) num[j] += pr[j];
    }
    double sum = 0.0;
    for (std::size_t j = 0; j < width; ++j) sum += num[j];
    double* arow = a_.row(static_cast<std::size_t>(live[r]));
    const double* orow = old_a.row(static_cast<std::size_t>(live[r]));
    double dead_value = ctx.uniform;
    if (sum > 0.0) {
      double floored = 0.0;
      for (std::size_t j = 0; j < width; ++j) {
        num[j] = std::max(num[j] / sum, kFloor);
        floored += num[j];
      }
      // The dead columns' floor mass, in closed form.
      floored += static_cast<double>(dead.size()) * kFloor;
      for (std::size_t j = 0; j < width; ++j) {
        const auto c = static_cast<std::size_t>(live[j]);
        arow[c] = num[j] / floored;
        delta = std::max(delta, std::abs(arow[c] - orow[c]));
      }
      dead_value = kFloor / floored;
    } else {
      // No mass at all: the full M-step's uniform row.
      for (std::size_t j = 0; j < width; ++j) {
        const auto c = static_cast<std::size_t>(live[j]);
        arow[c] = ctx.uniform;
        delta = std::max(delta, std::abs(arow[c] - orow[c]));
      }
    }
    // A live row's dead entries are equal once an M-step of this fit
    // wrote them, so after the first M-step one of them stands for all.
    for (int c : dead) arow[c] = dead_value;
    if (first) {
      for (int c : dead)
        delta = std::max(delta, std::abs(dead_value - orow[c]));
    } else if (!dead.empty()) {
      delta = std::max(delta, std::abs(dead_value - orow[dead.front()]));
    }
  }
  // Dead rows get the same uniform row at every M-step: written into each
  // of the two buffers once, and changed only at the first M-step.
  if (ws.m_steps < 2) {
    for (int s : dead) {
      double* arow = a_.row(static_cast<std::size_t>(s));
      const double* orow = old_a.row(static_cast<std::size_t>(s));
      for (std::size_t c = 0; c < s_count; ++c) {
        arow[c] = ctx.uniform;
        if (first) delta = std::max(delta, std::abs(arow[c] - orow[c]));
      }
    }
  }
  ++ws.m_steps;
  return delta;
}

std::pair<double, double> Mmhd::em_step(const std::vector<int>& seq,
                                        const FitContext& ctx,
                                        Workspace& ws) {
  if (ctx.reference) return em_step_reference(seq, ctx, ws);
  return em_step_segments(ctx, ws);
}

void Mmhd::build_segment_chain(const FitContext& ctx, Workspace& ws) const {
  fb::SegmentChain& sc = ws.seg;
  const std::vector<int>& ls = ctx.loss_states;
  const std::size_t n = ls.size();
  sc.init(n, ctx.entry_seeds, ctx.exit_seeds);
  const std::size_t w = sc.stride();
  std::vector<double>& ce = ws.loss_emit;
  ce.resize(n);
  for (std::size_t j = 0; j < n; ++j)
    ce[j] = c_[static_cast<std::size_t>(symbol_of_state(ls[j]))];
  double* loss = sc.loss.row(0);
  double* loss_t = sc.loss_t.row(0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a_.row(static_cast<std::size_t>(ls[i]));
    for (std::size_t j = 0; j < n; ++j) {
      const double val = arow[static_cast<std::size_t>(ls[j])] * ce[j];
      loss[i * w + j] = val;
      loss_t[j * w + i] = val;
    }
  }
  for (std::size_t e = 0; e < ctx.entry_sym.size(); ++e) {
    const int l = ctx.entry_sym[e];
    for (std::size_t h = 0; h < ctx.entry_seeds[e]; ++h) {
      double* row = sc.entry.row(sc.entry_begin[e] + h);
      const double* from =
          l < 0 ? pi_.data()
                : a_.row(static_cast<std::size_t>(state_of(static_cast<int>(h), l)));
      for (std::size_t j = 0; j < n; ++j)
        row[j] = from[static_cast<std::size_t>(ls[j])] * ce[j];
    }
  }
  for (std::size_t x = 0; x < ctx.exit_sym.size(); ++x) {
    const int r = ctx.exit_sym[x];
    for (std::size_t h = 0; h < ctx.exit_seeds[x]; ++h) {
      double* row = sc.exit.row(sc.exit_begin[x] + h);
      if (r < 0) {
        std::fill(row, row + n, 1.0);
        continue;
      }
      const auto to =
          static_cast<std::size_t>(state_of(static_cast<int>(h), r));
      const double keep = 1.0 - c_[static_cast<std::size_t>(r)];
      for (std::size_t i = 0; i < n; ++i)
        row[i] = a_(static_cast<std::size_t>(ls[i]), to) * keep;
    }
  }
}

void Mmhd::build_skeleton(const FitContext& ctx, Workspace& ws) const {
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t nn = n * n;
  const std::size_t nb = ctx.bigrams.size();
  ws.blocks.resize((nb + ctx.segments.size() + ctx.run_keys.size()) * nn);
  // Adjacent received pairs: A's (h, d) -> (h', d') block times 1 - C[d'].
  for (std::size_t b = 0; b < nb; ++b) {
    const FitContext::Bigram& bg = ctx.bigrams[b];
    const double keep = 1.0 - c_[static_cast<std::size_t>(bg.to)];
    double* blk = ws.blocks.data() + b * nn;
    for (std::size_t h = 0; h < n; ++h) {
      const double* arow =
          a_.row(static_cast<std::size_t>(state_of(static_cast<int>(h), bg.from)));
      for (std::size_t k = 0; k < n; ++k)
        blk[h * n + k] =
            arow[static_cast<std::size_t>(state_of(static_cast<int>(k), bg.to))] *
            keep;
    }
  }
  // Bridges, each scaled by the power of two that puts its largest entry
  // in [0.5, 1): the true block is the scaled one times 2^exponent, with
  // the entry sweep's renorms folded into the exponent. The skeleton
  // forward multiplies every bridged step by its scaled block, so the
  // exponents, summed over occurrences, are the rest of the likelihood.
  const fb::SegmentEStep& sa = ws.sacc;
  ws.bridge_exp = 0;
  ws.v0.resize(n);
  ws.tail.resize(n);
  for (std::size_t i = 0; i < ctx.segments.size(); ++i) {
    const double* src = sa.bridge.data() + sa.bridge_off[i];
    const std::size_t len = sa.bridge_off[i + 1] - sa.bridge_off[i];
    double* dst = static_cast<int>(i) == ctx.head   ? ws.v0.data()
                  : static_cast<int>(i) == ctx.tail ? ws.tail.data()
                                                    : ws.blocks.data() + (nb + i) * nn;
    std::copy(src, src + len, dst);
    const int ex = normalize_max(dst, len);
    ws.bridge_exp += static_cast<long long>(ctx.segments[i].count) *
                     (ex - 64 * static_cast<long long>(sa.bridge_renorms[i]));
  }
  build_run_blocks(ctx, ws);
  if (ctx.head < 0) {
    const auto d = static_cast<std::size_t>(ctx.first);
    for (std::size_t h = 0; h < n; ++h)
      ws.v0[h] = pi_[static_cast<std::size_t>(state_of(static_cast<int>(h),
                                                       ctx.first))] *
                 (1.0 - c_[d]);
  }
}

void Mmhd::build_run_blocks(const FitContext& ctx, Workspace& ws) const {
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t nn = n * n;
  const std::size_t base = ctx.bigrams.size() + ctx.segments.size();
  ws.run_exp.resize(ctx.run_keys.size());
  for (const FitContext::Fold& f : ctx.folds) {
    // Squarings, sq[j] * 2^sq_exp[j] = B_d^(2^j), then each key's power
    // from the previous key's: B_d^r = B_d^r' * prod over the bits j of
    // r - r' of B_d^(2^j). Every product is normalized and its exponent
    // carried, so no run length underflows or overflows.
    const auto levels =
        static_cast<std::size_t>(std::bit_width(ctx.run_keys[f.end - 1].len));
    ws.fold_scratch.resize((levels + 1) * nn);
    double* sq = ws.fold_scratch.data();
    double* tmp = sq + levels * nn;
    std::array<long long, 64> sq_exp{};
    const double* b = ws.blocks.data() + f.bigram * nn;
    std::copy(b, b + nn, sq);
    sq_exp[0] = normalize_max(sq, nn);
    for (std::size_t j = 1; j < levels; ++j)
      sq_exp[j] = 2 * sq_exp[j - 1] + mul_normalized(sq + (j - 1) * nn,
                                                     sq + (j - 1) * nn,
                                                     sq + j * nn, n);
    // The running power starts as the identity (products with it are
    // exact) and is each key's block once its bits are multiplied in.
    std::fill(tmp, tmp + nn, 0.0);
    for (std::size_t i = 0; i < n; ++i) tmp[i * n + i] = 1.0;
    const double* prev = tmp;
    long long power_exp = 0;
    std::size_t have = 0;
    for (std::size_t k = f.begin; k < f.end; ++k) {
      double* dst = ws.blocks.data() + (base + k) * nn;
      std::copy(prev, prev + nn, dst);
      for (std::size_t j = 0, gap = ctx.run_keys[k].len - have; gap != 0;
           ++j, gap >>= 1) {
        if ((gap & 1) == 0) continue;
        power_exp += sq_exp[j] + mul_normalized(dst, sq + j * nn, tmp, n);
        std::copy(tmp, tmp + nn, dst);
      }
      ws.run_exp[k] = power_exp;
      ws.bridge_exp +=
          static_cast<long long>(ctx.run_keys[k].count) * power_exp;
      prev = dst;
      have = ctx.run_keys[k].len;
    }
  }
}

void Mmhd::run_interiors(const FitContext& ctx, Workspace& ws) const {
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t nn = n * n;
  const std::size_t base = ctx.bigrams.size() + ctx.segments.size();
  ws.run_z.resize(ctx.folds.size() * nn);
  ws.run_z_exp.resize(ctx.folds.size());
  ws.fold_scratch.resize(5 * nn);
  for (std::size_t fi = 0; fi < ctx.folds.size(); ++fi) {
    const FitContext::Fold& f = ctx.folds[fi];
    const double* b = ws.blocks.data() + f.bigram * nn;
    const double* x = ws.sweep.outer.data() + (base + f.begin) * nn;
    const FitContext::RunKey* keys = ctx.run_keys.data() + f.begin;
    const long long* exps = ws.run_exp.data() + f.begin;
    const std::size_t count = f.end - f.begin;
    double* z = ws.run_z.data() + fi * nn;
    double* scratch = ws.fold_scratch.data();
    long long& ex = ws.run_z_exp[fi];
    if (n == 2)
      ex = run_interior<2>(b, x, keys, exps, count, scratch, z, n);
    else if (n == 3)
      ex = run_interior<3>(b, x, keys, exps, count, scratch, z, n);
    else if (n == 4)
      ex = run_interior<4>(b, x, keys, exps, count, scratch, z, n);
    else
      ex = run_interior<0>(b, x, keys, exps, count, scratch, z, n);
  }
}

void Mmhd::bridge_loss_runs(const FitContext& ctx, Workspace& ws) const {
  build_segment_chain(ctx, ws);
  ws.sacc.prepare(ws.seg, ctx.segments);
  fb::segment_bridges(ws.seg, ctx.segments, ws.sacc);
}

double Mmhd::skeleton_forward(const FitContext& ctx, Workspace& ws) const {
  build_skeleton(ctx, ws);
  const auto n = static_cast<std::size_t>(n_);
  ws.sweep.prepare(
      ctx.bigrams.size() + ctx.segments.size() + ctx.run_keys.size(), n);
  const double log_mass = fb::skeleton_sweep(
      ws.blocks.data(), n, ctx.steps, ws.v0.data(),
      ctx.tail >= 0 ? ws.tail.data() : nullptr, ws.sweep);
  return log_mass +
         static_cast<double>(ws.bridge_exp - ws.sweep.renorm_total) *
             std::log(2.0);
}

double Mmhd::certain_forward(const FitContext& ctx, Workspace& ws) const {
  // Every received probe's state is certain (N = 1, or none received):
  // the expansion needs no skeleton weights and measures each loss run's
  // mass as it goes, and each received step adds a closed-form factor.
  double ll = fb::segment_expand(ws.seg, ctx.segments, ws.sacc);
  if (ctx.first >= 0) {
    const auto d = static_cast<std::size_t>(ctx.first);
    ll += std::log(pi_[d] * (1.0 - c_[d]));
  }
  for (const FitContext::Bigram& b : ctx.bigrams) {
    const auto d = static_cast<std::size_t>(b.to);
    ll += b.count *
          std::log(a_(static_cast<std::size_t>(b.from), d) * (1.0 - c_[d]));
  }
  return ll;
}

std::pair<double, double> Mmhd::em_step_segments(const FitContext& ctx,
                                                 Workspace& ws) {
  const auto m = static_cast<std::size_t>(m_);
  const auto n = static_cast<std::size_t>(n_);
  const std::vector<int>& ls = ctx.loss_states;
  const std::size_t width = ls.size();
  const std::size_t nb = ctx.bigrams.size();
  const bool skeleton = !ctx.steps.empty();
  // Compact (live) index of state (h, d).
  const auto live = [&](std::size_t h, int d) {
    return static_cast<std::size_t>(ctx.compact[static_cast<std::size_t>(
        state_of(static_cast<int>(h), d))]);
  };

  // The three stages split an iteration: the loss-run kernels
  // (em.mmhd.segments), the received-probe sweep with its run blocks and
  // run interiors (em.mmhd.sweep), and the M-step (em.mmhd.mstep).
  {
    DCL_STAGE("em.mmhd.segments");
    bridge_loss_runs(ctx, ws);
  }
  double ll = 0.0;
  fb::SegmentEStep& acc = ws.sacc;
  const fb::SkeletonSweep& sw = ws.sweep;
  if (skeleton) {
    {
      DCL_STAGE("em.mmhd.sweep");
      ll = skeleton_forward(ctx, ws);
      run_interiors(ctx, ws);
    }
    DCL_STAGE("em.mmhd.segments");
    // Skeleton posterior weights: a bridged step's xi divided by its block
    // is the outer-product sum; the end rows carry the two boundary runs'.
    for (std::size_t i = 0; i < ctx.segments.size(); ++i) {
      const double* src =
          static_cast<int>(i) == ctx.head   ? sw.first.data()
          : static_cast<int>(i) == ctx.tail ? sw.last.data()
                                            : sw.outer.data() + (nb + i) * n * n;
      std::copy(src, src + (acc.bridge_off[i + 1] - acc.bridge_off[i]),
                acc.weight.data() + acc.bridge_off[i]);
    }
    fb::segment_expand(ws.seg, ctx.segments, acc);
  } else {
    DCL_STAGE("em.mmhd.segments");
    ll = certain_forward(ctx, ws);
  }

  DCL_STAGE("em.mmhd.mstep");
  ws.new_pi.assign(static_cast<std::size_t>(states()), 0.0);
  if (ctx.first >= 0) {
    const int d = ctx.first;
    if (skeleton) {
      for (std::size_t h = 0; h < n; ++h)
        ws.new_pi[static_cast<std::size_t>(state_of(static_cast<int>(h), d))] =
            ws.v0[h] * sw.first[h];
    } else {
      ws.new_pi[static_cast<std::size_t>(d)] = 1.0;
    }
  }
  zero_numerators(ctx, ws);
  for (std::size_t b = 0; b < nb; ++b) {
    const FitContext::Bigram& bg = ctx.bigrams[b];
    if (!skeleton) {
      ws.a_num(live(0, bg.from), live(0, bg.to)) += bg.count;
      continue;
    }
    const double* o = sw.outer.data() + b * n * n;
    const double* blk = ws.blocks.data() + b * n * n;
    for (std::size_t h = 0; h < n; ++h) {
      double* a_row = ws.a_num.row(live(h, bg.from));
      for (std::size_t k = 0; k < n; ++k)
        a_row[live(k, bg.to)] += o[h * n + k] * blk[h * n + k];
    }
  }
  // The transitions inside folded runs: B_d o Z on bigram (d, d)'s entries.
  for (std::size_t fi = 0; fi < ctx.folds.size(); ++fi) {
    const FitContext::Fold& f = ctx.folds[fi];
    const double* z = ws.run_z.data() + fi * n * n;
    const double* blk = ws.blocks.data() + f.bigram * n * n;
    const auto ex = static_cast<int>(ws.run_z_exp[fi]);
    for (std::size_t h = 0; h < n; ++h) {
      double* a_row = ws.a_num.row(live(h, f.sym));
      for (std::size_t k = 0; k < n; ++k)
        a_row[live(k, f.sym)] += std::ldexp(z[h * n + k] * blk[h * n + k], ex);
    }
  }
  // Boundary transitions: the xi from a left boundary state (the start:
  // pi) into a segment's first step, and from its last step into a right
  // boundary state.
  for (std::size_t e = 0; e < ctx.entry_sym.size(); ++e) {
    const int l = ctx.entry_sym[e];
    for (std::size_t h = 0; h < ctx.entry_seeds[e]; ++h) {
      const double* row = acc.entry_gamma.row(ws.seg.entry_begin[e] + h);
      if (l < 0) {
        for (std::size_t j = 0; j < width; ++j)
          ws.new_pi[static_cast<std::size_t>(ls[j])] = row[j];
        continue;
      }
      double* to = ws.a_num.row(live(h, l));
      for (std::size_t j = 0; j < width; ++j) to[j] += row[j];
    }
  }
  for (std::size_t x = 0; x < ctx.exit_sym.size(); ++x) {
    const int r = ctx.exit_sym[x];
    if (r < 0) continue;
    for (std::size_t h = 0; h < ctx.exit_seeds[x]; ++h) {
      const double* row = acc.exit_gamma.row(ws.seg.exit_begin[x] + h);
      const std::size_t to = live(h, r);
      for (std::size_t i = 0; i < width; ++i) ws.a_num(i, to) += row[i];
    }
  }
  // Loss -> loss xi: the summed outer products times the folded block.
  for (std::size_t i = 0; i < width; ++i) {
    const double* o = acc.outer.row(i);
    const double* f = ws.seg.loss.row(i);
    double* a_row = ws.a_num.row(i);
    for (std::size_t j = 0; j < width; ++j) a_row[j] += o[j] * f[j];
  }

  // Every received step's gamma is one unit on its symbol.
  ws.c_loss.assign(m, 0.0);
  ws.c_total = ctx.received;
  for (std::size_t k = 0; k < width; ++k) {
    const auto d = static_cast<std::size_t>(symbol_of_state(ls[k]));
    ws.c_loss[d] += acc.gamma[k];
    ws.c_total[d] += acc.gamma[k];
  }
  return {ll, m_step(ctx, ws)};
}

void Mmhd::install_entering(Workspace& ws) {
  pi_ = std::move(ws.old_pi);
  a_ = std::move(ws.old_a);
  c_ = std::move(ws.old_c);
}

FitResult Mmhd::fit(const std::vector<int>& seq, const EmOptions& opts) {
  return detail::RestartSet<Mmhd>(*this, seq, opts).run();
}

util::Pmf Mmhd::fitted_posterior(const std::vector<int>& seq,
                                 const FitContext& ctx, const Workspace& ws,
                                 std::size_t losses) const {
  if (ctx.reference) return mean_pmf(loss_posteriors(seq, ws.w), m_);
  util::Pmf pmf(ws.kpmf.begin(), ws.kpmf.end());
  if (losses > 0)
    for (auto& p : pmf) p /= static_cast<double>(losses);
  return pmf;
}

util::Pmf Mmhd::virtual_delay_pmf(const std::vector<int>& seq) const {
  return mean_pmf(per_loss_posteriors(seq), m_);
}

std::vector<util::Pmf> Mmhd::per_loss_posteriors(
    const std::vector<int>& seq) const {
  Trellis w;
  forward_backward(seq, w);
  return loss_posteriors(seq, w);
}

std::vector<util::Pmf> Mmhd::loss_posteriors(const std::vector<int>& seq,
                                             const Trellis& w) const {
  // P(D = d | loss) at each loss step: the smoothed posterior over the
  // active composite states, marginalized to the symbol dimension.
  std::vector<util::Pmf> out;
  for (std::size_t t = 0; t < seq.size(); ++t) {
    if (sym(seq[t]) >= 0) continue;
    util::Pmf pmf(static_cast<std::size_t>(m_), 0.0);
    double gsum = 0.0;
    for (const int* s = w.begin(t); s != w.end(t); ++s)
      gsum += w.alpha(t, static_cast<std::size_t>(*s)) *
              w.beta(t, static_cast<std::size_t>(*s));
    for (const int* s = w.begin(t); s != w.end(t); ++s) {
      const auto si = static_cast<std::size_t>(*s);
      pmf[static_cast<std::size_t>(symbol_of_state(*s))] +=
          w.alpha(t, si) * w.beta(t, si) / gsum;
    }
    out.push_back(std::move(pmf));
  }
  return out;
}

double Mmhd::log_likelihood(const std::vector<int>& seq) const {
  // Likelihood-only evaluation is the default engine's forward half: the
  // loss-run bridges, then the received-probe sweep (closed form when
  // N = 1).
  DCL_ENSURE_MSG(!seq.empty(), "log_likelihood: empty sequence");
  EmOptions engine;  // the default engine; the prior only shapes the M-step
  engine.transition_prior = 0.0;
  const FitContext ctx = make_context(seq, engine);
  Workspace ws;
  bridge_loss_runs(ctx, ws);
  return ctx.steps.empty() ? certain_forward(ctx, ws)
                           : skeleton_forward(ctx, ws);
}

std::vector<int> Mmhd::viterbi(const std::vector<int>& seq) const {
  DCL_ENSURE(!seq.empty());
  const auto s_count = static_cast<std::size_t>(states());
  const std::size_t t_len = seq.size();

  // Same support restriction as the EM (losses only attributed to
  // observed symbols).
  const std::vector<char> support = observed_support(seq, m_);

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> delta(s_count, kNegInf), next(s_count, kNegInf);
  // Backpointers, stored densely (T x S ints).
  std::vector<int> back(t_len * s_count, -1);
  std::vector<int> act, act_prev;

  active_states(seq[0], support, act);
  for (int s : act) {
    const double e = emission(s, seq[0]);
    if (e > 0.0)
      delta[static_cast<std::size_t>(s)] =
          std::log(pi_[static_cast<std::size_t>(s)]) + std::log(e);
  }

  for (std::size_t t = 1; t < t_len; ++t) {
    act_prev.swap(act);
    active_states(seq[t], support, act);
    std::fill(next.begin(), next.end(), kNegInf);
    for (int j : act) {
      const double e = emission(j, seq[t]);
      if (e <= 0.0) continue;
      double best = kNegInf;
      int best_i = -1;
      for (int i : act_prev) {
        const double v =
            delta[static_cast<std::size_t>(i)] +
            std::log(a_(static_cast<std::size_t>(i),
                        static_cast<std::size_t>(j)));
        if (v > best) {
          best = v;
          best_i = i;
        }
      }
      next[static_cast<std::size_t>(j)] = best + std::log(e);
      back[t * s_count + static_cast<std::size_t>(j)] = best_i;
    }
    delta.swap(next);
  }

  // Backtrack from the best final state.
  int s_best = act.front();
  for (int s : act)
    if (delta[static_cast<std::size_t>(s)] >
        delta[static_cast<std::size_t>(s_best)])
      s_best = s;
  std::vector<int> symbols(t_len, 0);
  int s_cur = s_best;
  for (std::size_t t = t_len; t-- > 0;) {
    symbols[t] = symbol_of_state(s_cur) + 1;
    if (t > 0) s_cur = back[t * s_count + static_cast<std::size_t>(s_cur)];
  }
  return symbols;
}

MmhdRefitter::MmhdRefitter(const Mmhd& fitted, const EmOptions& opts)
    : model_(fitted),
      pi0_(fitted.pi_),
      c0_(fitted.c_),
      a0_(fitted.a_),
      opts_(opts),
      ws_(std::make_unique<Mmhd::Workspace>()) {
  DCL_ENSURE(opts_.max_iterations >= 1);
  // A refit is one warm EM run inside a replicate loop: no restarts to
  // race or parallelize, and per-iteration telemetry would swamp any
  // observer attached for the point fit.
  opts_.restarts = 1;
  opts_.threads = 1;
  opts_.race_warmup = 0;
  opts_.observer = nullptr;
  ws_->prepare(model_);
}

MmhdRefitter::~MmhdRefitter() = default;
MmhdRefitter::MmhdRefitter(MmhdRefitter&&) noexcept = default;
MmhdRefitter& MmhdRefitter::operator=(MmhdRefitter&&) noexcept = default;

FitResult MmhdRefitter::refit(const std::vector<int>& seq) {
  DCL_ENSURE_MSG(seq.size() >= 2, "need at least two observations to refit");
  const std::size_t losses = loss_count(seq);

  // Reset to the snapshot: every refit starts from the point estimate, not
  // from wherever the previous replicate's EM ended.
  model_.pi_ = pi0_;
  model_.a_ = a0_;
  model_.c_ = c0_;

  const Mmhd::FitContext ctx = model_.make_context(seq, opts_);
  Mmhd::Workspace& ws = *ws_;
  ws.prepare(model_);

  FitResult res;
  double ll_last = -std::numeric_limits<double>::infinity();
  while (res.iterations < opts_.max_iterations) {
    const auto [ll, delta] = model_.em_step(seq, ctx, ws);
    res.log_likelihood_history.push_back(ll);
    ll_last = ll;
    ++res.iterations;
    if (delta < opts_.tolerance) {
      res.converged = true;
      break;
    }
  }

  // Same conventions as a fit's restarts: install the parameters entering
  // the final step (ll_last is their likelihood) and reuse the retained
  // trellis or accumulators for the posterior.
  model_.install_entering(ws);
  res.log_likelihood = ll_last;
  res.losses = losses;
  res.virtual_delay_pmf = model_.fitted_posterior(seq, ctx, ws, losses);
  return res;
}

}  // namespace dcl::inference
