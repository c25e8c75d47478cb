#include "inference/mmhd.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>

#include "inference/discretizer.h"
#include "inference/em_internal.h"
#include "inference/fb_kernels.h"
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
}  // namespace

struct Mmhd::Trellis {
  util::Matrix alpha;  // T x S, scaled; zero outside the active sets
  util::Matrix beta;   // T x S, scaled
  std::vector<double> scale;
  // Active state sets per step (flattened with offsets, to avoid T small
  // vector allocations).
  std::vector<int> active;
  std::vector<std::size_t> offset;  // size T+1

  const int* begin(std::size_t t) const { return active.data() + offset[t]; }
  const int* end(std::size_t t) const { return active.data() + offset[t + 1]; }
};

// Immutable per-fit inputs, computed once and shared (read-only) by every
// restart worker: the support mask, the live states, the transition prior,
// and — for the loss-segment engine — the received-pair counts, the
// segment table and the received-probe step list. The reference engine
// builds its own active sets inside every forward_backward call.
struct Mmhd::FitContext {
  bool reference = false;  // EmOptions::cache_emissions == false
  std::vector<char> support;
  // The live states: the N * S states of the S supported symbols,
  // ascending — the only ones a received probe or a loss can occupy, and
  // the compact coordinates of every loss step and of the M-step's
  // transition numerators. compact maps a state to its index in
  // loss_states (-1 for a dead state, whose symbol is never observed).
  std::vector<int> loss_states;
  std::vector<int> dead_states;
  std::vector<int> compact;
  // The row the full M-step gives a state with no transition mass: 1 / S
  // everywhere, floored and renormalized as clamp_parameters would.
  double uniform = 0.0;
  // Transition prior over live rows x live columns (zero elsewhere).
  util::Matrix prior;
  bool use_prior = false;

  // Loss-segment engine. A received probe pins the symbol, so adjacent
  // received pairs reduce to bigram counts (and, with N = 1, to fixed xi
  // counts).
  struct Bigram {
    int from = 0;
    int to = 0;
    double count = 0.0;
  };
  std::vector<Bigram> bigrams;      // adjacent received pairs, (from, to) order
  std::vector<double> received;     // per symbol, received steps
  int first = -1;                   // symbol of a received t = 0, else -1
  std::vector<int> entry_sym;       // entry boundary -> left symbol, -1 = start
  std::vector<int> exit_sym;        // exit boundary -> right symbol, -1 = end
  std::vector<std::size_t> entry_seeds, exit_seeds;  // per boundary: N, or 1
  std::vector<fb::LossSegment> segments;  // distinct keys, sorted
  // Received-probe skeleton (N >= 2 with a received probe; empty
  // otherwise): per received probe k >= 1 the block into it — a bigram
  // index, or bigrams.size() + the segment index across a loss run
  // (steps[0] is unused) — and the segments at the sequence start and end
  // (-1 when that end is received).
  std::vector<int> steps;
  int head = -1;
  int tail = -1;
};

// Per-restart mutable state besides the parameters: the reference
// engine's trellis, the segment engine's state, and the hoisted em_step
// accumulators. Sized once, reused across iterations.
struct Mmhd::Workspace {
  Trellis w;
  std::vector<double> new_pi, c_loss, c_total;
  util::Matrix a_num;  // transition numerators, live x live (compact)
  // Parameters entering the most recent em_step — the values the runner
  // installs at finalize, since the step's reported likelihood is theirs.
  // old_a is swapped with the model's matrix at each M-step, so the new
  // matrix is written over the one from two steps back.
  std::vector<double> old_pi, old_c;
  util::Matrix old_a;
  int m_steps = 0;  // M-steps of the current fit
  // Loss-posterior numerator (eq. (5) * losses) of the last em_step.
  std::vector<double> kpmf;
  // Loss-segment engine state: folded segment blocks and accumulators, C of
  // each loss state's symbol, and the received-probe skeleton — its N x N
  // blocks, the raw row at the first received probe (v0) and the trailing
  // bridge column (tail), the summed bridge exponent, trellis and E-step
  // accumulators.
  fb::SegmentChain seg;
  fb::SegmentEStep sacc;
  std::vector<double> loss_emit;
  util::AlignedVector<double> blocks, v0, tail;
  long long bridge_exp = 0;
  fb::SkeletonSweep sweep;

  // Starts a fit: the first M-steps rewrite the dead rows (see m_step).
  void prepare(const Mmhd&) { m_steps = 0; }
};

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
  ctx.support.assign(static_cast<std::size_t>(m_), 0);
  bool any_observed = false;
  for (int o : seq) {
    if (o != kLoss) {
      ctx.support[static_cast<std::size_t>(sym(o))] = 1;
      any_observed = true;
    }
  }
  if (!any_observed) ctx.support.assign(static_cast<std::size_t>(m_), 1);
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
}

double Mmhd::forward_backward(const std::vector<int>& seq,
                              Trellis& w) const {
  const std::size_t t_len = seq.size();
  const auto s_count = static_cast<std::size_t>(states());
  w.alpha = util::Matrix(t_len, s_count);
  w.beta = util::Matrix(t_len, s_count);
  w.scale.assign(t_len, 0.0);

  // Losses may only be attributed to symbols observed somewhere in the
  // sequence (see active_states); with no observed symbol at all fall back
  // to the full alphabet.
  std::vector<char> support(static_cast<std::size_t>(m_), 0);
  bool any_observed = false;
  for (int o : seq) {
    if (o != kLoss) {
      support[static_cast<std::size_t>(sym(o))] = 1;
      any_observed = true;
    }
  }
  if (!any_observed) support.assign(static_cast<std::size_t>(m_), 1);

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
  ws.blocks.resize((nb + ctx.segments.size()) * nn);
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
    const double mx = *std::max_element(src, src + len);
    DCL_ENSURE_MSG(mx > 0.0, "skeleton: zero bridge");
    int ex = 0;
    std::frexp(mx, &ex);
    const double scale = std::ldexp(1.0, -ex);
    ws.bridge_exp += static_cast<long long>(ctx.segments[i].count) *
                     (ex - 64 * static_cast<long long>(sa.bridge_renorms[i]));
    double* dst = static_cast<int>(i) == ctx.head   ? ws.v0.data()
                  : static_cast<int>(i) == ctx.tail ? ws.tail.data()
                                                    : ws.blocks.data() + (nb + i) * nn;
    for (std::size_t k = 0; k < len; ++k) dst[k] = src[k] * scale;
  }
  if (ctx.head < 0) {
    const auto d = static_cast<std::size_t>(ctx.first);
    for (std::size_t h = 0; h < n; ++h)
      ws.v0[h] = pi_[static_cast<std::size_t>(state_of(static_cast<int>(h),
                                                       ctx.first))] *
                 (1.0 - c_[d]);
  }
}

double Mmhd::segment_forward(const FitContext& ctx, Workspace& ws) const {
  build_segment_chain(ctx, ws);
  ws.sacc.prepare(ws.seg, ctx.segments);
  fb::segment_bridges(ws.seg, ctx.segments, ws.sacc);
  if (!ctx.steps.empty()) {
    build_skeleton(ctx, ws);
    const auto n = static_cast<std::size_t>(n_);
    ws.sweep.prepare(ctx.bigrams.size() + ctx.segments.size(), n);
    const double log_mass = fb::skeleton_sweep(
        ws.blocks.data(), n, ctx.steps, ws.v0.data(),
        ctx.tail >= 0 ? ws.tail.data() : nullptr, ws.sweep);
    return log_mass + static_cast<double>(ws.bridge_exp -
                                          ws.sweep.renorm_total) *
                          std::log(2.0);
  }
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

  const double ll = segment_forward(ctx, ws);
  fb::SegmentEStep& acc = ws.sacc;
  const fb::SkeletonSweep& sw = ws.sweep;
  if (skeleton) {
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
  }

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

Mmhd::StagedFit::StagedFit(Mmhd& model, const std::vector<int>& seq,
                           const EmOptions& opts)
    : impl_(std::make_unique<detail::RestartSet<Mmhd>>(model, seq, opts)) {}
Mmhd::StagedFit::~StagedFit() = default;
Mmhd::StagedFit::StagedFit(StagedFit&&) noexcept = default;
Mmhd::StagedFit& Mmhd::StagedFit::operator=(StagedFit&&) noexcept = default;
void Mmhd::StagedFit::advance(int upto) { impl_->advance(upto); }
bool Mmhd::StagedFit::finished() const { return impl_->finished(); }
int Mmhd::StagedFit::iterations() const { return impl_->iterations(); }
double Mmhd::StagedFit::best_ll() const { return impl_->best_ll(); }
double Mmhd::StagedFit::ll_upper_bound(double overtake) const {
  return impl_->ll_upper_bound(overtake);
}
FitResult Mmhd::StagedFit::finish() { return impl_->finish(); }

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
  return segment_forward(ctx, ws);
}

std::vector<int> Mmhd::viterbi(const std::vector<int>& seq) const {
  DCL_ENSURE(!seq.empty());
  const auto s_count = static_cast<std::size_t>(states());
  const std::size_t t_len = seq.size();

  // Same support restriction as the EM (losses only attributed to
  // observed symbols).
  std::vector<char> support(static_cast<std::size_t>(m_), 0);
  bool any_observed = false;
  for (int o : seq) {
    if (o != kLoss) {
      support[static_cast<std::size_t>(sym(o))] = 1;
      any_observed = true;
    }
  }
  if (!any_observed) support.assign(static_cast<std::size_t>(m_), 1);

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
  std::size_t losses = 0;
  for (int o : seq) losses += (o == kLoss) ? 1 : 0;

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
