#include "truth.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench::truth {

Truth score_truth(const std::vector<LostProbe>& lost,
                  const std::vector<double>& qmax_s, double eps_l,
                  double eps_d) {
  Truth t;
  if (lost.empty()) return t;
  t.has_losses = true;

  std::vector<std::size_t> by_link(qmax_s.size(), 0);
  for (const LostProbe& p : lost)
    if (p.link >= 0 && static_cast<std::size_t>(p.link) < by_link.size())
      ++by_link[static_cast<std::size_t>(p.link)];
  const auto top = std::max_element(by_link.begin(), by_link.end());
  t.dominant_link = static_cast<int>(top - by_link.begin());
  t.loss_share =
      static_cast<double>(*top) / static_cast<double>(lost.size());

  t.qk_s = qmax_s[static_cast<std::size_t>(t.dominant_link)];
  std::size_t completed = 0;
  std::size_t dominated = 0;
  t.q_lo_s = std::numeric_limits<double>::infinity();
  t.q_hi_s = -std::numeric_limits<double>::infinity();
  for (const LostProbe& p : lost) {
    if (p.link != t.dominant_link || std::isnan(p.vq_s)) continue;
    ++completed;
    if (p.vq_s <= 2.0 * t.qk_s) ++dominated;
    t.q_lo_s = std::min(t.q_lo_s, p.vq_s);
    t.q_hi_s = std::max(t.q_hi_s, p.vq_s);
  }
  if (completed == 0) {
    t.q_lo_s = t.q_hi_s = 0.0;
    return t;  // no delay evidence: the delay condition cannot hold
  }
  t.delay_share =
      static_cast<double>(dominated) / static_cast<double>(completed);
  t.wdcl = t.loss_share >= 1.0 - eps_l && t.delay_share >= 1.0 - eps_d;
  t.sdcl = t.loss_share == 1.0 && t.delay_share == 1.0;
  return t;
}

Verdict score_verdict(bool answered, bool accepted, const Truth& t) {
  if (!answered) return Verdict::kUnanswered;
  if (accepted == t.wdcl) return Verdict::kCorrect;
  return accepted ? Verdict::kFalseAccept : Verdict::kFalseReject;
}

void Tally::add(Verdict v) {
  ++attempted;
  switch (v) {
    case Verdict::kCorrect: ++correct; break;
    case Verdict::kFalseAccept: ++false_accept; break;
    case Verdict::kFalseReject: ++false_reject; break;
    case Verdict::kUnanswered: ++unanswered; break;
  }
}

double Tally::share(std::size_t n) const {
  return attempted == 0
             ? 0.0
             : static_cast<double>(n) / static_cast<double>(attempted);
}

double interval_distance(double x, double lo, double hi) {
  if (x < lo) return lo - x;
  if (x > hi) return x - hi;
  return 0.0;
}

bool istar_violated(double istar_bound_s, const Truth& t) {
  return istar_bound_s < t.qk_s;
}

}  // namespace perfbench::truth
