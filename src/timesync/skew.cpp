#include "timesync/skew.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace dcl::timesync {

namespace {
struct Pt {
  double t, m;
};

double cross(const Pt& o, const Pt& a, const Pt& b) {
  return (a.t - o.t) * (b.m - o.m) - (a.m - o.m) * (b.t - o.t);
}
}  // namespace

const char* to_string(SkewSkipReason r) {
  switch (r) {
    case SkewSkipReason::kNone: return "none";
    case SkewSkipReason::kNoProbes: return "no_received_probes";
    case SkewSkipReason::kTooFewDistinctTimes:
      return "fewer_than_2_distinct_send_times";
    case SkewSkipReason::kDegenerateHull: return "degenerate_hull";
  }
  return "unknown";
}

SkewEstimate estimate_skew(const std::vector<double>& times,
                           const std::vector<double>& owds) {
  DCL_ENSURE(times.size() == owds.size());
  SkewEstimate est;

  std::vector<Pt> pts;
  pts.reserve(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (!std::isfinite(times[i]) || !std::isfinite(owds[i])) {
      ++est.nonfinite_dropped;
      continue;
    }
    pts.push_back({times[i], owds[i]});
  }
  if (pts.empty()) {
    est.skip_reason = SkewSkipReason::kNoProbes;
    return est;
  }
  const auto by_time = [](const Pt& a, const Pt& b) {
    return a.t != b.t ? a.t < b.t : a.m < b.m;
  };
  if (!std::is_sorted(pts.begin(), pts.end(), by_time))
    std::sort(pts.begin(), pts.end(), by_time);
  // Keep only the smallest delay per distinct time.
  std::vector<Pt> uniq;
  for (const auto& p : pts)
    if (uniq.empty() || p.t != uniq.back().t) uniq.push_back(p);
  if (uniq.size() < 2) {
    // All probes share one send time: no drift is observable. The caller
    // must not trust a fabricated flat envelope, so this is invalid.
    est.skip_reason = SkewSkipReason::kTooFewDistinctTimes;
    est.hull_points = uniq.size();
    return est;
  }

  // Lower convex hull (monotone chain).
  std::vector<Pt> hull;
  for (const auto& p : uniq) {
    while (hull.size() >= 2 &&
           cross(hull[hull.size() - 2], hull.back(), p) <= 0.0)
      hull.pop_back();
    hull.push_back(p);
  }
  est.hull_points = hull.size();

  const double n = static_cast<double>(pts.size());
  double sum_t = 0.0, sum_m = 0.0;
  for (const auto& p : pts) {
    sum_t += p.t;
    sum_m += p.m;
  }

  // Objective sum(m_i - a t_i - b) = sum_m - a sum_t - n b, evaluated for
  // the line through each hull edge; every such line satisfies the
  // constraints by convexity.
  double best_obj = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < hull.size(); ++i) {
    const double dt = hull[i + 1].t - hull[i].t;
    if (dt <= 0.0) continue;
    const double a = (hull[i + 1].m - hull[i].m) / dt;
    const double b = hull[i].m - a * hull[i].t;
    if (!std::isfinite(a) || !std::isfinite(b)) continue;
    const double obj = sum_m - a * sum_t - n * b;
    if (obj < best_obj) {
      best_obj = obj;
      est.skew = a;
      est.offset = b;
      est.valid = true;
    }
  }
  if (!est.valid) {
    // No hull edge with positive time extent (a vertical/collapsed hull,
    // possible with pathological times): no slope can be estimated.
    est.skip_reason = SkewSkipReason::kDegenerateHull;
    est.skew = 0.0;
    est.offset = 0.0;
  }
  return est;
}

std::vector<double> remove_skew(const std::vector<double>& times,
                                const std::vector<double>& owds,
                                double skew) {
  DCL_ENSURE(times.size() == owds.size());
  std::vector<double> out(owds.size());
  for (std::size_t i = 0; i < owds.size(); ++i)
    out[i] = owds[i] - skew * times[i];
  return out;
}

inference::ObservationSequence correct_observations(
    const inference::ObservationSequence& obs,
    const std::vector<double>& send_times, SkewEstimate* estimate) {
  DCL_ENSURE(obs.size() == send_times.size());
  std::vector<double> t, m;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    if (obs[i].lost) continue;
    t.push_back(send_times[i]);
    m.push_back(obs[i].delay);
  }
  const SkewEstimate est = estimate_skew(t, m);
  if (estimate != nullptr) *estimate = est;
  if (!est.valid) return obs;
  inference::ObservationSequence out = obs;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (!out[i].lost) out[i].delay -= est.skew * send_times[i];
  return out;
}

}  // namespace dcl::timesync
