#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "util/error.h"

namespace dcl::util {

bool normalize(Pmf& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  if (!(sum > 0.0)) return false;
  for (double& x : v) x /= sum;
  return true;
}

Cdf pmf_to_cdf(const Pmf& pmf) {
  Cdf cdf(pmf.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf.size(); ++i) {
    acc += pmf[i];
    cdf[i] = acc;
  }
  if (!cdf.empty() && std::abs(acc - 1.0) < 1e-9) cdf.back() = 1.0;
  return cdf;
}

double l1_distance(const Pmf& a, const Pmf& b) {
  DCL_ENSURE(a.size() == b.size());
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

Pmf histogram(const std::vector<int>& samples, int symbols) {
  DCL_ENSURE(symbols > 0);
  Pmf pmf(static_cast<std::size_t>(symbols), 0.0);
  std::size_t in_range = 0;
  for (int s : samples) {
    if (s >= 1 && s <= symbols) {
      pmf[static_cast<std::size_t>(s - 1)] += 1.0;
      ++in_range;
    }
  }
  if (in_range > 0)
    for (double& x : pmf) x /= static_cast<double>(in_range);
  return pmf;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double quantile(std::vector<double> xs, double q) {
  DCL_ENSURE(!xs.empty());
  DCL_ENSURE(q >= 0.0 && q <= 1.0);
  // Selection instead of a full sort: the lo-th order statistic, and for
  // the interpolation partner the smallest of the elements above it —
  // the values a sorted copy holds at lo and lo + 1.
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), mid, xs.end());
  const double hi = lo + 1 < xs.size() ? *std::min_element(mid + 1, xs.end())
                                       : *mid;
  const double frac = pos - static_cast<double>(lo);
  return *mid * (1.0 - frac) + hi * frac;
}

std::size_t argmax(const std::vector<double>& xs) {
  DCL_ENSURE(!xs.empty());
  return static_cast<std::size_t>(
      std::max_element(xs.begin(), xs.end()) - xs.begin());
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

}  // namespace dcl::util
