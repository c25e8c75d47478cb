#include "core/stationarity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.h"

namespace dcl::core {

StationarityReport stationarity(const inference::ObservationSequence& obs,
                                int blocks) {
  DCL_ENSURE(blocks >= 2);
  DCL_REQUIRE_INPUT(obs.size() >= static_cast<std::size_t>(blocks),
                    "stationarity check needs at least "
                        << blocks << " observations, got " << obs.size());
  StationarityReport rep;
  rep.blocks = static_cast<std::size_t>(blocks);

  double dmin = std::numeric_limits<double>::infinity();
  for (const auto& o : obs)
    if (!o.lost) dmin = std::min(dmin, o.delay);

  std::vector<double> block_mean;
  std::vector<double> block_loss;
  const std::size_t len = obs.size() / static_cast<std::size_t>(blocks);
  for (int b = 0; b < blocks; ++b) {
    const std::size_t lo = static_cast<std::size_t>(b) * len;
    const std::size_t hi = (b + 1 == blocks) ? obs.size() : lo + len;
    double sum = 0.0;
    std::size_t received = 0, losses = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (obs[i].lost) {
        ++losses;
      } else {
        sum += obs[i].delay - dmin;  // queuing component
        ++received;
      }
    }
    if (received > 0) block_mean.push_back(sum / static_cast<double>(received));
    block_loss.push_back(static_cast<double>(losses) /
                         static_cast<double>(hi - lo));
  }

  if (block_mean.size() >= 2) {
    double m = 0.0;
    for (double x : block_mean) m += x;
    m /= static_cast<double>(block_mean.size());
    double var = 0.0;
    for (double x : block_mean) var += (x - m) * (x - m);
    var /= static_cast<double>(block_mean.size());
    rep.delay_drift = m > 0.0 ? std::sqrt(var) / m : 0.0;
  }
  const auto [lo_it, hi_it] =
      std::minmax_element(block_loss.begin(), block_loss.end());
  rep.loss_drift = *hi_it - *lo_it;
  // Loss drift is in absolute rate units (already small); weight it up so
  // a swing from 1% to 5% matters as much as a 4x delay swing.
  rep.score = rep.delay_drift + 10.0 * rep.loss_drift;
  return rep;
}

std::pair<std::size_t, std::size_t> most_stationary_window(
    const inference::ObservationSequence& obs, std::size_t window,
    std::size_t stride, std::size_t min_losses) {
  DCL_ENSURE(window >= 12 && stride >= 1);
  if (window >= obs.size()) return {0, obs.size()};

  double best_score = std::numeric_limits<double>::infinity();
  std::pair<std::size_t, std::size_t> best{0, obs.size()};
  bool found = false;
  for (std::size_t lo = 0; lo + window <= obs.size(); lo += stride) {
    inference::ObservationSequence slice(obs.begin() + static_cast<long>(lo),
                                         obs.begin() +
                                             static_cast<long>(lo + window));
    if (inference::loss_count(slice) < min_losses) continue;
    const auto rep = stationarity(slice);
    if (rep.score < best_score) {
      best_score = rep.score;
      best = {lo, lo + window};
      found = true;
    }
  }
  if (!found) return {0, obs.size()};
  return best;
}

}  // namespace dcl::core
