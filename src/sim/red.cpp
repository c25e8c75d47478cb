#include "sim/red.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace dcl::sim {

RedQueue::RedQueue(const RedConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
  DCL_ENSURE(cfg_.capacity_bytes > 0);
  if (cfg_.min_th_bytes == 0) cfg_.min_th_bytes = cfg_.capacity_bytes / 5;
  if (cfg_.max_th_bytes == 0) cfg_.max_th_bytes = 3 * cfg_.min_th_bytes;
  // max_th may exceed the physical buffer (as in ns): the upper part of
  // the drop ramp is then unreachable and forced (overflow) drops
  // dominate, making the queue behave nearly droptail.
  DCL_ENSURE(cfg_.min_th_bytes < cfg_.max_th_bytes);
  max_p_ = std::clamp(cfg_.initial_max_p, cfg_.max_p_min, cfg_.max_p_max);
}

void RedQueue::update_average(Time now) {
  if (idle_) {
    // Decay the average as if `m` typical packets had drained while idle.
    const double pkt_time = cfg_.mean_pkt_bytes * 8.0 / cfg_.bandwidth_bps;
    const double m = std::max(0.0, (now - idle_since_) / pkt_time);
    avg_ *= std::pow(1.0 - cfg_.wq, m);
    idle_ = false;
  }
  avg_ = (1.0 - cfg_.wq) * avg_ + cfg_.wq * static_cast<double>(backlog_);
}

void RedQueue::maybe_adapt(Time now) {
  if (!cfg_.adaptive) return;
  if (now - last_adapt_ < cfg_.adapt_interval) return;
  last_adapt_ = now;
  const double range =
      static_cast<double>(cfg_.max_th_bytes - cfg_.min_th_bytes);
  const double target_lo = static_cast<double>(cfg_.min_th_bytes) + 0.4 * range;
  const double target_hi = static_cast<double>(cfg_.min_th_bytes) + 0.6 * range;
  if (avg_ > target_hi) {
    const double alpha = std::min(0.01, max_p_ / 4.0);
    max_p_ = std::min(cfg_.max_p_max, max_p_ + alpha);
  } else if (avg_ < target_lo) {
    max_p_ = std::max(cfg_.max_p_min, max_p_ * cfg_.beta);
  }
}

double RedQueue::drop_probability() {
  const auto min_th = static_cast<double>(cfg_.min_th_bytes);
  const auto max_th = static_cast<double>(cfg_.max_th_bytes);
  double pb;
  if (avg_ < min_th) {
    return 0.0;
  } else if (avg_ < max_th) {
    pb = max_p_ * (avg_ - min_th) / (max_th - min_th);
  } else if (avg_ < 2.0 * max_th) {
    // Gentle region.
    pb = max_p_ + (1.0 - max_p_) * (avg_ - max_th) / max_th;
  } else {
    return 1.0;
  }
  // Uniformize inter-drop spacing (Floyd's count mechanism).
  const double denom = 1.0 - static_cast<double>(count_) * pb;
  if (denom <= 0.0) return 1.0;
  return std::min(1.0, pb / denom);
}

bool RedQueue::try_enqueue(const Packet& p, Time now) {
  count_arrival(p.type);
  update_average(now);
  maybe_adapt(now);

  bool drop = false;
  if (backlog_ + p.size_bytes > cfg_.capacity_bytes ||
      (cfg_.capacity_pkts > 0 && q_.size() >= cfg_.capacity_pkts)) {
    drop = true;
    ++forced_drops_;
    count_ = 0;
  } else if (avg_ >= static_cast<double>(cfg_.min_th_bytes)) {
    ++count_;
    const double pa = drop_probability();
    if (rng_.uniform() < pa) {
      drop = true;
      ++early_drops_;
      count_ = 0;
    }
  } else {
    count_ = -1;
  }

  if (drop) {
    count_drop(p.type);
    return false;
  }
  backlog_ += p.size_bytes;
  q_.push_back(p);
  note_backlog(backlog_, q_.size());
  return true;
}

std::optional<Packet> RedQueue::dequeue(Time now) {
  if (q_.empty()) return std::nullopt;
  const Packet p = q_.pop_front();
  backlog_ -= p.size_bytes;
  if (q_.empty()) {
    idle_ = true;
    idle_since_ = now;
  }
  return p;
}

}  // namespace dcl::sim
