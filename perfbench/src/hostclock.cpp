#include "hostclock.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::size_t kStates = 64;
constexpr std::size_t kSteps = 16384;

// The sweep's inner loops are full-width FMA vector code, as dclid's
// forward-backward kernels are (they are built the same way, with
// x86-64-v3 and -v4 clones), so a neighbour competing for the vector
// units slows the unit as it slows the kernels.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define PERFBENCH_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define PERFBENCH_CLONES
#endif

PERFBENCH_CLONES
void forward_sweep(const double* trans, const double* emit, double* alpha) {
  alignas(64) double cur[kStates];
  alignas(64) double next[kStates];
  for (double& c : cur) c = 1.0 / kStates;
  for (std::size_t t = 0; t < kSteps; ++t) {
    for (double& x : next) x = 0.0;
    for (std::size_t i = 0; i < kStates; ++i) {
      const double ci = cur[i];
      const double* row = trans + i * kStates;
      for (std::size_t j = 0; j < kStates; ++j) next[j] += ci * row[j];
    }
    const double* e = emit + t * kStates;
    double z = 0.0;
    for (std::size_t j = 0; j < kStates; ++j) {
      next[j] *= e[j];
      z += next[j];
    }
    const double inv = 1.0 / z;
    double* out = alpha + t * kStates;
    for (std::size_t j = 0; j < kStates; ++j) cur[j] = out[j] = next[j] * inv;
  }
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RefUnit::RefUnit()
    : trans_(kStates * kStates),
      emit_(kSteps * kStates),
      alpha_(kSteps * kStates) {
  // Fixed pseudo-random parameters (64-bit LCG): the unit does the same
  // arithmetic on every host and in every run.
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return 0.1 + 0.9 * static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  for (std::size_t i = 0; i < kStates; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < kStates; ++j)
      row += trans_[i * kStates + j] = next();
    for (std::size_t j = 0; j < kStates; ++j) trans_[i * kStates + j] /= row;
  }
  for (double& e : emit_) e = next();
}

void RefUnit::pass() {
  forward_sweep(trans_.data(), emit_.data(), alpha_.data());
  // Reading the result through a volatile keeps the sweep observable.
  volatile double sink = alpha_[kSteps * kStates / 2];
  (void)sink;
}

double RefUnit::measure_ms() {
  pass();
  const double t0 = now_s();
  pass();
  return (now_s() - t0) * 1e3;
}

HostClock::HostClock(double t_start) : t_start_(t_start) {}

void HostClock::checkpoint(bool force) {
  const double t = now_s();
  if (!force && !refs_.empty() && t - refs_.back().t_end < kIntervalS) return;
  Ref r;
  r.t_begin = t;
  r.ms = unit_.measure_ms();
  r.t_end = now_s();
  refs_.push_back(r);
}

double HostClock::scale(int seg) const {
  if (seg < 0 || seg + 1 >= static_cast<int>(refs_.size()))
    throw std::logic_error("HostClock::scale: segment not closed");
  const double adjacent = 0.5 * (refs_[seg].ms + refs_[seg + 1].ms);
  return std::pow(kNominalRefMs / adjacent, kCorrection);
}

double HostClock::norm_since_start(int ref) const {
  double s = (refs_.at(0).t_end - t_start_) * scale(0);
  for (int r = 0; r < ref; ++r)
    s += (refs_.at(r + 1).t_end - refs_[r].t_end) * scale(r);
  return s;
}

double HostClock::raw_since_start(int ref) const {
  return refs_.at(ref).t_end - t_start_;
}

double HostClock::norm_between(int from, int to) const {
  double s = 0.0;
  for (int r = from; r < to; ++r)
    s += (refs_.at(r + 1).t_begin - refs_[r].t_end) * scale(r);
  return s;
}

double HostClock::raw_between(int from, int to) const {
  double s = 0.0;
  for (int r = from; r < to; ++r)
    s += refs_.at(r + 1).t_begin - refs_[r].t_end;
  return s;
}

double HostClock::measuring_between(int from, int to) const {
  double s = 0.0;
  for (int r = from + 1; r <= to; ++r) s += refs_.at(r).t_end - refs_[r].t_begin;
  return s;
}

double HostClock::median_ref_ms() const {
  std::vector<double> ms;
  for (const Ref& r : refs_) ms.push_back(r.ms);
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  const std::size_t n = ms.size();
  return n % 2 ? ms[n / 2] : 0.5 * (ms[n / 2 - 1] + ms[n / 2]);
}

}  // namespace perfbench
