#include "inference/discretizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace dcl::inference {

Discretizer Discretizer::from_observations(const ObservationSequence& obs,
                                           const DiscretizerConfig& cfg) {
  double dmin = std::numeric_limits<double>::infinity();
  double dmax = -std::numeric_limits<double>::infinity();
  for (const auto& o : obs) {
    if (o.lost) continue;
    dmin = std::min(dmin, o.delay);
    dmax = std::max(dmax, o.delay);
  }
  DCL_REQUIRE_INPUT(std::isfinite(dmin),
                    "cannot build a discretizer from a sequence with no "
                    "received probes");
  DCL_ENSURE(cfg.range_factor >= 1.0);
  const double floor = cfg.propagation_delay.value_or(dmin);
  DCL_REQUIRE_INPUT(floor <= dmax,
                    "propagation delay " << floor << " s exceeds every "
                    "received delay (largest " << dmax << " s)");
  const double ceil = floor + cfg.range_factor * (dmax - floor);
  return Discretizer(floor, ceil, cfg.symbols);
}

Discretizer::Discretizer(double delay_floor, double delay_ceil, int symbols)
    : floor_(delay_floor), symbols_(symbols) {
  DCL_ENSURE(symbols > 0);
  DCL_ENSURE(delay_ceil >= delay_floor);
  // A degenerate range (all delays identical) still needs a positive bin
  // width so symbol_for() is well defined.
  width_ = std::max((delay_ceil - delay_floor) / symbols, 1e-9);
}

int Discretizer::symbol_for(double owd) const {
  const double q = owd - floor_;
  if (q <= 0.0) return 1;
  // The small shift keeps exact bin-edge values (q == i*w) in bin i when
  // the division picks up one ulp of noise.
  const int s = static_cast<int>(std::ceil(q / width_ - 1e-9));
  return std::clamp(s, 1, symbols_);
}

double Discretizer::queuing_delay_upper(int symbol) const {
  DCL_ENSURE(symbol >= 1);
  return static_cast<double>(symbol) * width_;
}

std::vector<int> Discretizer::discretize(const ObservationSequence& obs) const {
  std::vector<int> out;
  out.reserve(obs.size());
  for (const auto& o : obs)
    out.push_back(o.lost ? kLossSymbol : symbol_for(o.delay));
  return out;
}

util::Pmf Discretizer::pmf_of_owds(const std::vector<double>& owds) const {
  std::vector<int> syms;
  syms.reserve(owds.size());
  for (double d : owds) syms.push_back(symbol_for(d));
  return util::histogram(syms, symbols_);
}

}  // namespace dcl::inference
