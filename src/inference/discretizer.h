// Delay discretization (paper Section IV/V-A).
//
// Queuing delays are mapped to M equal-width bins ("delay symbols"
// 1..M) spanning [0, range_factor * (dmax - dprop)], where dprop is the
// end-to-end propagation delay and dmax the largest observed one-way
// delay. When dprop is unknown the smallest observed one-way delay dmin
// is used in its place — the paper shows the approximation error is
// negligible for probing durations beyond a few minutes (Fig. 14).
//
// range_factor defaults to 2: the hypothesis tests evaluate F at 2*i*, and
// a lost probe's virtual delay can reach Q_k plus the other links' queues
// — beyond any *observed* delay — so the symbol range must extend past the
// observed maximum. With the factor of 2, received delays occupy roughly
// the lower half of the symbols and the virtual delays of an SDCL cluster
// near M/2, exactly the shape of the paper's Fig. 5.
//
// Symbol i corresponds to queuing delay in ((i-1)*w, i*w] with bin width
// w = range_factor * (dmax - dmin) / M.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "inference/observation.h"
#include "util/stats.h"

namespace dcl::inference {

struct DiscretizerConfig {
  int symbols = 10;  // M
  // End-to-end propagation delay, when known; otherwise the minimum
  // observed one-way delay is used.
  std::optional<double> propagation_delay;
  // Ratio of the symbol range to the observed queuing-delay range (see
  // file comment). 2 matches the paper's evaluation.
  double range_factor = 2.0;
};

class Discretizer {
 public:
  // Builds the bin layout from the received delays in `obs`.
  static Discretizer from_observations(const ObservationSequence& obs,
                                       const DiscretizerConfig& cfg);

  // Builds directly from a [floor, ceil] one-way-delay range.
  Discretizer(double delay_floor, double delay_ceil, int symbols);

  int symbols() const { return symbols_; }
  double bin_width() const { return width_; }
  // The one-way delay treated as "zero queuing" (dprop or dmin).
  double delay_floor() const { return floor_; }

  // Symbol (1-based) for a one-way delay; clamped to [1, M].
  int symbol_for(double owd) const;

  // Upper edge of a symbol's queuing-delay bin, in seconds: i * w.
  double queuing_delay_upper(int symbol) const;

  // Discretizes a full observation sequence; losses map to kLossSymbol.
  std::vector<int> discretize(const ObservationSequence& obs) const;

  // Discretizes a set of one-way delays (e.g., ground-truth virtual delays)
  // into a PMF over the symbols.
  util::Pmf pmf_of_owds(const std::vector<double>& owds) const;

  static constexpr int kLossSymbol = -1;

 private:
  double floor_;
  double width_;
  int symbols_;
};

// The losses (kLossSymbol entries) of a symbol sequence.
std::size_t loss_count(const std::vector<int>& seq);

// The symbols of 1..`symbols` that `seq` observes, as a mask indexed by
// symbol - 1 — all ones when it observes none. The models attribute losses
// only to these symbols (a never-observed symbol's C[d] could otherwise
// grow freely and soak up the loss mass), and BIC counts parameters over
// them.
std::vector<char> observed_support(const std::vector<int>& seq, int symbols);

}  // namespace dcl::inference
