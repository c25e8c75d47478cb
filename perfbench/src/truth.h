// Ground truth for a simulated chain trace after the paper's Definitions
// 1-2, and the scoring of a WDCL-Test verdict against it.
//
// The simulator's virtual-probe tracer says, for every probe lost inside
// the measurement window, which router link dropped it and the virtual
// one-way delay of its ghost (the probe continued as if it had waited the
// dropping queue out). From that:
//
//   * loss condition: the link that dropped the most probes (the dominant
//     link k) dropped at least 1 - eps_l of them;
//   * delay condition: at least 1 - eps_d of the probes lost at k saw at
//     most Q_k of queuing at the other links. Under the paper's model a
//     probe lost at k waits Q_k there, so this reads vq <= 2 Q_k, with vq
//     the virtual queuing delay (virtual one-way delay minus the trace's
//     delay floor) and Q_k the link's maximum queuing delay.
//
// WDCL(eps_l, eps_d) exists when both hold; an SDCL when both hold with
// eps_l = eps_d = 0. Without losses no DCL exists.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench::truth {

struct LostProbe {
  int link = -1;     // router link that dropped the probe
  double vq_s = 0.0;  // virtual queuing delay; NaN when the ghost never
                      // reached the sink before the simulation ended
};

struct Truth {
  bool has_losses = false;
  int dominant_link = -1;
  double loss_share = 0.0;   // dominant link's share of the lost probes
  double delay_share = 0.0;  // share of its (completed) lost probes
                             // with vq <= 2 Q_k
  bool wdcl = false;
  bool sdcl = false;
  double qk_s = 0.0;  // Q_k of the dominant link
  // [min, max] virtual queuing delay of the probes lost at the dominant
  // link: the target of the delay bound.
  double q_lo_s = 0.0;
  double q_hi_s = 0.0;
};

// `qmax_s[k]` is Q_k of router link k.
Truth score_truth(const std::vector<LostProbe>& lost,
                  const std::vector<double>& qmax_s, double eps_l,
                  double eps_d);

enum class Verdict { kCorrect, kFalseAccept, kFalseReject, kUnanswered };

// A trace the program left without a verdict is wrong whatever the truth.
Verdict score_verdict(bool answered, bool accepted, const Truth& t);

// Verdict counts over the traces attempted; every share is of
// `attempted`, so 1 - accuracy = false accepts + false rejects +
// unanswered.
struct Tally {
  std::size_t attempted = 0;
  std::size_t correct = 0;
  std::size_t false_accept = 0;
  std::size_t false_reject = 0;
  std::size_t unanswered = 0;

  void add(Verdict v);
  double share(std::size_t n) const;
};

// Distance from `x` to the interval [lo, hi]; 0 inside it.
double interval_distance(double x, double lo, double hi);

// Theorem 1's necessary condition Q_k <= i* on an accepted true DCL: the
// i* bound must not undercut the dominant link's maximum queuing delay.
bool istar_violated(double istar_bound_s, const Truth& t);

}  // namespace perfbench::truth
