// Hand-built cases for the ground-truth scorer (src/truth.h). Exits
// nonzero when any check fails; run.py runs it after every build.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "truth.h"

using namespace perfbench::truth;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

// Q_k of the three router links: L1 is the 240 ms bottleneck.
const std::vector<double> kQmax = {0.064, 0.240, 0.025};

// `n` probes lost at `link`, virtual queuing delays spread over [lo, hi].
void add_losses(std::vector<LostProbe>& lost, int link, int n, double lo,
                double hi) {
  for (int i = 0; i < n; ++i)
    lost.push_back({link, lo + (hi - lo) * i / std::max(1, n - 1)});
}

void all_losses_at_one_link() {
  std::vector<LostProbe> lost;
  add_losses(lost, 1, 100, 0.230, 0.260);
  const Truth t = score_truth(lost, kQmax, 0.06, 0.0);
  CHECK(t.has_losses);
  CHECK(t.dominant_link == 1);
  CHECK(t.loss_share == 1.0);
  CHECK(t.delay_share == 1.0);
  CHECK(t.wdcl);
  CHECK(t.sdcl);
  CHECK(t.q_lo_s == 0.230);
  CHECK(std::fabs(t.q_hi_s - 0.260) < 1e-15);
}

void split_95_5() {
  std::vector<LostProbe> lost;
  add_losses(lost, 1, 95, 0.230, 0.260);
  add_losses(lost, 2, 5, 0.020, 0.030);
  const Truth t = score_truth(lost, kQmax, 0.06, 0.0);
  CHECK(t.dominant_link == 1);
  CHECK(std::fabs(t.loss_share - 0.95) < 1e-12);
  CHECK(t.wdcl);   // 0.95 >= 1 - 0.06
  CHECK(!t.sdcl);  // not every loss at L1
  // The secondary link's small delays stay out of the bound's target.
  CHECK(t.q_lo_s == 0.230);
  CHECK(!score_truth(lost, kQmax, 0.04, 0.0).wdcl);  // 0.95 < 0.96
}

void split_50_50() {
  std::vector<LostProbe> lost;
  add_losses(lost, 1, 50, 0.230, 0.260);
  add_losses(lost, 2, 50, 0.020, 0.030);
  CHECK(!score_truth(lost, kQmax, 0.06, 0.0).wdcl);
  CHECK(!score_truth(lost, kQmax, 0.1, 0.1).wdcl);
}

void delay_dominance() {
  // All losses at L1, but a tenth of them queued more than Q_1 elsewhere.
  std::vector<LostProbe> lost;
  add_losses(lost, 1, 90, 0.230, 0.260);
  add_losses(lost, 1, 10, 0.500, 0.520);
  const Truth strict = score_truth(lost, kQmax, 0.06, 0.0);
  CHECK(strict.loss_share == 1.0);
  CHECK(std::fabs(strict.delay_share - 0.9) < 1e-12);
  CHECK(!strict.wdcl);
  CHECK(!strict.sdcl);
  CHECK(score_truth(lost, kQmax, 0.06, 0.1).wdcl);
  // Ghosts that never reached the sink carry no delay evidence.
  lost.push_back({1, std::numeric_limits<double>::quiet_NaN()});
  CHECK(std::fabs(score_truth(lost, kQmax, 0.06, 0.1).delay_share - 0.9) <
        1e-12);
}

void no_losses() {
  const Truth t = score_truth({}, kQmax, 0.06, 0.0);
  CHECK(!t.has_losses);
  CHECK(!t.wdcl);
  CHECK(score_verdict(true, false, t) == Verdict::kCorrect);
  CHECK(score_verdict(true, true, t) == Verdict::kFalseAccept);
}

void verdicts_and_tally() {
  std::vector<LostProbe> lost;
  add_losses(lost, 1, 100, 0.230, 0.260);
  const Truth dcl = score_truth(lost, kQmax, 0.06, 0.0);
  Tally tally;
  tally.add(score_verdict(true, true, dcl));    // correct accept
  tally.add(score_verdict(true, false, dcl));   // false reject
  tally.add(score_verdict(false, true, dcl));   // unanswered
  tally.add(score_verdict(false, false, dcl));  // unanswered
  CHECK(score_verdict(false, true, dcl) == Verdict::kUnanswered);
  CHECK(tally.attempted == 4);
  CHECK(tally.correct == 1);
  CHECK(tally.false_reject == 1);
  CHECK(tally.unanswered == 2);
  // An unanswered trace counts as wrong.
  const double wrong = tally.share(tally.false_accept) +
                       tally.share(tally.false_reject) +
                       tally.share(tally.unanswered);
  CHECK(std::fabs(1.0 - tally.share(tally.correct) - wrong) < 1e-15);
  CHECK(tally.share(tally.correct) == 0.25);
}

void bounds() {
  CHECK(interval_distance(0.2, 0.23, 0.26) == 0.23 - 0.2);
  CHECK(interval_distance(0.24, 0.23, 0.26) == 0.0);
  CHECK(interval_distance(0.3, 0.23, 0.26) == 0.3 - 0.26);
  std::vector<LostProbe> lost;
  add_losses(lost, 1, 100, 0.230, 0.260);
  const Truth t = score_truth(lost, kQmax, 0.06, 0.0);
  CHECK(t.qk_s == 0.240);
  CHECK(istar_violated(0.20, t));
  CHECK(!istar_violated(0.24, t));
}

void istar_against_qk() {
  // Theorem 1 compares i* with Q_k, not with the lost probes' virtual
  // queuing delays. Droptail: a probe lost at L1 waited Q_1 there plus
  // queuing at the other links, so every delay exceeds Q_1 = 0.240, and a
  // bound between Q_1 and the smallest delay is valid.
  std::vector<LostProbe> droptail;
  add_losses(droptail, 1, 100, 0.250, 0.280);
  const Truth d = score_truth(droptail, kQmax, 0.06, 0.0);
  CHECK(d.q_lo_s == 0.250);
  CHECK(!istar_violated(0.245, d));
  CHECK(istar_violated(0.235, d));
  // RED drops early, below Q_1: a bound between the smallest delay and
  // Q_1 still undercuts Q_1.
  std::vector<LostProbe> red;
  add_losses(red, 1, 100, 0.150, 0.260);
  const Truth r = score_truth(red, kQmax, 0.06, 0.0);
  CHECK(r.q_lo_s == 0.150);
  CHECK(istar_violated(0.200, r));
  CHECK(!istar_violated(0.240, r));
}

}  // namespace

int main() {
  all_losses_at_one_link();
  split_95_5();
  split_50_50();
  delay_dominance();
  no_losses();
  verdicts_and_tally();
  bounds();
  istar_against_qk();
  if (g_failures != 0) {
    std::fprintf(stderr, "truth_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "truth_test: all checks passed\n");
  return 0;
}
