// Reproduces paper Table III: weakly dominant congested link.
//
// Two links lose packets; L1 carries the overwhelming majority. For each
// setting the table lists both links' loss rates, the L1 share of probe
// losses, the WDCL(0.06, 0) decision, and the actual maximum queuing delay
// of L1 against the model-based and loss-pair estimates. Expected shape:
// accept in every row; the model-based estimate stays within a couple of
// fine bins of the actual value while the loss-pair estimate can be far
// off (it is contaminated by the secondary link's queuing — the paper saw
// errors up to 51 ms).
#include "bench/common.h"
#include "scenarios/presets.h"

using namespace dcl;

int main() {
  bench::print_header("Table III — weakly dominant congested link");
  // ploss_Lk: probe losses attributed to link k over probes sent — the
  // per-link loss rate as the probe stream experiences it (the queues'
  // all-arrivals loss rates are dominated by the burst generators).
  std::printf("%-18s %-9s %-9s %-7s %-7s %-16s %-9s %-9s %-8s %-8s\n",
              "bw L1/L2 (Mb/s)", "ploss_L1", "ploss_L2", "share1", "WDCL",
              "Qfull[min,max]", "est_MMHD", "est_LP", "err_M", "err_LP");

  const double duration = bench::scaled_duration(1000.0);
  struct Setting {
    double l1_bw;
    double burst;
  };
  const std::vector<Setting> settings{
      {0.65e6, 16e6}, {0.7e6, 18e6}, {0.75e6, 16e6}, {0.8e6, 16e6}};
  int idx = 0;
  for (const auto& s : settings) {
    auto cfg = scenarios::presets::wdcl_chain(
        s.l1_bw, s.burst, /*seed=*/200 + static_cast<std::uint64_t>(idx),
        duration, /*warmup=*/60.0);
    core::IdentifierConfig icfg;  // eps_l = 0.06, eps_d = 0
    const auto r = bench::run_chain(cfg, icfg);

    const double total = static_cast<double>(
        r.probe_losses[0] + r.probe_losses[1] + r.probe_losses[2]);
    const double share1 =
        total > 0.0 ? static_cast<double>(r.probe_losses[1]) / total : 0.0;
    const double est_model =
        r.id.fine_valid ? r.id.fine_bound.bound_seconds : 0.0;
    const double est_lp =
        r.loss_pair.valid ? r.loss_pair.max_delay_estimate_s : 0.0;
    // Error target: the *dominant link's* full-queue drain interval (the
    // interval over all losses would be stretched toward zero by the
    // secondary link's small virtual delays and make every estimate look
    // perfect).
    const auto [q_lo, q_hi] = r.gt_q_range_by_link[1];
    auto err_to = [&](double est) {
      if (est < q_lo) return q_lo - est;
      if (est > q_hi) return est - q_hi;
      return 0.0;
    };
    const double n_probes = static_cast<double>(r.obs.size());
    std::printf("%5.2f / %-9.1f %-9.4f %-9.4f %-7.3f %-7s [%.3f, %.3f]   "
                "%-9.3f %-9.3f %-8.3f %-8.3f\n",
                s.l1_bw / 1e6, cfg.bandwidth_bps[2] / 1e6,
                r.probe_losses[1] / n_probes, r.probe_losses[2] / n_probes,
                share1,
                r.id.wdcl.accepted ? "accept" : "REJECT", q_lo, q_hi,
                est_model, est_lp, err_to(est_model), err_to(est_lp));
    ++idx;
  }
  std::printf(
      "\nExpected shape: accept in every row with L1 share >~ 0.94 and\n"
      "both estimates inside the dominant link's full-queue interval. The\n"
      "loss-pair estimate is never better than the model-based one; the\n"
      "paper's large loss-pair errors (up to 51 ms) arose from heavy\n"
      "secondary-link queuing contaminating the surviving probe, which\n"
      "this preset keeps mild by construction (its secondary queue drains\n"
      "in ~25 ms).\n");
  return 0;
}
