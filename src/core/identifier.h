// End-to-end dominant-congested-link identification pipeline: the public
// entry point of the library.
//
//   observations --discretize--> symbol sequence --EM fit--> virtual-delay
//   PMF --> SDCL-Test / WDCL-Test --> (if accepted) max-queuing-delay bound
//
// matching the paper's Sections IV-V. The coarse grid (M symbols, default
// 10) drives the hypothesis tests; an optional finer grid (default M = 50,
// Section IV-B) refines the delay bound with the connected-component
// heuristic.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/bootstrap.h"
#include "core/bounds.h"
#include "core/hypothesis.h"
#include "inference/discretizer.h"
#include "inference/em_options.h"
#include "inference/observation.h"
#include "util/deadline.h"
#include "util/stats.h"

namespace dcl::core {

// The model the pipeline fits. The paper's MMHD is the only one: the HMM
// stays a library model (inference::Hmm) for the paper's Fig. 8
// comparison. The type and the fields that carry it stay so that callers
// which name the model keep compiling.
enum class ModelKind {
  kMmhd,
};

struct IdentifierConfig {
  int symbols = 10;             // M for the hypothesis tests
  int hidden_states = 2;        // N
  ModelKind model = ModelKind::kMmhd;
  inference::EmOptions em;      // hidden_states is overridden by the above

  // WDCL-Test parameters (paper default 0.06 / 0.0: >= 94% of losses at
  // the link, delay dominance always).
  double eps_l = 0.06;
  double eps_d = 0.0;
  double sdcl_mass_epsilon = 1e-3;

  // End-to-end propagation delay when known; otherwise approximated by the
  // minimum observed delay.
  std::optional<double> propagation_delay;

  // Bootstrap confidence for the WDCL decision: number of replicates over
  // the per-loss posteriors; 0 disables.
  int bootstrap_replicates = 0;
  // When true the bootstrap resamples the *sequence* (circular blocks)
  // and refits each replicate by EM warm-started from the point fit —
  // see bootstrap_wdcl_refit — instead of resampling the point fit's
  // per-loss posteriors. Dearer per replicate but also captures
  // parameter re-estimation noise.
  bool bootstrap_refit = false;

  // Choose hidden_states automatically by BIC over 1..auto_hidden_max
  // before the main fit; 0 disables.
  int auto_hidden_max = 0;

  // Fine-grained delay-bound estimation (second EM fit on a finer grid).
  bool compute_fine_bound = true;
  int bound_symbols = 50;
  int bound_hidden_states = 1;
  ComponentBoundConfig component;

  // Robustness (DESIGN.md §5.7). A fit whose log likelihood comes back
  // NaN/Inf or whose posterior PMF is unusable is retried with re-seeded
  // restarts up to `em_retries` times before the stage gives up and the
  // result degrades. The deadline gates the *optional* stages (model
  // selection, bootstrap, fine bound): an expired deadline skips them with
  // a warning instead of starting work that cannot finish (partial-result
  // return). Default: unarmed, never expires.
  int em_retries = 2;
  util::Deadline deadline;
};

struct IdentificationResult {
  // False when the trace carried no losses: the definitions require losses,
  // so no dominant congested link can be asserted (all test fields are
  // defaulted in that case).
  bool has_losses = false;
  std::size_t probes = 0;
  std::size_t losses = 0;
  double loss_rate = 0.0;

  inference::FitResult fit;     // coarse-grid model fit
  util::Pmf virtual_pmf;        // P(D=d | loss), coarse grid
  util::Cdf virtual_cdf;
  double bin_width_s = 0.0;     // coarse bin width
  double delay_floor_s = 0.0;   // propagation-delay estimate used

  SdclResult sdcl;
  WdclResult wdcl;
  // Populated when IdentifierConfig::bootstrap_replicates > 0.
  BootstrapResult bootstrap;
  // Hidden-state count actually used (differs from the config when
  // auto_hidden_max selected one).
  int hidden_states_used = 0;
  // Model structure actually fitted.
  ModelKind model_used = ModelKind::kMmhd;
  // i*-based bound on the WDCL grid (valid when a test accepted).
  DelayBound coarse_bound;

  // Fine-grid results (when compute_fine_bound).
  bool fine_valid = false;
  util::Pmf fine_pmf;
  double fine_bin_width_s = 0.0;
  ComponentBound fine_bound;

  // Degradation ladder (DESIGN.md §5.7). `degraded` is true whenever any
  // stage fell back, was retried, or was skipped; every such event also
  // appends a human-readable entry to `warnings`. `fit_failed` marks the
  // worst rung: the coarse fit never produced a usable posterior even
  // after em_retries re-seeded attempts, so the test fields above are
  // defaulted (no verdict). Consumers must treat fit_failed results as
  // "no answer", not as a rejection.
  bool degraded = false;
  bool fit_failed = false;
  int em_retries_used = 0;
  std::vector<std::string> warnings;
};

class Identifier {
 public:
  explicit Identifier(const IdentifierConfig& cfg);

  IdentificationResult identify(
      const inference::ObservationSequence& obs) const;

  const IdentifierConfig& config() const { return cfg_; }

 private:
  IdentifierConfig cfg_;
};

}  // namespace dcl::core
