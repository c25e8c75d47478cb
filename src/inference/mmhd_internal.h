// Mmhd's per-fit state: the types that detail::RestartSet<Mmhd> holds by
// value. Internal to src/inference, like em_internal.h: included where
// RestartSet<Mmhd> is instantiated (mmhd.cpp for Mmhd::fit,
// model_selection.cpp for the hidden-state race).
#pragma once

#include <cstddef>
#include <vector>

#include "inference/fb_kernels.h"
#include "inference/mmhd.h"
#include "util/aligned.h"
#include "util/matrix.h"

namespace dcl::inference {

struct Mmhd::Trellis {
  util::Matrix alpha;  // T x S, scaled; zero outside the active sets
  util::Matrix beta;   // T x S, scaled
  std::vector<double> scale;
  // Active state sets per step (flattened with offsets, to avoid T small
  // vector allocations).
  std::vector<int> active;
  std::vector<std::size_t> offset;  // size T+1

  const int* begin(std::size_t t) const { return active.data() + offset[t]; }
  const int* end(std::size_t t) const { return active.data() + offset[t + 1]; }
};

// Immutable per-fit inputs, computed once and shared (read-only) by every
// restart worker: the support mask, the live states, the transition prior,
// and — for the loss-segment engine — the received-pair counts, the
// segment table and the received-probe step list. The reference engine
// builds its own active sets inside every forward_backward call.
struct Mmhd::FitContext {
  bool reference = false;  // EmOptions::cache_emissions == false
  std::vector<char> support;
  // The live states: the N * S states of the S supported symbols,
  // ascending — the only ones a received probe or a loss can occupy, and
  // the compact coordinates of every loss step and of the M-step's
  // transition numerators. compact maps a state to its index in
  // loss_states (-1 for a dead state, whose symbol is never observed).
  std::vector<int> loss_states;
  std::vector<int> dead_states;
  std::vector<int> compact;
  // The row the full M-step gives a state with no transition mass: 1 / S
  // everywhere, floored and renormalized as clamp_parameters would.
  double uniform = 0.0;
  // Transition prior over live rows x live columns (zero elsewhere).
  util::Matrix prior;
  bool use_prior = false;

  // Loss-segment engine. A received probe pins the symbol, so adjacent
  // received pairs reduce to bigram counts (and, with N = 1, to fixed xi
  // counts).
  struct Bigram {
    int from = 0;
    int to = 0;
    double count = 0.0;
  };
  std::vector<Bigram> bigrams;      // adjacent received pairs, (from, to) order
  std::vector<double> received;     // per symbol, received steps
  int first = -1;                   // symbol of a received t = 0, else -1
  std::vector<int> entry_sym;       // entry boundary -> left symbol, -1 = start
  std::vector<int> exit_sym;        // exit boundary -> right symbol, -1 = end
  std::vector<std::size_t> entry_seeds, exit_seeds;  // per boundary: N, or 1
  std::vector<fb::LossSegment> segments;  // distinct keys, sorted
  // Received-probe skeleton (N >= 2 with a received probe; empty
  // otherwise): per skeleton probe k >= 1 the block into it — a bigram
  // index, bigrams.size() + the segment index across a loss run, or
  // bigrams.size() + segments.size() + the run key index across a folded
  // run (steps[0] is unused) — and the segments at the sequence start and
  // end (-1 when that end is received).
  std::vector<int> steps;
  int head = -1;
  int tail = -1;

  // Folded received runs. A maximal run of r >= 2 consecutive self-steps
  // of symbol d (r + 1 adjacent received probes of d) is one skeleton
  // step through B_d^r, where B_d is bigram (d, d)'s block; the probes
  // inside it leave the skeleton. A symbol's runs fold only when the
  // steps removed outweigh the per-iteration work of its powers and of
  // its run-interior recurrence (fold_runs). Keys are the distinct
  // (d, r), ascending in r within each folded symbol.
  struct RunKey {
    std::size_t len = 0;  // r, self-steps in the run
    double count = 0.0;   // occurrences
  };
  struct Fold {
    int sym = 0;
    std::size_t bigram = 0;        // index of bigram (d, d): B_d's block
    std::size_t begin = 0, end = 0;  // its keys in run_keys
  };
  std::vector<RunKey> run_keys;
  std::vector<Fold> folds;

  // Replaces every maximal run of r >= 2 self-steps of a symbol whose fold
  // pays off by one step through its run key (see above).
  void fold_runs(std::size_t n);
};

// Per-restart mutable state besides the parameters: the reference
// engine's trellis, the segment engine's state, and the hoisted em_step
// accumulators. Sized once, reused across iterations.
struct Mmhd::Workspace {
  Trellis w;
  std::vector<double> new_pi, c_loss, c_total;
  util::Matrix a_num;  // transition numerators, live x live (compact)
  // Parameters entering the most recent em_step — the values the runner
  // installs at finalize, since the step's reported likelihood is theirs.
  // old_a is swapped with the model's matrix at each M-step, so the new
  // matrix is written over the one from two steps back.
  std::vector<double> old_pi, old_c;
  util::Matrix old_a;
  int m_steps = 0;  // M-steps of the current fit
  // Loss-posterior numerator (eq. (5) * losses) of the last em_step.
  std::vector<double> kpmf;
  // Loss-segment engine state: folded segment blocks and accumulators, C of
  // each loss state's symbol, and the received-probe skeleton — its N x N
  // blocks, the raw row at the first received probe (v0) and the trailing
  // bridge column (tail), the summed bridge exponent, trellis and E-step
  // accumulators.
  fb::SegmentChain seg;
  fb::SegmentEStep sacc;
  std::vector<double> loss_emit;
  util::AlignedVector<double> blocks, v0, tail;
  long long bridge_exp = 0;
  fb::SkeletonSweep sweep;
  // Folded runs: per run key the exponent of its block (the true B_d^r is
  // the scaled block times 2^run_exp); per fold the summed run-interior
  // xi divided by B_d, as run_z times 2^run_z_exp; scratch for the powers
  // and the recurrence.
  std::vector<long long> run_exp, run_z_exp;
  std::vector<double> run_z, fold_scratch;

  // Starts a fit: the first M-steps rewrite the dead rows (see m_step).
  void prepare(const Mmhd&) { m_steps = 0; }
};

}  // namespace dcl::inference
