// Host-speed calibration: a fixed reference unit, measured between units of
// timed work, that turns raw wall time into reference-host seconds.
//
// The unit calls no dclid code. It is a miniature of an EM forward sweep:
// a scaled forward recursion of a dense 64-state chain over 16k steps in
// vectorized FMA loops, reading an 8 MiB emission table and writing an
// 8 MiB trellis. Like the real sweeps it mixes vector arithmetic with
// streaming over a working set far beyond L2, so it slows down with both
// kinds of interference a shared host shows: a neighbour on the sibling
// hardware thread and contention for the shared L3 and memory bandwidth.
// On the host the workloads were sized on, it halved the spread of
// repeated analyses of one fixed trace over 5-20 s windows; a streaming
// axpy, a pointer chase, an ALU-only loop and smaller sweeps did worse
// (see README.md).
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Seconds on the steady clock.
double now_s();

class RefUnit {
 public:
  RefUnit();
  // Runs the unit twice back to back and returns the second pass's wall
  // time in ms (the first refills the caches the timed work evicted).
  double measure_ms();

 private:
  void pass();

  std::vector<double> trans_;  // row-stochastic transition matrix
  std::vector<double> emit_;   // per-step emission likelihoods
  std::vector<double> alpha_;  // scaled forward variables
};

// Reference measurements interleaved with the benchmark's work. The work
// between measurements r and r+1 is segment r; its raw wall time is scaled
// by (kNominalRefMs / mean(ref r, ref r+1))^kCorrection, so a segment run
// while the host was slow (and the reference ran slow with it) reads as
// the time it would have taken on the reference host.
class HostClock {
 public:
  // The unit's median time on the 4-vCPU host the workloads were sized on.
  static constexpr double kNominalRefMs = 6.4;
  // How much of the unit's speed change is taken out of the work's time,
  // as an exponent: 0 is raw time, 1 the full ratio. The analyses follow
  // the unit only in part. On the host the workloads were sized on, the
  // unit ran 1.5x fast for minutes at a time while they ran at most 1.3x
  // faster, and the full ratio then read them 20-35% slow. Over runs
  // spread across two hours there, a half correction varied least
  // (README.md).
  static constexpr double kCorrection = 0.5;
  // Minimum raw time between two measurements. A measurement costs about
  // 13 ms; host speed on a shared host moves within seconds, so sparser
  // measurements would miss what they are meant to correct.
  static constexpr double kIntervalS = 0.5;

  // `t_start` is the process start on the steady clock.
  explicit HostClock(double t_start);

  // Measures the reference when kIntervalS has passed since the last
  // measurement, or always when `force`. Closes the open segment.
  void checkpoint(bool force = false);

  // Index of the most recent measurement, which is also the index of the
  // open segment (the one work done now belongs to).
  int last_ref() const { return static_cast<int>(refs_.size()) - 1; }

  // Scale of a closed segment: reference-host seconds per raw second.
  double scale(int seg) const;

  // Reference-host seconds from process start to the end of measurement
  // `ref`, measurement time included (set-up time).
  double norm_since_start(int ref) const;
  // Raw seconds from process start to the end of measurement `ref`.
  double raw_since_start(int ref) const;
  // Reference-host and raw seconds of the work between measurements
  // `from` and `to`, measurement time excluded.
  double norm_between(int from, int to) const;
  double raw_between(int from, int to) const;
  // Raw seconds spent measuring between measurements `from` and `to`
  // (the measurement `to` included, `from` excluded).
  double measuring_between(int from, int to) const;

  double median_ref_ms() const;

 private:
  struct Ref {
    double t_begin = 0.0;
    double t_end = 0.0;
    double ms = 0.0;
  };
  RefUnit unit_;
  double t_start_;
  std::vector<Ref> refs_;
};

}  // namespace perfbench
