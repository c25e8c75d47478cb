// The traced pass: dclid's analysis re-driven layer by layer from outside,
// one span around each call into a layer's public function, so the
// end-to-end time can be attributed to modules without touching them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "trace/trace_io.h"

namespace perfbench {

// Spans kept in memory and written at exit as Chrome trace JSON.
class Spans {
 public:
  struct Span {
    const char* name = nullptr;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
    int trace = -1;  // index of the trace the span belongs to
  };

  // Opens a span under the innermost open one; closes it on destruction.
  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_;
  };

  // Spans opened from now on belong to trace `id`.
  void set_trace(int id) { trace_ = id; }
  const std::vector<Span>& spans() const { return spans_; }
  // Duration of each span minus the time its child spans cover.
  std::vector<double> self_times() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
  int trace_ = -1;
};

// Work counts the layers report, summed over a pass.
struct LayerCounts {
  std::uint64_t sanitize_dropped = 0;
  std::uint64_t sanitize_repaired = 0;
  std::uint64_t timesync_skipped = 0;
  std::uint64_t select_iterations = 0;
  std::uint64_t select_raced_out = 0;
  std::uint64_t coarse_iterations = 0;  // over all restarts and retries
  std::uint64_t coarse_steps = 0;       // iterations x sequence length
  std::uint64_t coarse_nonconverged = 0;
  std::uint64_t coarse_retries = 0;
  std::uint64_t fine_iterations = 0;
  std::uint64_t fine_steps = 0;
  std::uint64_t fine_nonconverged = 0;
  std::uint64_t bootstrap_replicates = 0;
};

// core::analyze_trace, called layer by layer in the order it calls them:
// sanitize_trace, the trace's observation arrays, correct_observations,
// stationarity, the coarse Discretizer, select_mmhd_hidden_states,
// Mmhd::fit (with its re-seeded retries), the hypothesis tests and the i*
// bound, bootstrap_wdcl, the fine Discretizer and Mmhd::fit, and
// component_heuristic_bound. It covers the configurations the benchmark
// runs: sanitization on, clock-skew correction on, no deadline, no
// stationary window, the MMHD model and the posterior bootstrap. Its
// result must equal analyze_trace's bit for bit; the benchmark checks that
// through the verdict digest.
dcl::core::PipelineResult traced_analyze(const dcl::trace::Trace& input,
                                         const dcl::core::PipelineConfig& cfg,
                                         Spans& spans, LayerCounts& counts);

}  // namespace perfbench
