// Benchmark inputs: the traces each workload analyses, generated from the
// seed, and the analysis configuration it runs them with.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "hostclock.h"
#include "trace/trace_io.h"
#include "truth.h"

namespace perfbench {

struct Item {
  std::string id;
  std::string path;                                // CSV file, or empty
  std::shared_ptr<const dcl::trace::Trace> mem;    // in-memory trace
  std::uint64_t bytes = 0;                         // size of `path`
  std::size_t probes = 0;                          // records in the trace
  // Receiver clock behind the sender's: most one-way delays are negative
  // and the program gives no verdict (the known failing class).
  bool negative_clock = false;
  bool scored = false;  // simulated, so `truth` holds ground truth
  truth::Truth truth;
};

struct Inputs {
  std::vector<Item> items;
  dcl::core::PipelineConfig cfg;
  // Raw seconds and host-clock segment of each simulation, and the
  // simulator events they processed.
  std::vector<std::pair<double, int>> sim_runs;
  std::uint64_t sim_events = 0;
};

// Builds the inputs of `workload` ("diagnose", "survey" or "groundtruth")
// sized for about `seconds` of analysis on the reference host. CSV files
// go under `workdir`. Calls clock.checkpoint() between steps.
Inputs make_inputs(const std::string& workload, std::uint64_t seed,
                   int seconds, const std::string& workdir,
                   HostClock& clock);

}  // namespace perfbench
