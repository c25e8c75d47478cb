// The preset-scenario helper of the CLI core, in its own object file so
// that a program which never simulates (dclfleet) does not link the
// simulator.
#include "cli_core.h"
#include "scenarios/presets.h"

namespace dcl::cli {

bool is_preset(std::string_view name) {
  return name == "sdcl" || name == "wdcl" || name == "nodcl";
}

trace::Trace preset_trace(const std::string& name, std::uint64_t seed,
                          double duration_s) {
  namespace presets = scenarios::presets;
  // Warmup before the probed window, scaled down for short runs.
  const double warmup_s = duration_s >= 300.0 ? 60.0 : 0.2 * duration_s;
  const scenarios::ChainConfig cfg =
      name == "sdcl"   ? presets::sdcl_chain(1e6, seed, duration_s, warmup_s)
      : name == "wdcl" ? presets::wdcl_chain(0.8e6, 16e6, seed, duration_s,
                                             warmup_s)
                       : presets::nodcl_chain(0.5e6, 8e6, seed, duration_s,
                                              warmup_s);
  scenarios::ChainScenario sc(cfg);
  sc.run();
  return trace::make_trace(sc.observations(), sc.window_start(),
                           cfg.probe_interval_s);
}

}  // namespace dcl::cli
