#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "faults/faults.h"
#include "fleet/synth.h"
#include "scenarios/chain.h"
#include "scenarios/presets.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace dcl;

// The simulated corpus is fixed: its scenario parameters and simulator
// seeds come from this constant, not from the benchmark seed. A chain
// trace's analysis cost depends on its EM iteration counts, which vary
// 3-10x between simulator seeds of one regime; a corpus drawn afresh per
// seed at the size a run can afford would move the timings 13-30% from
// seed to seed, more than any bound a regression gate can use. The seed
// varies each trace's receiver clock error instead (and everything in the
// synthetic survey mesh).
constexpr std::uint64_t kCorpusSeed = 20031027;

// Simulated time before the measurement window, as bench_table3_wdcl uses.
constexpr double kWarmupS = 60.0;
constexpr double kProbeIntervalS = 0.020;

// Receiver clock (offset, skew) of the four emu presets, applied in turn.
struct ClockPair {
  double offset_s;
  double skew;
};
constexpr ClockPair kClockPairs[4] = {
    {0.3, 80e-6}, {0.12, 40e-6}, {-0.2, -50e-6}, {0.1, 120e-6}};

// Probes per diagnose trace, alternating: the paper's ~1000 s of 20 ms
// probing, and 400 s. (A 100k-probe trace costs ~5 s per pass at this
// configuration, more than a run can spend on one trace.)
constexpr std::size_t kDiagnoseProbes[2] = {50000, 20000};
// Groundtruth scenarios are shorter (400 s of probing), so that a run
// affords more of them: with few scenarios the per-trace latencies form a
// few clusters and their median jumps between them.
constexpr std::size_t kGroundtruthProbes = 20000;
constexpr std::size_t kSurveyProbes = 1200;

// Inputs per second of requested run time, sized so that the three
// analysis passes together take about that long on the reference host
// (one thread): a diagnose trace at its careful configuration costs
// ~35 us per probe, a groundtruth scenario ~0.55 s for its four clock
// variants at the paper default, a survey path ~16 ms.
constexpr double kDiagnosePerS = 0.3;
constexpr double kGroundtruthScenariosPerS = 0.6;
constexpr double kSurveyPerS = 20.0;

enum class Regime { kSdcl, kWdcl, kNodcl };

struct ChainSlot {
  Regime regime = Regime::kSdcl;
  bool red = false;
  std::size_t probes = 0;
  double bw_factor = 1.0;     // bottleneck bandwidth jitter
  double burst_factor = 1.0;  // burst (UDP on-off) rate jitter
  std::uint64_t sim_seed = 0;
};

ChainSlot make_slot(std::size_t k, std::size_t probes, util::Rng& corpus) {
  ChainSlot s;
  s.regime = static_cast<Regime>(k % 3);
  s.red = (k / 3) % 2 == 1;
  s.probes = probes;
  s.bw_factor = corpus.uniform(0.9, 1.1);
  s.burst_factor = corpus.uniform(0.9, 1.1);
  s.sim_seed = corpus.engine()();
  return s;
}

scenarios::ChainConfig chain_config(const ChainSlot& s) {
  // The measurement window ends 2 s before the traffic does.
  const double duration =
      kWarmupS + static_cast<double>(s.probes) * kProbeIntervalS + 2.0;
  scenarios::ChainConfig c;
  switch (s.regime) {
    case Regime::kSdcl:
      c = scenarios::presets::sdcl_chain(1e6 * s.bw_factor, s.sim_seed,
                                         duration, kWarmupS);
      c.udp_rate_bps[1] *= s.burst_factor;
      break;
    case Regime::kWdcl:
      c = scenarios::presets::wdcl_chain(0.8e6 * s.bw_factor, 16e6,
                                         s.sim_seed, duration, kWarmupS);
      c.udp_rate_bps[2] *= s.burst_factor;
      break;
    case Regime::kNodcl:
      c = scenarios::presets::nodcl_chain(0.5e6 * s.bw_factor, 8e6,
                                          s.sim_seed, duration, kWarmupS);
      c.udp_rate_bps[2] *= s.burst_factor;
      break;
  }
  if (s.red) c.queue_kind = scenarios::ChainConfig::QueueKind::kRed;
  return c;
}

const char* regime_name(const ChainSlot& s) {
  switch (s.regime) {
    case Regime::kSdcl: return s.red ? "sdcl-red" : "sdcl";
    case Regime::kWdcl: return s.red ? "wdcl-red" : "wdcl";
    case Regime::kNodcl: return s.red ? "nodcl-red" : "nodcl";
  }
  return "?";
}

struct ChainRun {
  trace::Trace clean;  // true one-way delays
  truth::Truth truth;
};

// Simulates one slot and extracts its trace and ground truth (scored with
// the workload's eps). Virtual queuing delays are taken against the clean
// trace's smallest delay, the floor the discretizer uses.
ChainRun simulate(const ChainSlot& slot, double eps_l, double eps_d,
                  Inputs& in, HostClock& clock) {
  const double t0 = now_s();
  scenarios::ChainScenario sc(chain_config(slot));
  sc.run();
  in.sim_runs.emplace_back(now_s() - t0, clock.last_ref());
  in.sim_events += sc.network().sim().events_processed();

  ChainRun run;
  const auto obs = sc.observations();
  const auto send = sc.send_times(sc.window_start(), sc.window_end());
  run.clean.records.resize(obs.size());
  double floor = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < obs.size(); ++i) {
    auto& r = run.clean.records[i];
    r.seq = i;
    r.send_time = send[i];
    r.obs = obs[i];
    if (!obs[i].lost) floor = std::min(floor, obs[i].delay);
  }

  std::vector<truth::LostProbe> lost;
  std::vector<double> qmax;
  const auto by_link = sc.probe_losses_by_link();
  std::uint64_t at_routers = 0;
  for (int k = 0; k < 3; ++k) {
    qmax.push_back(sc.true_qmax(k));
    const auto owds = sc.ground_truth_virtual_owds_at(k);
    for (double owd : owds) lost.push_back({k, owd - floor});
    // Ghosts still in flight when the simulation ended.
    for (std::uint64_t n = owds.size(); n < by_link[k]; ++n)
      lost.push_back({k, std::numeric_limits<double>::quiet_NaN()});
    at_routers += by_link[k];
  }
  // Window losses at the access links count in the loss shares too.
  std::uint64_t in_window = 0;
  for (const auto& [seq, rec] : sc.tracer().losses(sc.prober().flow()))
    if (rec.send_time >= sc.window_start() && rec.send_time <= sc.window_end())
      ++in_window;
  for (std::uint64_t n = at_routers; n < in_window; ++n)
    lost.push_back({-1, std::numeric_limits<double>::quiet_NaN()});
  run.truth = truth::score_truth(lost, qmax, eps_l, eps_d);
  clock.checkpoint();
  return run;
}

// The clean trace as an unsynchronized receiver measures it. The seed
// jitters the preset's offset and skew by up to 20%, keeping their signs.
std::shared_ptr<trace::Trace> with_clock(const trace::Trace& clean,
                                         const ClockPair& pair,
                                         util::Rng& rng) {
  const double offset = pair.offset_s * rng.uniform(0.8, 1.2);
  const double skew = pair.skew * rng.uniform(0.8, 1.2);
  auto t = std::make_shared<trace::Trace>(clean);
  for (auto& r : t->records)
    if (!r.obs.lost) r.obs.delay += offset + skew * r.send_time;
  return t;
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

// The README's careful dclid invocation plus raced restarts:
// --eps-l 0.1 --eps-d 0.1 --bootstrap 500 --select-N 4 --restarts 4
// --race-warmup 5, on one thread.
core::PipelineConfig diagnose_config() {
  core::PipelineConfig cfg;
  cfg.identifier.eps_l = 0.1;
  cfg.identifier.eps_d = 0.1;
  cfg.identifier.bootstrap_replicates = 500;
  cfg.identifier.auto_hidden_max = 4;
  cfg.identifier.em.restarts = 4;
  cfg.identifier.em.race_warmup = 5;
  cfg.identifier.em.threads = 1;
  return cfg;
}

Inputs make_diagnose(std::uint64_t seed, int seconds,
                     const std::string& workdir, HostClock& clock) {
  Inputs in;
  in.cfg = diagnose_config();
  const auto n = static_cast<std::size_t>(
      std::max(3L, std::lround(seconds * kDiagnosePerS)));
  util::Rng corpus(kCorpusSeed);
  util::Rng rng(seed ^ 0xD1A6ull);
  for (std::size_t k = 0; k < n; ++k) {
    const ChainSlot slot = make_slot(k, kDiagnoseProbes[k % 2], corpus);
    const ChainRun run = simulate(slot, in.cfg.identifier.eps_l,
                                  in.cfg.identifier.eps_d, in, clock);
    const ClockPair& pair = kClockPairs[k % 4];
    Item it;
    it.id = "chain/" + std::to_string(k) + "/" + regime_name(slot);
    it.path = workdir + "/diagnose-" + std::to_string(k) + ".csv";
    trace::write_trace_file(it.path, *with_clock(run.clean, pair, rng));
    it.bytes = file_size(it.path);
    it.probes = run.clean.records.size();
    it.negative_clock = pair.offset_s < 0.0;
    it.scored = true;
    it.truth = run.truth;
    in.items.push_back(std::move(it));
    clock.checkpoint();
  }
  return in;
}

Inputs make_groundtruth(std::uint64_t seed, int seconds, HostClock& clock) {
  Inputs in;
  in.cfg.identifier.em.threads = 1;  // otherwise the paper default
  const auto n = static_cast<std::size_t>(
      std::max(3L, std::lround(seconds * kGroundtruthScenariosPerS)));
  util::Rng corpus(kCorpusSeed ^ 0x67ull);
  util::Rng rng(seed ^ 0x6A7ull);
  for (std::size_t k = 0; k < n; ++k) {
    const ChainSlot slot = make_slot(k, kGroundtruthProbes, corpus);
    const ChainRun run = simulate(slot, in.cfg.identifier.eps_l,
                                  in.cfg.identifier.eps_d, in, clock);
    for (std::size_t c = 0; c < 4; ++c) {
      Item it;
      it.id = "chain/" + std::to_string(k) + "/" + regime_name(slot) +
              "/clock" + std::to_string(c);
      it.mem = with_clock(run.clean, kClockPairs[c], rng);
      it.probes = it.mem->records.size();
      it.negative_clock = kClockPairs[c].offset_s < 0.0;
      it.scored = true;
      it.truth = run.truth;
      in.items.push_back(std::move(it));
    }
  }
  return in;
}

// dclfleet defaults (one restart), one thread per level.
Inputs make_survey(std::uint64_t seed, int seconds,
                   const std::string& workdir, HostClock& clock) {
  Inputs in;
  in.cfg.identifier.em.restarts = 1;
  in.cfg.identifier.em.threads = 1;  // run_fleet sets it from its plan too
  fleet::MeshConfig mesh;
  mesh.paths = static_cast<std::size_t>(
      std::max(100L, std::lround(seconds * kSurveyPerS)));
  mesh.probes_per_path = kSurveyProbes;
  mesh.seed = seed;
  util::Rng faults_rng(seed ^ 0xFA17ull);
  for (std::size_t i = 0; i < mesh.paths; ++i) {
    Item it;
    it.id = "mesh/" + std::to_string(i);
    const trace::Trace path = fleet::synth_path_trace(mesh, i);
    const std::uint64_t fault_seed = faults_rng.engine()();
    if (i % 10 == 9) {
      // Hostile input stays in memory, so the sanitizer meets its faults
      // rather than the strict CSV reader.
      const faults::Injector injector(faults::random_schedule(fault_seed));
      it.mem = std::make_shared<trace::Trace>(injector.apply(path));
      it.probes = it.mem->records.size();
    } else {
      it.path = workdir + "/survey-" + std::to_string(i) + ".csv";
      trace::write_trace_file(it.path, path);
      it.bytes = file_size(it.path);
      it.probes = path.records.size();
    }
    in.items.push_back(std::move(it));
    clock.checkpoint();
  }
  return in;
}

}  // namespace

Inputs make_inputs(const std::string& workload, std::uint64_t seed,
                   int seconds, const std::string& workdir,
                   HostClock& clock) {
  Inputs in;
  if (workload == "diagnose")
    in = make_diagnose(seed, seconds, workdir, clock);
  else if (workload == "groundtruth")
    in = make_groundtruth(seed, seconds, clock);
  else if (workload == "survey")
    in = make_survey(seed, seconds, workdir, clock);
  else
    throw std::invalid_argument("unknown workload " + workload);
  return in;
}

}  // namespace perfbench
