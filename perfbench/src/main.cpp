// perfbench: dclid measured end to end (trace bytes in, verdict out) and
// layer by layer, on one thread, in reference-host seconds.
//
//   perfbench --workload diagnose|survey|groundtruth --seed N --seconds S
//             --trace 0|1 --workdir DIR [--trace-out FILE]
//
// A run generates its inputs from the seed (set-up, repeated), analyses a
// fixed, seed-determined set of traces through the entry points the CLIs
// call (the untraced passes, which give the end-to-end metrics), checks
// the outputs, and with --trace 1 analyses the same traces again layer by
// layer (the traced pass, which gives the per-layer metrics). Every metric
// prints as "metric <name> <value> <unit>"; the last line is one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is 0 unless the run could not be made.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/journal.h"
#include "hostclock.h"
#include "inputs.h"
#include "obs/manifest.h"
#include "traced.h"
#include "util/error.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace dcl;

constexpr double kInf = std::numeric_limits<double>::infinity();
// Layer self times must cover at least this share of the traced total.
constexpr double kLayerSumTolerance = 0.05;
// Set-up runs kSetups times and set-up time is their median; the untraced
// analysis runs kPasses times over the same traces and every timing is a
// median over passes. A shared host slows down for seconds at a time;
// medians over repeats spread across the run shrug such spells off.
constexpr int kSetups = 3;
constexpr int kPasses = 3;

// fsync calls the process has made. The binary links with --wrap=fsync
// (CMakeLists.txt), so every call the journal makes passes through
// __wrap_fsync below.
std::atomic<std::uint64_t> g_fsyncs{0};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "diagnose|survey|groundtruth --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stoi(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--workdir") a.workdir = v;
    else if (flag == "--trace-out") a.trace_out = v;
    else usage(("unknown flag " + flag).c_str());
  }
  if (a.workload.empty() || a.workdir.empty() || a.seconds < 1)
    usage("--workload, --workdir and --seconds >= 1 are required");
  return a;
}

// ---- printing ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metric(const Metric& m, const char* note = "") {
  std::printf("metric %s %.17g %s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note);
}

std::string json_result(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    // JSON has no infinity: a metric that has none (say, a median latency
    // with over half the traces unanswered) prints as null.
    if (std::isfinite(ms[i].value))
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value);
    else
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": null, ",
                    i ? ", " : "", ms[i].name.c_str());
    s += buf;
    s += "\"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}}";
}

// ---- statistics ---------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile with at least 10 samples above it: the
// (n - 10)-th smallest value. Reported only when that is p90 or higher.
bool tail(std::vector<double> v, double* value, double* percentile) {
  const std::size_t n = v.size();
  if (n < 100) return false;
  std::sort(v.begin(), v.end());
  *value = v[n - 11];
  *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return true;
}

// ---- process memory -----------------------------------------------------

// Resets the peak-RSS high-water mark to the current RSS.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return !f.fail();
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return std::nan("");
}

// ---- analysis -----------------------------------------------------------

std::string error_string(const util::Error& e) {
  return std::string(util::to_string(e.code())) + ": " + e.what();
}

void set_status(fleet::TraceOutcome& o) {
  o.status = o.result.degraded ? fleet::TraceStatus::kDegraded
                               : fleet::TraceStatus::kOk;
}

// One trace through the entry points dclid calls: read_trace_file, then
// analyze_trace. A read error is a failed outcome, as in the fleet.
fleet::TraceOutcome analyze_item(const Item& it, std::size_t index,
                                 const core::PipelineConfig& cfg) {
  fleet::TraceOutcome o;
  o.index = index;
  o.id = it.id;
  o.seed = cfg.identifier.em.seed;
  try {
    trace::Trace loaded;
    const trace::Trace* t = it.mem.get();
    if (t == nullptr) {
      loaded = trace::read_trace_file(it.path);
      t = &loaded;
    }
    o.probes = t->records.size();
    o.result = core::analyze_trace(*t, cfg);
    set_status(o);
  } catch (const util::Error& e) {
    o.status = fleet::TraceStatus::kFailed;
    o.error = error_string(e);
  }
  return o;
}

bool answered(const fleet::TraceOutcome& o) {
  return o.status != fleet::TraceStatus::kFailed && o.result.answered;
}

// One line per outcome with every verdict field at full precision, so two
// digests match iff the verdicts are bitwise identical.
std::string digest(const std::vector<fleet::TraceOutcome>& outcomes) {
  std::string all;
  char buf[512];
  for (const auto& o : outcomes) {
    const auto& id = o.result.identification;
    std::snprintf(
        buf, sizeof(buf),
        "%zu|%s|%llu|%zu|%s|%d|%zu|%.17g|%d%d|%d|%.17g|%.17g|%d|%zu|%d|%d|"
        "%.17g|%d|%.17g|%.17g|%d|",
        o.index, fleet::to_string(o.status),
        static_cast<unsigned long long>(o.seed), o.probes, o.error.c_str(),
        o.result.answered ? 1 : 0, id.losses, id.loss_rate,
        id.sdcl.accepted ? 1 : 0, id.wdcl.accepted ? 1 : 0, id.wdcl.i_star,
        id.wdcl.f_at_2istar, id.coarse_bound.seconds,
        o.result.degraded ? 1 : 0, o.result.warnings.size(),
        id.hidden_states_used, id.fit.iterations, id.fit.log_likelihood,
        id.fine_valid ? 1 : 0, id.fine_bound.bound_seconds,
        id.bootstrap.accept_fraction, id.bootstrap.replicates);
    all += buf;
    for (double p : id.virtual_pmf) {
      std::snprintf(buf, sizeof(buf), "%.17g,", p);
      all += buf;
    }
    all += '\n';
  }
  return obs::digest_hex(all);
}

// Per-trace seeds exactly as run_fleet forks them.
std::vector<std::uint64_t> fleet_seeds(std::uint64_t base, std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  util::Rng chain(base);
  for (auto& s : seeds) s = chain.engine()();
  return seeds;
}

bool same_entry(const fleet::journal::Entry& a,
                const fleet::journal::Entry& b) {
  auto bits = [](double x) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
  };
  return a.index == b.index && a.status == b.status && a.seed == b.seed &&
         a.probes == b.probes && a.id == b.id && a.error == b.error &&
         a.answered == b.answered && a.degraded == b.degraded &&
         a.sdcl_accepted == b.sdcl_accepted &&
         a.wdcl_accepted == b.wdcl_accepted && a.warnings == b.warnings &&
         a.losses == b.losses && bits(a.loss_rate) == bits(b.loss_rate) &&
         a.i_star == b.i_star && bits(a.f_at_2istar) == bits(b.f_at_2istar) &&
         bits(a.bound_seconds) == bits(b.bound_seconds);
}

// What a pass over the workload's traces produced.
struct Pass {
  std::vector<fleet::TraceOutcome> outcomes;
  std::vector<double> raw_s;  // per trace; survey includes the journal
  std::vector<int> seg;       // host-clock segment of each trace
  int ref_begin = 0;          // measurements bracketing the pass
  int ref_end = 0;
  // survey only
  double fleet_overhead_s = 0.0;  // run_fleet wall time outside the traces
  std::size_t fleet_failed = 0;
  std::size_t fleet_degraded = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_fsyncs = 0;
  bool journal_ok = true;
};

fleet::journal::Header journal_header(std::uint64_t base_seed,
                                      std::size_t jobs) {
  fleet::journal::Header h;
  h.base_seed = base_seed;
  h.jobs = jobs;
  h.config_digest = "perfbench-survey";
  return h;
}

// The untraced survey pass: run_fleet at dclfleet defaults, every outcome
// appended to a checkpoint journal, then the journal replayed and checked.
Pass survey_pass(const Inputs& in, const std::string& journal_path,
                 HostClock& clock) {
  Pass p;
  std::vector<fleet::TraceJob> jobs;
  for (const Item& it : in.items) jobs.push_back({it.id, it.path, it.mem});
  fleet::FleetConfig fcfg;
  fcfg.pipeline = in.cfg;
  fcfg.outer_threads = 1;
  fcfg.inner_threads = 1;

  const std::uint64_t fsyncs0 = g_fsyncs.load();
  fleet::journal::Writer writer;
  writer.create(journal_path,
                journal_header(in.cfg.identifier.em.seed, jobs.size()));
  std::vector<fleet::journal::Entry> expected;
  double measuring_s = 0.0;  // reference measurements inside run_fleet
  clock.checkpoint(true);
  p.ref_begin = clock.last_ref();
  const double t0 = now_s();
  const auto report = fleet::run_fleet(
      jobs, fcfg, [&](const fleet::TraceOutcome& o) {
        if (!o.executed) return;
        expected.push_back(fleet::journal::entry_from_outcome(o));
        const double a0 = now_s();
        writer.append(expected.back());
        p.raw_s.push_back(o.wall_s + now_s() - a0);
        p.seg.push_back(clock.last_ref());
        const int before = clock.last_ref();
        clock.checkpoint();
        measuring_s += clock.measuring_between(before, clock.last_ref());
      });
  double traces_s = 0.0;
  for (double x : p.raw_s) traces_s += x;
  p.fleet_overhead_s = now_s() - t0 - measuring_s - traces_s;
  clock.checkpoint(true);
  p.ref_end = clock.last_ref();
  writer.close();
  p.journal_fsyncs = g_fsyncs.load() - fsyncs0;
  p.outcomes = report.traces;
  p.fleet_failed = report.failed;
  p.fleet_degraded = report.degraded;

  const auto replay = fleet::journal::read_file(journal_path);
  p.journal_bytes = replay.valid_bytes;
  p.journal_ok = replay.has_header && replay.warning.empty() &&
                 expected.size() == jobs.size() &&
                 replay.entries.size() == expected.size();
  for (std::size_t i = 0; p.journal_ok && i < expected.size(); ++i)
    p.journal_ok = same_entry(replay.entries[i], expected[i]);
  return p;
}

Pass plain_pass(const Inputs& in, HostClock& clock) {
  Pass p;
  clock.checkpoint(true);
  p.ref_begin = clock.last_ref();
  for (std::size_t i = 0; i < in.items.size(); ++i) {
    const double t0 = now_s();
    p.outcomes.push_back(analyze_item(in.items[i], i, in.cfg));
    p.raw_s.push_back(now_s() - t0);
    p.seg.push_back(clock.last_ref());
    clock.checkpoint();
  }
  clock.checkpoint(true);
  p.ref_end = clock.last_ref();
  return p;
}

// The traced pass: the same traces and per-trace seeds, each layer called
// from here inside its own span.
struct TracedPass {
  Pass pass;
  Spans spans;
  LayerCounts counts;
  std::uint64_t trace_bytes = 0;
};

TracedPass traced_pass(const std::string& workload, const Inputs& in,
                       const std::string& workdir, HostClock& clock) {
  TracedPass tp;
  Pass& p = tp.pass;
  const bool survey = workload == "survey";
  const auto seeds =
      fleet_seeds(in.cfg.identifier.em.seed, in.items.size());
  fleet::journal::Writer writer;
  if (survey)
    writer.create(workdir + "/survey-traced.journal",
                  journal_header(in.cfg.identifier.em.seed, in.items.size()));
  clock.checkpoint(true);
  p.ref_begin = clock.last_ref();
  for (std::size_t i = 0; i < in.items.size(); ++i) {
    const Item& it = in.items[i];
    core::PipelineConfig cfg = in.cfg;
    if (survey) cfg.identifier.em.seed = seeds[i];
    fleet::TraceOutcome o;
    o.index = i;
    o.id = it.id;
    o.seed = cfg.identifier.em.seed;
    tp.spans.set_trace(static_cast<int>(i));
    const double t0 = now_s();
    {
      Spans::Scope root(tp.spans, "analyze");
      try {
        trace::Trace loaded;
        const trace::Trace* t = it.mem.get();
        if (t == nullptr) {
          tp.trace_bytes += it.bytes;
          Spans::Scope s(tp.spans, "trace");
          loaded = trace::read_trace_file(it.path);
          t = &loaded;
        }
        o.probes = t->records.size();
        o.result = traced_analyze(*t, cfg, tp.spans, tp.counts);
        set_status(o);
      } catch (const util::Error& e) {
        o.status = fleet::TraceStatus::kFailed;
        o.error = error_string(e);
      }
      if (survey) {
        Spans::Scope s(tp.spans, "journal");
        writer.append(fleet::journal::entry_from_outcome(o));
      }
    }
    p.raw_s.push_back(now_s() - t0);
    p.seg.push_back(clock.last_ref());
    p.outcomes.push_back(std::move(o));
    clock.checkpoint();
  }
  clock.checkpoint(true);
  p.ref_end = clock.last_ref();
  return tp;
}

// ---- the run --------------------------------------------------------------

// The warm-up trace: the shortest one with a verdict in reach, taken from
// the file-backed traces when the workload has any, so that the warm-up
// reads a CSV file as most timed traces do.
const Item& warm_up_item(const Inputs& in) {
  auto before = [](const Item& a, const Item& b) {
    const bool file_a = a.mem == nullptr, file_b = b.mem == nullptr;
    return file_a != file_b ? file_a : a.probes < b.probes;
  };
  const Item* warm = nullptr;
  for (const Item& it : in.items)
    if (!it.negative_clock && (warm == nullptr || before(it, *warm)))
      warm = &it;
  if (warm == nullptr) throw std::runtime_error("no trace to warm up on");
  return *warm;
}

// FNV-1a over every input byte the workload analyses, to check that
// repeated set-ups produce identical inputs.
std::uint64_t fingerprint(const Inputs& in) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  };
  for (const Item& it : in.items) {
    mix(it.id.data(), it.id.size());
    if (it.mem) {
      for (const auto& r : it.mem->records) {
        mix(&r.seq, sizeof r.seq);
        mix(&r.send_time, sizeof r.send_time);
        mix(&r.obs.lost, sizeof r.obs.lost);
        if (!r.obs.lost) mix(&r.obs.delay, sizeof r.obs.delay);
      }
    } else {
      std::ifstream f(it.path, std::ios::binary);
      const std::string bytes((std::istreambuf_iterator<char>(f)),
                              std::istreambuf_iterator<char>());
      mix(bytes.data(), bytes.size());
    }
  }
  return h;
}

// Median over passes of f(pass).
template <typename F>
double median_over(const std::vector<Pass>& passes, F f) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(f(p));
  return median(v);
}

int run(const Args& args, double t_start) {
  namespace fs = std::filesystem;
  fs::create_directories(args.workdir);
  const bool survey = args.workload == "survey";
  HostClock clock(t_start);
  clock.checkpoint(true);

  // Set-up, kSetups times: the inputs, then one untimed warm-up analysis.
  // The first set-up's inputs are analysed; the others only time set-up
  // again and must reproduce them exactly.
  Inputs in;
  std::vector<double> setup_norm, setup_raw;
  bool same_inputs = true;
  std::uint64_t first_fingerprint = 0;
  for (int rep = 0; rep < kSetups; ++rep) {
    const int r0 = clock.last_ref();
    Inputs cur = make_inputs(args.workload, args.seed, args.seconds,
                             args.workdir, clock);
    // Hand freed memory back first, so that the peak RSS of the timed
    // phase measures analysis, and the warm-up re-grows the heap for it.
    // The warm-up analyses one trace through the pass the timed passes
    // make (in survey: run_fleet and the journal).
    malloc_trim(0);
    Inputs warm;
    warm.cfg = cur.cfg;
    warm.items = {warm_up_item(cur)};
    if (survey)
      (void)survey_pass(warm, args.workdir + "/warm-up.journal", clock);
    else
      (void)plain_pass(warm, clock);
    const std::uint64_t fp = fingerprint(cur);
    clock.checkpoint(true);
    const int r1 = clock.last_ref();
    const bool first = rep == 0;
    setup_norm.push_back(clock.norm_since_start(r1) -
                         (first ? 0.0 : clock.norm_since_start(r0)));
    setup_raw.push_back(clock.raw_since_start(r1) -
                        (first ? 0.0 : clock.raw_since_start(r0)));
    if (first) {
      in = std::move(cur);
      first_fingerprint = fp;
    } else {
      same_inputs = same_inputs && fp == first_fingerprint;
    }
  }
  // The repeats' inputs are gone; return their memory before resetting
  // the high-water mark, so the peak measures analysis on the inputs.
  malloc_trim(0);
  const bool rss_reset = reset_peak_rss();

  std::vector<Pass> passes;
  for (int k = 0; k < kPasses; ++k)
    passes.push_back(
        survey ? survey_pass(in,
                             args.workdir + "/survey-" + std::to_string(k) +
                                 ".journal",
                             clock)
               : plain_pass(in, clock));
  const double rss_mb = peak_rss_mb();

  std::optional<TracedPass> tp;
  if (args.trace) tp = traced_pass(args.workload, in, args.workdir, clock);

  // ---- end-to-end metrics of the untraced passes ----
  // Verdicts are identical in every pass (checked below). Every analysis
  // in every pass is one attempt. A trace's time is its median over the
  // passes, so a slow spell that hits one pass of a trace is left out;
  // the latency percentiles are taken over these per-trace times, and the
  // timed work is their sum (plus run_fleet's median overhead in survey).
  const Pass& p = passes.front();
  const std::size_t n = in.items.size();
  const std::size_t attempted = n * passes.size();
  // Reference-host seconds per raw second over a whole pass.
  auto pass_scale = [&](const Pass& q) {
    return clock.norm_between(q.ref_begin, q.ref_end) /
           clock.raw_between(q.ref_begin, q.ref_end);
  };
  double timed_norm = median_over(passes, [&](const Pass& q) {
    return q.fleet_overhead_s * pass_scale(q);
  });
  double timed_raw =
      median_over(passes, [](const Pass& q) { return q.fleet_overhead_s; });
  std::size_t n_answered = 0;
  std::size_t unexpected = 0;  // unanswered outside the known classes
  std::vector<double> lat_norm, lat_raw;
  for (std::size_t i = 0; i < n; ++i) {
    const double norm_s = median_over(passes, [&](const Pass& q) {
      return q.raw_s[i] * clock.scale(q.seg[i]);
    });
    const double raw_s =
        median_over(passes, [&](const Pass& q) { return q.raw_s[i]; });
    timed_norm += norm_s;
    timed_raw += raw_s;
    const bool ans = answered(p.outcomes[i]);
    if (ans) {
      ++n_answered;
    } else {
      const Item& it = in.items[i];
      if (!it.negative_clock && !(survey && it.mem)) ++unexpected;
    }
    lat_norm.push_back(ans ? 1e3 * norm_s : kInf);
    lat_raw.push_back(ans ? 1e3 * raw_s : kInf);
  }

  std::printf(
      "perfbench workload=%s seed=%llu seconds=%d traces=%zu passes=%d "
      "setups=%d\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, n, kPasses, kSetups);
  char raw_note[64];
  auto with_raw = [&](double raw) {
    std::snprintf(raw_note, sizeof(raw_note), " raw=%.17g", raw);
    return raw_note;
  };
  const std::vector<Metric> e2e = {
      {"setup_s", median(setup_norm), "s"},
      {"traces_per_s", static_cast<double>(n_answered) / timed_norm, "1/s"},
      {"trace_p50_ms", median(lat_norm), "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"answered_frac",
       static_cast<double>(n_answered) / static_cast<double>(n), "frac"},
  };
  print_metric(e2e[0], with_raw(median(setup_raw)));
  print_metric(e2e[1],
               with_raw(static_cast<double>(n_answered) / timed_raw));
  print_metric(e2e[2], with_raw(median(lat_raw)));
  print_metric(e2e[3], rss_reset ? "" : " (peak-RSS reset unavailable)");
  print_metric(e2e[4]);
  double tail_ms = 0.0, tail_pct = 0.0;
  if (tail(lat_norm, &tail_ms, &tail_pct)) {
    double tail_raw = 0.0;
    tail(lat_raw, &tail_raw, &tail_pct);
    char note[128];
    std::snprintf(note, sizeof(note), " raw=%.17g percentile=%.4g samples=%zu",
                  tail_raw, tail_pct, n);
    print_metric({"trace_tail_ms", tail_ms, "ms"}, note);
  }

  // Verdicts against ground truth (simulated workloads).
  truth::Tally tally;
  std::vector<double> bound_err_ms;
  std::uint64_t istar_violations = 0, sdcl_errors = 0;
  std::size_t negative = 0, negative_unanswered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Item& it = in.items[i];
    if (!it.scored) continue;
    const auto& o = p.outcomes[i];
    const auto& id = o.result.identification;
    const bool ans = answered(o);
    tally.add(truth::score_verdict(ans, id.wdcl.accepted, it.truth));
    if (it.negative_clock) {
      ++negative;
      negative_unanswered += ans ? 0 : 1;
    }
    if (!ans) continue;
    if (id.sdcl.accepted != it.truth.sdcl) ++sdcl_errors;
    if (it.truth.wdcl && id.wdcl.accepted) {
      if (truth::istar_violated(id.coarse_bound.seconds, it.truth))
        ++istar_violations;
      if (id.fine_valid)
        bound_err_ms.push_back(
            1e3 * truth::interval_distance(id.fine_bound.bound_seconds,
                                           it.truth.q_lo_s, it.truth.q_hi_s));
    }
  }
  if (tally.attempted > 0) {
    print_metric({"verdict_accuracy", tally.share(tally.correct), "frac"});
    print_metric({"false_accept_frac", tally.share(tally.false_accept), "frac"});
    print_metric({"false_reject_frac", tally.share(tally.false_reject), "frac"});
    char note[64];
    std::snprintf(note, sizeof(note), " samples=%zu", bound_err_ms.size());
    print_metric({"bound_err_ms", median(bound_err_ms), "ms"}, note);
    std::printf("known_failing negative_clock traces=%zu unanswered=%zu\n",
                negative, negative_unanswered);
  }

  // ---- output checks ----
  bool correct = true;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("check FAILED: %s\n", what);
      correct = false;
    }
  };
  check(same_inputs, "repeated set-ups produce identical inputs");
  const std::string verdicts = digest(p.outcomes);
  for (const Pass& q : passes) {
    check(digest(q.outcomes) == verdicts,
          "repeated passes produce identical verdicts");
    if (survey) check(q.journal_ok, "journal replays one entry per trace");
  }
  for (const auto& o : p.outcomes) {
    const auto& id = o.result.identification;
    if (answered(o) && id.has_losses) {
      double mass = 0.0;
      for (double x : id.virtual_pmf) mass += x;
      check(std::fabs(mass - 1.0) <= 1e-9, "virtual-delay PMF sums to 1");
    }
    if (o.status != fleet::TraceStatus::kFailed && o.result.degraded)
      check(!o.result.warnings.empty(), "degraded result carries a warning");
  }

  std::vector<Metric> layers;
  if (tp) {
    const Pass& q = tp->pass;
    check(digest(q.outcomes) == verdicts,
          "traced pass reproduces the untraced verdict digest");
    // Self time per layer, each trace scaled by its segment's host speed.
    std::map<std::string, double> self;
    double total = 0.0;
    const auto st = tp->spans.self_times();
    const auto& spans = tp->spans.spans();
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const double scale =
          clock.scale(q.seg[static_cast<std::size_t>(spans[k].trace)]);
      if (spans[k].parent < 0)
        total += (spans[k].t1 - spans[k].t0) * scale;
      else
        self[spans[k].name] += st[k] * scale;
    }
    double layer_sum = 0.0;
    for (const auto& [name, s] : self) layer_sum += s;
    const double untraced = median_over(passes, [&](const Pass& u) {
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        sum += u.raw_s[i] * clock.scale(u.seg[i]);
      return sum;
    });
    const double layer_sum_frac = layer_sum / total;
    check(layer_sum_frac >= 1.0 - kLayerSumTolerance &&
              layer_sum_frac <= 1.0 + 1e-9,
          "layer self times add up to the traced total");
    double sim_s = 0.0;
    for (const auto& [raw, seg] : in.sim_runs) sim_s += raw * clock.scale(seg);
    const auto& c = tp->counts;
    auto per_step_ns = [](double s, std::uint64_t steps) {
      return steps == 0 ? 0.0 : s * 1e9 / static_cast<double>(steps);
    };
    auto u = [](std::uint64_t x) { return static_cast<double>(x); };
    layers = {
        {"trace.self_s", self["trace"], "s"},
        {"trace.bytes", u(tp->trace_bytes), "B"},
        {"sanitize.self_s", self["sanitize"], "s"},
        {"sanitize.dropped", u(c.sanitize_dropped), "count"},
        {"sanitize.repaired", u(c.sanitize_repaired), "count"},
        {"timesync.self_s", self["timesync"], "s"},
        {"timesync.skipped", u(c.timesync_skipped), "count"},
        {"stationarity.self_s", self["stationarity"], "s"},
        {"discretize.self_s", self["discretize"], "s"},
        {"em_select.self_s", self["em_select"], "s"},
        {"em_select.iterations", u(c.select_iterations), "count"},
        {"em_select.raced_out", u(c.select_raced_out), "count"},
        {"em_coarse.self_s", self["em_coarse"], "s"},
        {"em_coarse.iterations", u(c.coarse_iterations), "count"},
        {"em_coarse.nonconverged", u(c.coarse_nonconverged), "count"},
        {"em_coarse.retries", u(c.coarse_retries), "count"},
        {"em_coarse.ns_per_step",
         per_step_ns(self["em_coarse"], c.coarse_steps), "ns"},
        {"em_fine.self_s", self["em_fine"], "s"},
        {"em_fine.iterations", u(c.fine_iterations), "count"},
        {"em_fine.nonconverged", u(c.fine_nonconverged), "count"},
        {"em_fine.ns_per_step", per_step_ns(self["em_fine"], c.fine_steps),
         "ns"},
        {"hypothesis.self_s", self["hypothesis"], "s"},
        {"hypothesis.istar_violations", u(istar_violations), "count"},
        {"hypothesis.sdcl_errors", u(sdcl_errors), "count"},
        {"bounds.self_s", self["bounds"], "s"},
        {"bootstrap.self_s", self["bootstrap"], "s"},
        {"bootstrap.replicates", u(c.bootstrap_replicates), "count"},
        {"fleet.overhead_s",
         median_over(passes,
                     [&](const Pass& v) {
                       return v.fleet_overhead_s * pass_scale(v);
                     }),
         "s"},
        {"fleet.failed", u(p.fleet_failed), "count"},
        {"fleet.degraded", u(p.fleet_degraded), "count"},
        {"journal.append_s", self["journal"], "s"},
        {"journal.bytes", u(p.journal_bytes), "B"},
        {"journal.fsyncs", u(p.journal_fsyncs), "count"},
        {"sim.self_s", sim_s, "s"},
        {"sim.events", u(in.sim_events), "count"},
        {"host.ref_ms", clock.median_ref_ms(), "ms"},
        {"host.raw_wall_s", median_over(passes,
                                         [&](const Pass& v) {
                                           return clock.raw_between(
                                               v.ref_begin, v.ref_end);
                                         }),
         "s"},
        {"bench.trace_overhead_frac", (total - untraced) / untraced, "frac"},
        {"bench.layer_sum_frac", layer_sum_frac, "frac"},
    };
    for (const Metric& m : layers) print_metric(m);
    if (!args.trace_out.empty()) {
      fs::create_directories(fs::path(args.trace_out).parent_path());
      if (!tp->spans.write_chrome_json(args.trace_out))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
    }
  }

  std::printf("%s\n", json_result(correct, attempted,
                                  unexpected * passes.size(),
                                  args.trace ? layers : e2e)
                          .c_str());
  std::fflush(stdout);
  fs::remove_all(args.workdir);
  return 0;
}

}  // namespace
}  // namespace perfbench

extern "C" int __real_fsync(int fd);
extern "C" int __wrap_fsync(int fd) {
  perfbench::g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return __real_fsync(fd);
}

int main(int argc, char** argv) {
  const double t_start = perfbench::now_s();
  const auto args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args, t_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
