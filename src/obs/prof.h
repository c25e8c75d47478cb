// dcl::obs::prof — in-process sampling CPU profiler.
//
// A POSIX interval timer (timer_create on CLOCK_PROCESS_CPUTIME_ID) raises
// SIGPROF at a configurable rate; the handler walks the interrupted
// thread's frame pointers and appends the backtrace — tagged with the
// innermost active DCL_STAGE (obs/obs.h) — to a per-thread
// lock-free sample ring (the seq-validated overwrite ring of obs/trace.h,
// specialized for fixed-depth PC arrays). Everything in the signal path is
// async-signal-safe: thread-local loads, relaxed atomic stores, and a
// bounded, validated pointer walk — no allocation, no locks, no clock
// reads (the sample weight is 1/hz CPU-seconds by construction).
//
// Draining, symbolization (dladdr + __cxa_demangle), folding, and the two
// export formats — collapsed-stack text for flamegraph.pl and speedscope
// JSON — all run outside the signal path on the caller's thread. Each
// export carries the RunManifest, like every other dcl artifact.
//
// Stage attribution: every DCL_STAGE pushes its name onto a thread-local
// tag stack unconditionally (one pointer store + an int bump — the
// documented sampler-off cost, gated by BM_ProfTagDisabled and
// BM_StageDisabled in scripts/check.sh). The innermost tag at the moment
// of the signal names the stage a sample is charged to, which makes the
// per-stage breakdown *self*-CPU: time in em.hmm.iter is not
// double-counted into the enclosing em.hmm or analyze_trace.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dcl::obs {

class Registry;
struct RunManifest;

namespace prof {

struct Options {
  int hz = 99;                    // samples per second of process CPU time
  std::size_t ring_capacity = 4096;  // samples buffered per thread ring
  std::size_t max_rings = 0;      // 0 = auto: 2*hardware_threads+4, <= 32
};

// Arms the timer and installs the SIGPROF handler. Returns false when a
// profiling session is already running or the timer cannot be created
// (e.g. a sandbox without timer_create). Restarting resets the session's
// accumulated samples.
bool start(const Options& opts = {});
// Disarms the timer and drains the outstanding ring contents into the
// session aggregate. Idempotent.
void stop();
bool running();

// One folded (deduplicated) call stack of the session.
struct Stack {
  const char* tag;                  // innermost stage tag; "" when untagged
  std::vector<std::string> frames;  // outermost first, symbolized
  std::uint64_t count = 0;          // samples observed with this stack
};

// Session aggregate: every sample captured since start(), folded and
// symbolized. snapshot() may be called while the sampler runs (the rings
// tolerate concurrent writers) and is cumulative until the next start().
struct Profile {
  int hz = 0;
  std::uint64_t total_samples = 0;
  // Overwritten-before-drain samples, seq-validation races, pool-exhausted
  // threads, and truncated walks — everything that kept a sample out.
  std::uint64_t dropped = 0;
  std::vector<Stack> stacks;
  // Stage tag -> self-CPU seconds (= samples / hz), sorted descending.
  std::vector<std::pair<std::string, double>> self_cpu;
};

Profile snapshot();

// flamegraph.pl-compatible collapsed stacks: one "frame;frame;... N" line
// per unique stack, root first, with the stage tag as a synthetic
// "[stage]" root frame. The manifest rides along as leading '#' comment
// lines, which flamegraph.pl skips.
std::string to_collapsed(const Profile& p, const RunManifest* manifest);
// speedscope JSON (https://www.speedscope.app/file-format-schema.json),
// one "sampled" profile weighted in seconds. The manifest and the
// per-stage self-CPU table are embedded as extra top-level keys
// ("dcl_manifest", "dcl_self_cpu"), which speedscope ignores.
std::string to_speedscope(const Profile& p, const RunManifest* manifest);
// snapshot() + write: ".collapsed"/".folded"/".txt" suffixes select the
// collapsed-stack text form, anything else speedscope JSON. Returns false
// on I/O failure.
bool write_profile(const std::string& path, const RunManifest* manifest);

// --- crash-handler support -------------------------------------------------
//
// The bounded, validated frame-pointer walk that backs the SIGPROF
// sampler, exposed for the fatal-signal crash reporter (util/crash.h).
// Async-signal-safe: no allocation, no locks, only validated stack reads.
// With a non-null `ucontext` (the third argument of an SA_SIGINFO
// handler) it unwinds the *interrupted* context; with nullptr it unwinds
// the caller's own stack (terminate-handler path). Returns the number of
// PCs written to `out` (leaf first), up to `max`.
int backtrace_pcs(void* ucontext, std::uintptr_t* out, int max);

// Best-effort symbol name for a PC via dladdr — no demangling, no
// allocation (the returned pointer aliases the loaded image's string
// table). nullptr when the PC resolves to no exported symbol.
const char* symbol_name(std::uintptr_t pc);

// Publishes the session's per-stage breakdown into `reg`:
// prof.self_cpu.<stage> gauges (seconds), prof.samples / prof.dropped
// counters, and a prof.running gauge. Cheap when idle; called per scrape
// by the ops server and once at exit by the CLIs.
void publish_self_cpu(Registry& reg);

// --- stage-tag stack (the only piece on the hot path) ---------------------
//
// A POD thread_local: safe to read from the SIGPROF handler (local-exec
// TLS, no lazy allocation). Push stores the tag before bumping the depth,
// separated by signal fences, so the handler — which interrupts this very
// thread — never sees a depth covering an unwritten slot. Overflow beyond
// kMaxTags keeps counting depth but stops storing: the innermost *stored*
// tag stays correct for pop() symmetry.

struct TagStack {
  static constexpr int kMaxTags = 16;
  const char* tags[kMaxTags];
  int depth;
};
inline thread_local TagStack t_tags{};

inline void push_tag(const char* tag) {
  TagStack& s = t_tags;
  if (s.depth < TagStack::kMaxTags) s.tags[s.depth] = tag;
  std::atomic_signal_fence(std::memory_order_release);
  s.depth += 1;
}

inline void pop_tag() {
  TagStack& s = t_tags;
  s.depth -= 1;
  std::atomic_signal_fence(std::memory_order_release);
}

}  // namespace prof
}  // namespace dcl::obs
