#include "obs/prof.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "obs/manifest.h"
#include "obs/obs.h"

namespace dcl::obs::prof {

namespace {

// Deepest backtrace a sample keeps. Deeper stacks are truncated at the
// root end (the leaf frames are the ones a flamegraph reader needs).
constexpr int kMaxDepth = 24;

// One ring slot: every field a relaxed atomic so overwrite-while-drain
// never races under TSan; `seq` is the publication point exactly as in
// obs/trace.cpp (release store after the payload, validated before and
// after a drain read).
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<const char*> tag{nullptr};
  std::atomic<std::uint32_t> depth{0};
  std::atomic<std::uintptr_t> pcs[kMaxDepth];
};

// Per-thread sample ring. Unlike the flight recorder's ThreadBuffer this
// cannot be allocated lazily — registration happens inside a signal
// handler — so a fixed pool is carved out by start() and claimed with one
// fetch_add (async-signal-safe).
struct Ring {
  explicit Ring(std::size_t capacity_pow2)
      : slots(capacity_pow2), mask(capacity_pow2 - 1) {}

  std::vector<Slot> slots;
  std::uint64_t mask;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> overwritten{0};
  // Cursor of the last drained sample; only touched under the session
  // mutex (drains are serialized, the handler never reads it).
  std::uint64_t drained = 0;
};

struct SessionState {
  std::mutex mu;  // guards everything below plus the fold/symbol caches
  std::vector<std::unique_ptr<Ring>> pool;
  std::atomic<std::size_t> claimed{0};
  std::atomic<std::uint64_t> epoch{0};  // bumped per start(): stale-TLS guard
  std::atomic<bool> running{false};
  std::atomic<std::uint64_t> lost{0};  // pool exhausted / walk failed
  int hz = 0;
  timer_t timer{};
  bool timer_armed = false;
  struct sigaction old_sa {};

  // Session fold: (tag, pc-stack) -> count, keyed without symbolization so
  // repeated snapshots stay cheap.
  struct RawKey {
    const char* tag;
    std::vector<std::uintptr_t> pcs;  // leaf first, as captured
    bool operator<(const RawKey& o) const {
      if (tag != o.tag) return tag < o.tag;
      return pcs < o.pcs;
    }
  };
  std::map<RawKey, std::uint64_t> folded;
  std::uint64_t race_dropped = 0;
};

SessionState& state() {
  static SessionState* s = new SessionState();  // never destroyed: exit-safe
  return *s;
}

struct TlsRing {
  Ring* ring = nullptr;
  std::uint64_t epoch = 0;
};
thread_local TlsRing t_ring;

// --- signal path -----------------------------------------------------------

// Bounded frame-pointer walk. Validation over trust: the frame chain must
// stay within a plausible window above the interrupted stack pointer,
// aligned and strictly ascending, so a callee-saved rbp holding a stray
// value ends the walk instead of faulting. Stack reads may touch slots
// ASan has poisoned (red zones between locals) and race with nothing TSan
// can model, hence the no_sanitize attributes; this function runs only in
// the signal handler.
#if defined(__has_attribute)
#if __has_attribute(no_sanitize)
__attribute__((no_sanitize("address", "thread", "undefined")))
#endif
#endif
int walk_frames(std::uintptr_t pc, std::uintptr_t fp, std::uintptr_t sp,
                std::uintptr_t* out, int max) {
  int n = 0;
  out[n++] = pc;
  // Frames must live in (sp, sp + 1 MiB): below is not stack, far above
  // risks running off the top of a small thread stack.
  const std::uintptr_t lo = sp;
  const std::uintptr_t hi = sp + (1u << 20);
  std::uintptr_t frame = fp;
  while (n < max) {
    if (frame <= lo || frame >= hi || (frame & (sizeof(void*) - 1)) != 0)
      break;
    const std::uintptr_t* f = reinterpret_cast<const std::uintptr_t*>(frame);
    const std::uintptr_t next = f[0];
    const std::uintptr_t ret = f[1];
    if (ret < 4096) break;  // return address in the zero page: garbage
    out[n++] = ret;
    if (next <= frame) break;  // must strictly ascend
    frame = next;
  }
  return n;
}

void sigprof_handler(int, siginfo_t*, void* uctx) {
  SessionState& st = state();
  if (!st.running.load(std::memory_order_relaxed)) return;

  // Claim a ring on first use (or after a restart bumped the epoch). One
  // fetch_add — no locks, no allocation.
  const std::uint64_t ep = st.epoch.load(std::memory_order_relaxed);
  if (t_ring.epoch != ep || t_ring.ring == nullptr) {
    const std::size_t i = st.claimed.fetch_add(1, std::memory_order_relaxed);
    if (i >= st.pool.size()) {
      st.claimed.store(st.pool.size(), std::memory_order_relaxed);
      st.lost.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    t_ring = TlsRing{st.pool[i].get(), ep};
  }

  std::uintptr_t pc = 0, fp = 0, sp = 0;
  const ucontext_t* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#else
  (void)uc;
  st.lost.fetch_add(1, std::memory_order_relaxed);
  return;
#endif

  std::uintptr_t pcs[kMaxDepth];
  const int depth = walk_frames(pc, fp, sp, pcs, kMaxDepth);

  // Innermost stored tag of the interrupted thread (same-thread TLS read;
  // push/pop order is pinned by signal fences).
  const TagStack& tags = t_tags;
  const int d = tags.depth;
  const char* tag =
      d > 0 ? tags.tags[std::min(d, TagStack::kMaxTags) - 1] : nullptr;

  Ring& r = *t_ring.ring;
  const std::uint64_t idx = r.head.load(std::memory_order_relaxed);
  Slot& s = r.slots[idx & r.mask];
  s.seq.store(0, std::memory_order_release);  // invalidate while writing
  s.tag.store(tag, std::memory_order_relaxed);
  s.depth.store(static_cast<std::uint32_t>(depth), std::memory_order_relaxed);
  for (int i = 0; i < depth; ++i)
    s.pcs[i].store(pcs[i], std::memory_order_relaxed);
  s.seq.store(idx + 1, std::memory_order_release);
  r.head.store(idx + 1, std::memory_order_release);
  if (idx >= r.slots.size())
    r.overwritten.fetch_add(1, std::memory_order_relaxed);
}

// --- drain / fold / symbolize (normal code, never in the signal path) ------

// Folds every not-yet-drained sample into st.folded. Caller holds st.mu.
void drain_locked(SessionState& st) {
  const std::size_t rings =
      std::min(st.claimed.load(std::memory_order_relaxed), st.pool.size());
  for (std::size_t ri = 0; ri < rings; ++ri) {
    Ring& r = *st.pool[ri];
    const std::uint64_t h = r.head.load(std::memory_order_acquire);
    std::uint64_t lo = h > r.slots.size() ? h - r.slots.size() : 0;
    if (lo < r.drained) lo = r.drained;
    for (std::uint64_t i = lo; i < h; ++i) {
      const Slot& s = r.slots[i & r.mask];
      if (s.seq.load(std::memory_order_acquire) != i + 1) {
        ++st.race_dropped;
        continue;
      }
      SessionState::RawKey key;
      key.tag = s.tag.load(std::memory_order_relaxed);
      const std::uint32_t depth =
          std::min<std::uint32_t>(s.depth.load(std::memory_order_relaxed),
                                  kMaxDepth);
      key.pcs.reserve(depth);
      for (std::uint32_t d = 0; d < depth; ++d)
        key.pcs.push_back(s.pcs[d].load(std::memory_order_relaxed));
      if (s.seq.load(std::memory_order_acquire) != i + 1) {
        ++st.race_dropped;
        continue;
      }
      st.folded[std::move(key)] += 1;
    }
    r.drained = h;
  }
}

std::uint64_t dropped_locked(SessionState& st) {
  std::uint64_t n =
      st.race_dropped + st.lost.load(std::memory_order_relaxed);
  const std::size_t rings =
      std::min(st.claimed.load(std::memory_order_relaxed), st.pool.size());
  for (std::size_t ri = 0; ri < rings; ++ri)
    n += st.pool[ri]->overwritten.load(std::memory_order_relaxed);
  return n;
}

// dladdr + demangle, cached per distinct PC for the process lifetime
// (symbols never move; restarts reuse the cache).
const std::string& symbolize(std::uintptr_t pc) {
  static std::unordered_map<std::uintptr_t, std::string>* cache =
      new std::unordered_map<std::uintptr_t, std::string>();
  auto it = cache->find(pc);
  if (it != cache->end()) return it->second;

  std::string name;
  Dl_info info{};
  // The sampled PC is a return address: it points one instruction past the
  // call, which for a tail position can fall into the next symbol. Backing
  // up one byte attributes it to the caller (leaf PCs are genuine).
  if (dladdr(reinterpret_cast<void*>(pc - 1), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      name = demangled;
    } else {
      name = info.dli_sname;
    }
    std::free(demangled);
  } else if (info.dli_fname != nullptr) {
    // No symbol (static function, stripped object): name the module and
    // the offset into it, which stays meaningful across ASLR runs.
    const char* base = std::strrchr(info.dli_fname, '/');
    base = base != nullptr ? base + 1 : info.dli_fname;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s+0x%zx", base,
                  static_cast<std::size_t>(
                      pc - reinterpret_cast<std::uintptr_t>(info.dli_fbase)));
    name = buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%zx", static_cast<std::size_t>(pc));
    name = buf;
  }
  return cache->emplace(pc, std::move(name)).first->second;
}

std::size_t round_pow2(std::size_t n) {
  std::size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

// --- crash-handler support -------------------------------------------------

// Same validated walk as the sampler, entered from the fatal-signal path
// (util/crash.cpp) instead of SIGPROF. The no_sanitize attribute matters
// here too: the crash handler runs after arbitrary memory corruption.
#if defined(__has_attribute)
#if __has_attribute(no_sanitize)
__attribute__((no_sanitize("address", "thread", "undefined")))
#endif
#endif
int backtrace_pcs(void* ucontext, std::uintptr_t* out, int max) {
  if (out == nullptr || max <= 0) return 0;
  std::uintptr_t pc = 0, fp = 0, sp = 0;
  if (ucontext != nullptr) {
    const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext);
#if defined(__x86_64__)
    pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
    fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
    sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
    pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
    fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
    sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#else
    (void)uc;
    return 0;
#endif
    return walk_frames(pc, fp, sp, out, max);
  }
  // terminate-handler path: unwind our own stack. Our frame pointer links
  // to the caller's frame; seed the walk there so the leaf PC (our return
  // address) is not emitted twice.
  fp = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  pc = reinterpret_cast<std::uintptr_t>(__builtin_return_address(0));
  if (fp == 0 || (fp & (sizeof(void*) - 1)) != 0) return 0;
  const std::uintptr_t caller_frame =
      *reinterpret_cast<const std::uintptr_t*>(fp);
  return walk_frames(pc, caller_frame, fp, out, max);
}

const char* symbol_name(std::uintptr_t pc) {
  Dl_info info{};
  if (dladdr(reinterpret_cast<void*>(pc - 1), &info) != 0)
    return info.dli_sname;
  return nullptr;
}

bool start(const Options& opts) {
  SessionState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  if (st.running.load(std::memory_order_relaxed)) return false;

  const int hz = std::clamp(opts.hz, 1, 10000);
  std::size_t rings = opts.max_rings;
  if (rings == 0)
    rings = std::min<std::size_t>(
        2 * std::max(1u, std::thread::hardware_concurrency()) + 4, 32);
  const std::size_t capacity =
      round_pow2(std::max<std::size_t>(opts.ring_capacity, 64));

  // A fresh pool per session: a previous session's rings may still be
  // referenced by stale TLS pointers until the epoch check catches them,
  // so they are swapped out, not reused. The epoch bump below invalidates
  // every cached pointer before the timer is armed.
  st.pool.clear();
  st.pool.reserve(rings);
  for (std::size_t i = 0; i < rings; ++i)
    st.pool.push_back(std::make_unique<Ring>(capacity));
  st.claimed.store(0, std::memory_order_relaxed);
  st.lost.store(0, std::memory_order_relaxed);
  st.folded.clear();
  st.race_dropped = 0;
  st.hz = hz;
  st.epoch.fetch_add(1, std::memory_order_relaxed);

  struct sigaction sa {};
  sa.sa_sigaction = &sigprof_handler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &st.old_sa) != 0) return false;

  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &st.timer) != 0) {
    sigaction(SIGPROF, &st.old_sa, nullptr);
    return false;
  }
  itimerspec its{};
  const long period_ns = 1000000000L / hz;
  its.it_interval.tv_sec = period_ns / 1000000000L;
  its.it_interval.tv_nsec = period_ns % 1000000000L;
  its.it_value = its.it_interval;
  // running must be visible to the handler before the first tick.
  st.running.store(true, std::memory_order_release);
  if (timer_settime(st.timer, 0, &its, nullptr) != 0) {
    st.running.store(false, std::memory_order_relaxed);
    timer_delete(st.timer);
    sigaction(SIGPROF, &st.old_sa, nullptr);
    return false;
  }
  st.timer_armed = true;
  return true;
}

void stop() {
  SessionState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  if (!st.running.load(std::memory_order_relaxed)) return;
  st.running.store(false, std::memory_order_release);
  if (st.timer_armed) {
    timer_delete(st.timer);  // disarms; no further expirations
    st.timer_armed = false;
  }
  sigaction(SIGPROF, &st.old_sa, nullptr);
  drain_locked(st);
}

bool running() {
  return state().running.load(std::memory_order_relaxed);
}

Profile snapshot() {
  SessionState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  drain_locked(st);

  Profile p;
  p.hz = st.hz;
  p.dropped = dropped_locked(st);

  std::map<std::string, std::uint64_t> by_stage;
  p.stacks.reserve(st.folded.size());
  for (const auto& [key, count] : st.folded) {
    Stack s;
    s.tag = key.tag != nullptr ? key.tag : "";
    s.count = count;
    s.frames.reserve(key.pcs.size());
    // Captured leaf-first; exported root-first.
    for (auto it = key.pcs.rbegin(); it != key.pcs.rend(); ++it)
      s.frames.push_back(symbolize(*it));
    p.total_samples += count;
    by_stage[s.tag[0] != '\0' ? s.tag : "(untagged)"] += count;
    p.stacks.push_back(std::move(s));
  }
  p.self_cpu.reserve(by_stage.size());
  for (const auto& [stage, n] : by_stage)
    p.self_cpu.emplace_back(
        stage, st.hz > 0 ? static_cast<double>(n) / st.hz : 0.0);
  std::sort(p.self_cpu.begin(), p.self_cpu.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return p;
}

std::string to_collapsed(const Profile& p, const RunManifest* manifest) {
  std::string out;
  out.reserve(p.stacks.size() * 128 + 512);
  if (manifest != nullptr) {
    out += "# dcl profile: manifest ";
    out += manifest->to_json();
    out += '\n';
  }
  char buf[64];
  std::snprintf(buf, sizeof buf,
                "# hz=%d samples=%llu dropped=%llu\n", p.hz,
                static_cast<unsigned long long>(p.total_samples),
                static_cast<unsigned long long>(p.dropped));
  out += buf;
  for (const Stack& s : p.stacks) {
    out += '[';
    out += s.tag[0] != '\0' ? s.tag : "untagged";
    out += ']';
    for (const std::string& f : s.frames) {
      out += ';';
      // Collapsed format reserves ';' (separator) and ' ' (count field).
      for (char c : f) out += (c == ';' || c == ' ') ? '_' : c;
    }
    out += ' ';
    out += std::to_string(s.count);
    out += '\n';
  }
  return out;
}

std::string to_speedscope(const Profile& p, const RunManifest* manifest) {
  // Frame table: synthetic "[stage]" roots plus every distinct symbol.
  std::vector<std::string> frames;
  std::unordered_map<std::string, std::size_t> frame_ix;
  auto intern_frame = [&](const std::string& name) {
    auto [it, fresh] = frame_ix.emplace(name, frames.size());
    if (fresh) frames.push_back(name);
    return it->second;
  };

  std::string samples = "[";
  std::string weights = "[";
  double total_s = 0.0;
  bool first = true;
  for (const Stack& s : p.stacks) {
    std::string entry = "[";
    entry += std::to_string(intern_frame(
        std::string("[") + (s.tag[0] != '\0' ? s.tag : "untagged") + "]"));
    for (const std::string& f : s.frames) {
      entry += ',';
      entry += std::to_string(intern_frame(f));
    }
    entry += ']';
    const double w =
        p.hz > 0 ? static_cast<double>(s.count) / p.hz : 0.0;
    if (!first) {
      samples += ',';
      weights += ',';
    }
    samples += entry;
    weights += json_number(w);
    total_s += w;
    first = false;
  }
  samples += ']';
  weights += ']';

  std::string out;
  out.reserve(samples.size() + weights.size() + frames.size() * 48 + 1024);
  out +=
      "{\"$schema\": "
      "\"https://www.speedscope.app/file-format-schema.json\",\n";
  out += "\"name\": \"dcl cpu profile\",\n\"exporter\": \"dclid\",\n";
  if (manifest != nullptr)
    out += "\"dcl_manifest\": " + manifest->to_json() + ",\n";
  out += "\"dcl_self_cpu\": {";
  for (std::size_t i = 0; i < p.self_cpu.size(); ++i) {
    out += (i ? ", " : "") + ("\"" + json_escape(p.self_cpu[i].first) +
                              "\": " + json_number(p.self_cpu[i].second));
  }
  out += "},\n\"dcl_stats\": {\"hz\": " + std::to_string(p.hz) +
         ", \"samples\": " + std::to_string(p.total_samples) +
         ", \"dropped\": " + std::to_string(p.dropped) + "},\n";
  out += "\"shared\": {\"frames\": [";
  for (std::size_t i = 0; i < frames.size(); ++i)
    out += (i ? ",\n  " : "\n  ") + ("{\"name\": \"" + json_escape(frames[i]) +
                                     "\"}");
  out += "]},\n";
  out += "\"profiles\": [{\"type\": \"sampled\", \"name\": \"cpu\", "
         "\"unit\": \"seconds\", \"startValue\": 0, \"endValue\": " +
         json_number(total_s) + ",\n\"samples\": " + samples +
         ",\n\"weights\": " + weights + "}]}\n";
  return out;
}

bool write_profile(const std::string& path, const RunManifest* manifest) {
  const Profile p = snapshot();
  auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
  };
  const bool collapsed = ends_with(".collapsed") || ends_with(".folded") ||
                         ends_with(".txt");
  const std::string body =
      collapsed ? to_collapsed(p, manifest) : to_speedscope(p, manifest);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  return std::fclose(f) == 0 && n == body.size();
}

void publish_self_cpu(Registry& reg) {
  SessionState& st = state();
  std::uint64_t samples = 0, dropped = 0;
  std::map<std::string, std::uint64_t> by_stage;
  int hz;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    drain_locked(st);
    hz = st.hz;
    dropped = dropped_locked(st);
    for (const auto& [key, count] : st.folded) {
      samples += count;
      by_stage[key.tag != nullptr ? key.tag : "(untagged)"] += count;
    }
  }
  if (hz == 0) return;  // never profiled in this process
  for (const auto& [stage, n] : by_stage)
    reg.gauge(std::string("prof.self_cpu.") + stage)
        .set(static_cast<double>(n) / hz);
  reg.counter("prof.samples").set(samples);
  reg.counter("prof.dropped").set(dropped);
  reg.gauge("prof.running").set(running() ? 1.0 : 0.0);
}

}  // namespace dcl::obs::prof
