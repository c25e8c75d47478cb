// Shared EM restart-budget flag handling for the dcl CLIs.
//
// dclid and dclfleet expose the same knobs for the multi-restart EM fit —
// restart count, seed, and successive-halving racing (--race-*) — so one
// header owns the value parsers, the flag dispatch, the validation, and
// the usage text;
// each CLI passes its program name so error messages keep their familiar
// "<prog>: ..." prefix, and wraps the parsers locally for its
// program-specific flags.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "inference/em_options.h"

namespace dcl::cli {

[[noreturn]] inline void bad_value(const char* prog, const char* v,
                                   const char* flag) {
  std::fprintf(stderr, "%s: bad value '%s' for %s\n", prog, v, flag);
  std::exit(2);
}

[[noreturn]] inline void config_error(const char* prog, const char* msg) {
  std::fprintf(stderr, "%s: %s\n", prog, msg);
  std::exit(2);
}

inline double parse_double(const char* prog, const char* v,
                           const char* flag) {
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) bad_value(prog, v, flag);
  return x;
}

// Strict integer parse: no fractional part silently truncated, no trailing
// garbage, range-checked.
inline long parse_long(const char* prog, const char* v, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) bad_value(prog, v, flag);
  return x;
}

inline int parse_int(const char* prog, const char* v, const char* flag) {
  const long x = parse_long(prog, v, flag);
  if (x < INT_MIN || x > INT_MAX) bad_value(prog, v, flag);
  return static_cast<int>(x);
}

inline std::uint64_t parse_u64(const char* prog, const char* v,
                               const char* flag) {
  // strtoull accepts a leading '-' (wrapping modulo 2^64); reject it.
  const char* p = v;
  while (*p == ' ' || *p == '\t') ++p;
  if (*p == '-') bad_value(prog, v, flag);
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) bad_value(prog, v, flag);
  return static_cast<std::uint64_t>(x);
}

// Usage lines for the shared flags, indented to match both CLIs' option
// columns. Keep in sync with parse_em_flag below.
inline constexpr const char* kEmFlagsUsage =
    "  --restarts R           independent EM restarts (default 1)\n"
    "  --seed N               base RNG seed (default 1)\n"
    "  --race-warmup K        race restarts with successive halving: first\n"
    "                         rung after K iterations (default 0 = off)\n"
    "  --race-keep F          fraction of restarts kept per rung (0.5)\n"
    "  --race-grow X          per-rung budget growth factor (1.0)\n"
    "  --race-overtake X      optimism of the overtake bound that retains\n"
    "                         trailing restarts (1.0; 0 = pure rank cut)\n";

// Consumes `a` when it is one of the shared restart-budget flags, reading
// its value through `need` (the CLI's own next-argument closure). Returns
// false for flags this header does not own.
template <typename NeedFn>
bool parse_em_flag(const char* prog, const std::string& a, NeedFn&& need,
                   inference::EmOptions& em) {
  if (a == "--restarts")
    em.restarts = parse_int(prog, need("--restarts"), "--restarts");
  else if (a == "--seed")
    em.seed = parse_u64(prog, need("--seed"), "--seed");
  else if (a == "--race-warmup")
    em.race_warmup = parse_int(prog, need("--race-warmup"), "--race-warmup");
  else if (a == "--race-keep")
    em.race_keep = parse_double(prog, need("--race-keep"), "--race-keep");
  else if (a == "--race-grow")
    em.race_grow = parse_double(prog, need("--race-grow"), "--race-grow");
  else if (a == "--race-overtake")
    em.race_overtake =
        parse_double(prog, need("--race-overtake"), "--race-overtake");
  else
    return false;
  return true;
}

// Range checks for the shared knobs; exits 2 with a one-line message.
inline void validate_em(const char* prog, const inference::EmOptions& em) {
  if (em.restarts < 1) config_error(prog, "--restarts must be >= 1");
  if (em.race_warmup < 0) config_error(prog, "--race-warmup must be >= 0");
  if (em.race_keep <= 0.0 || em.race_keep > 1.0)
    config_error(prog, "--race-keep must be in (0, 1]");
  if (em.race_grow <= 0.0) config_error(prog, "--race-grow must be > 0");
  if (em.race_overtake < 0.0)
    config_error(prog, "--race-overtake must be >= 0");
}

// The racing knobs that change the numeric result, for the CLIs' manifest
// config digests (restarts/seed are already in both digests).
inline std::string em_digest_fields(const inference::EmOptions& em) {
  return "race_warmup=" + std::to_string(em.race_warmup) +
         ";race_keep=" + std::to_string(em.race_keep) +
         ";race_grow=" + std::to_string(em.race_grow) +
         ";race_overtake=" + std::to_string(em.race_overtake) + ';';
}

}  // namespace dcl::cli
