// Run provenance manifest: every exported artifact (trace JSON, metrics
// JSON, bench JSON) embeds one of these so a figure or a perf number
// can always be traced back to an exact build, seed, and configuration.
//
//   auto m = obs::manifest("dclid");
//   m.seed = cfg.em.seed;
//   m.add("model", "mmhd");
//   m.config_digest = obs::digest_hex(cfg_as_text);
//   ... m.to_json() ...
//
// The build facts (git describe, compiler, flags) are baked in at compile
// time via definitions on the dcl_obs target (see src/obs/CMakeLists.txt);
// the runtime facts (hostname, hardware threads, wall-clock time) are
// sampled by manifest() when the run starts.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dcl::obs {

struct RunManifest {
  std::string tool;           // binary / subsystem that produced the export
  std::string version;        // project version (CMake)
  std::string git;            // `git describe --always --dirty` at configure
  std::string compiler;       // compiler id + version
  std::string build_type;     // CMake build type
  std::string cxx_flags;      // build-type flags the objects compiled with
  std::string hostname;
  unsigned hardware_threads = 0;
  std::string wall_time_utc;  // ISO 8601, sampled by manifest()
  std::uint64_t seed = 0;     // primary RNG seed of the run
  // FNV-1a 64 digest of the serialized run configuration (EmOptions,
  // scenario parameters, CLI flags — whatever the caller considers "the
  // config"); empty when the caller provided none.
  std::string config_digest;
  // Free-form (key, value) configuration entries, exported verbatim.
  std::vector<std::pair<std::string, std::string>> extra;

  void add(std::string key, std::string value) {
    extra.emplace_back(std::move(key), std::move(value));
  }

  // JSON object literal (no trailing newline), e.g. for embedding under a
  // "manifest" key of a larger document.
  std::string to_json() const;
};

// A manifest pre-filled with everything that does not depend on the run's
// configuration: build facts, hostname, hardware_threads, wall time.
RunManifest manifest(std::string tool);

// FNV-1a 64-bit digest, hex-formatted — the config fingerprint used by
// RunManifest::config_digest.
std::uint64_t fnv1a64(std::string_view s);
std::string digest_hex(std::string_view s);

}  // namespace dcl::obs
