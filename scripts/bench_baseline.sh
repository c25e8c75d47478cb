#!/usr/bin/env bash
# Performance baseline snapshot: Release build, then the EM scaling
# benchmark, the fleet throughput benchmark, the restart-racing
# benchmark, and the EM-fit and simulator microbenchmarks, appended as
# one JSON line per run to BENCH_baseline.jsonl (repo root) so perf
# regressions show up as a diffable series across commits.
#
#   scripts/bench_baseline.sh           # build + run + append
#   BENCH_OUT=custom.jsonl scripts/bench_baseline.sh
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
OUT="${BENCH_OUT:-BENCH_baseline.jsonl}"

echo "==> configure build-release (Release, -Werror)"
# Same cache settings as check.sh's perf stage, so neither script flips
# the other's configuration.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DDCLID_WERROR=ON
echo "==> build benchmarks"
cmake --build build-release -j "${JOBS}" \
  --target bench_em_scaling bench_fleet bench_racing bench_micro

echo "==> bench_em_scaling"
# --samples is pinned so every baseline line is the median of the same
# number of runs; the DCL_EM_SCALING_SAMPLES env default has drifted
# before (7 -> 3), which silently changed the series' noise floor.
./build-release/bench/bench_em_scaling BENCH_em_scaling.json --samples 7
scaling="$(cat BENCH_em_scaling.json)"

echo "==> bench_fleet (1000-path synthetic mesh, outer 1/2/4/8)"
# --samples pinned as well: the fleet's efficiency ratio from a single
# sample is noise, and a faster analysis makes the fleet's fixed overhead
# a larger share of it.
./build-release/bench/bench_fleet BENCH_fleet.json --samples 5
fleet="$(cat BENCH_fleet.json)"

echo "==> bench_racing (raced vs full restarts, 1t)"
# --samples pinned for the same reason as bench_em_scaling: the series'
# noise floor must not drift with the shell environment. The benchmark
# asserts SDCL/WDCL verdict parity between the policies before reporting.
./build-release/bench/bench_racing BENCH_racing.json --samples 5
racing="$(cat BENCH_racing.json)"

echo "==> bench_micro (EM fit, simulator, trace/prof/stage/metrics overhead filters)"
filter='BM_(HmmFit|MmhdFit|TraceEvent|ProfTag|StageDisabled|HistogramRecord'
filter+='|SimulatorEventThroughput|ChainScenarioSecond)'
micro="$(./build-release/bench/bench_micro --benchmark_filter="${filter}" \
  --benchmark_format=json 2>/dev/null | tr -d '\n')"

stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
# The manifest's `git` field uses the same command: a line taken from a
# tree with uncommitted changes says -dirty.
commit="$(git describe --always --dirty --tags 2>/dev/null || echo unknown)"
printf '{"timestamp":"%s","commit":"%s","em_scaling":%s,"fleet":%s,"racing":%s,"micro":%s}\n' \
  "${stamp}" "${commit}" "${scaling}" "${fleet}" "${racing}" "${micro}" >> "${OUT}"
echo "==> appended baseline to ${OUT}"
