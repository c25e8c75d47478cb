#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the test suite — first
# plain, then (unless DCL_CHECK_SKIP_SANITIZED=1) with ASan+UBSan so
# regressions in the instrumented hot paths are caught mechanically, then
# (unless DCL_CHECK_SKIP_TSAN=1) with TSan over the suites that exercise
# the threaded EM engine and the observability layer.
#
#   scripts/check.sh   # plain + ASan/UBSan + TSan + trace + serve + soak
#                      # + fleet + kill-resume + perf
#   DCL_CHECK_SKIP_SANITIZED=1 scripts/check.sh
#   DCL_CHECK_SKIP_TSAN=1      scripts/check.sh
#   DCL_CHECK_SKIP_TRACE=1     scripts/check.sh
#   DCL_CHECK_SKIP_SERVE=1     scripts/check.sh
#   DCL_CHECK_SKIP_SOAK=1      scripts/check.sh
#   DCL_CHECK_SKIP_FLEET=1     scripts/check.sh
#   DCL_CHECK_SKIP_RESUME=1    scripts/check.sh   # kill-resume smoke only
#   DCL_CHECK_SKIP_PERF=1      scripts/check.sh
#   DCL_CHECK_SKIP_RACING=1    scripts/check.sh   # racing gate only
#   DCL_CHECK_SKIP_PROF=1      scripts/check.sh   # profiler smoke + gate
#   DCL_CHECK_TSAN_SKIP='...'  # labels excluded from the TSan run (regex)
#
# The final stage (unless DCL_CHECK_SKIP_PERF=1) builds the benchmark
# driver (perfbench/) against the Release libraries and runs its
# truth_test, then builds bench_em_scaling in Release and fails when the
# kernel engine's single-thread speedup over
# the per-call reference path (kernel_vs_naive_1t) drops below 1.3x or
# below 90% of the last committed BENCH_baseline.jsonl entry — a ratio, so
# the gate holds on machines of any absolute speed. The same stage gates
# the restart-racing speedup (bench_racing, racing_speedup_vs_full >= 1.3x
# absolute and >= 90% of baseline) and the hidden-state race (bench_racing
# exits 1 when the raced selection picks another N or eliminates no
# candidate) unless DCL_CHECK_SKIP_RACING=1; the racing determinism
# suites themselves run under TSan via the
# parallel_em_test/selection_bootstrap_test labels already in the TSan
# stage.
#
# Every stage registers its temporary files in `tmpfiles`; one EXIT trap
# removes them all, however the script ends.
#
# Runs from the repo root regardless of the invocation directory.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
tmpfiles=()
trap 'rm -f "${tmpfiles[@]}"' EXIT

# run_suite <build_dir> <ctest_label_regex_or_empty> [cmake args...]
# An empty label regex runs the full suite; otherwise only tests whose
# label (= test binary name, see tests/CMakeLists.txt) matches.
run_suite() {
  local build_dir="$1"
  local label_re="$2"
  shift 2
  echo "==> configure ${build_dir} ($*)"
  cmake -B "${build_dir}" -S . "$@"
  echo "==> build ${build_dir}"
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "==> ctest ${build_dir}${label_re:+ (-L ${label_re})}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
    ${label_re:+-L "${label_re}"}
}

run_suite build ""

if [[ "${DCL_CHECK_SKIP_SANITIZED:-0}" != "1" ]]; then
  run_suite build-sanitized "" -DDCL_SANITIZE="address;undefined" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi

# TSan is mutually exclusive with ASan (enforced by CMakeLists.txt), so it
# gets its own build tree. Restricted to the suites that spawn threads or
# share registries: the parallel EM engine, inference, obs, the fleet
# batch engine, and the bootstrap/selection layer on top of them.
#
# DCL_CHECK_TSAN_SKIP is an anchored egrep alternation of labels to drop
# from that list (default: none). The kernels' target_clones ifunc
# dispatch is compiled out under TSan (fb_kernels.h): its resolvers ran
# before the TSan runtime was up and crashed every binary linking them.
if [[ "${DCL_CHECK_SKIP_TSAN:-0}" != "1" ]]; then
  tsan_labels="parallel_em_test|inference_test|obs_test|prof_test|http_test|trace_test|selection_bootstrap_test|util_test|fleet_test|journal_test"
  tsan_skip="${DCL_CHECK_TSAN_SKIP-}"
  if [[ -n "${tsan_skip}" ]]; then
    tsan_labels="$(printf '%s\n' "${tsan_labels}" | tr '|' '\n' \
      | grep -Evx "${tsan_skip}" | paste -sd'|' -)"
    echo "==> TSan: skipping labels matching '${tsan_skip}'" \
      "(DCL_CHECK_TSAN_SKIP)"
  fi
  run_suite build-tsan "${tsan_labels}" \
    -DDCL_SANITIZE="thread" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  # A race that one ctest pass catches only now and then: parallel_indexed
  # handing a task's exception to the caller while the pool worker frees
  # the finished task (it showed in about one TSan run in three before the
  # exception moved into a caller-owned slot). Repeat the test that throws
  # from two tasks.
  if [[ "|${tsan_labels}|" == *"|parallel_em_test|"* ]]; then
    echo "==> TSan: ThreadPool.ParallelIndexedRethrowsLowestFailingIndex x1000"
    build-tsan/tests/parallel_em_test --gtest_brief=1 --gtest_repeat=1000 \
      --gtest_filter=ThreadPool.ParallelIndexedRethrowsLowestFailingIndex \
      > /dev/null
  fi
fi

# Trace smoke: one flight-recorded end-to-end dclid run; the exported
# Chrome trace must be valid JSON with multiple wall-clock thread tracks,
# per-link simulated-time counter tracks, probe send/receive and drop
# instants on the simulated-time track, and the embedded run manifest.
if [[ "${DCL_CHECK_SKIP_TRACE:-0}" != "1" ]]; then
  echo "==> trace smoke (flight-recorded dclid run)"
  cmake --build build -j "${JOBS}" --target dclid_cli
  trace_json="$(mktemp)"; tmpfiles+=("${trace_json}")
  ./build/cli/dclid --scenario wdcl --duration 60 --threads 4 --restarts 4 \
    --trace-out "${trace_json}" > /dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${trace_json}" <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
wall_tids = {e["tid"] for e in events if e.get("pid") == 1 and e["ph"] != "M"}
sim_counters = {e["name"] for e in events
                if e.get("pid") == 2 and e["ph"] == "C"}
link_tracks = {n for n in sim_counters if n.endswith(".queue_bytes")}
# The link's enqueue, drop and delivery hooks each emit simulated-time
# instants; a probe that is sent must also be seen arriving.
sim_instants = {e["name"] for e in events
                if e.get("pid") == 2 and e["ph"] == "i"}
for suffix in (".probe.send", ".probe.recv", ".drop"):
    assert any(n.endswith(suffix) for n in sim_instants), \
        f"no {suffix} instants on the simulated-time track"
depth = {}
for e in events:
    key = (e.get("pid"), e["tid"])
    if e["ph"] == "B":
        depth[key] = depth.get(key, 0) + 1
    elif e["ph"] == "E":
        depth[key] = depth.get(key, 0) - 1
        assert depth[key] >= 0, f"unmatched end on track {key}"
man = doc["otherData"]["manifest"]
for field in ("tool", "git", "compiler", "hostname", "wall_time_utc",
              "seed", "config_digest"):
    assert field in man and man[field] != "", f"manifest missing {field}"
assert len(wall_tids) >= 3, f"expected >=3 thread tracks, got {len(wall_tids)}"
assert len(link_tracks) >= 3, f"expected per-link counter tracks, got {link_tracks}"
assert "dropped" in doc["otherData"]
print(f"trace ok: {len(events)} events, {len(wall_tids)} thread tracks, "
      f"{len(link_tracks)} link tracks, dropped={doc['otherData']['dropped']}")
PY
  else
    echo "==> python3 missing; trace validation skipped"
  fi
fi

# Serve smoke: a live dclid run with the embedded ops server on an
# ephemeral loopback port; every endpoint must answer 200 (curl) and honor
# its content contract (tests/serve_scrape.py), and SIGTERM must shut the
# lingering process down cleanly.
if [[ "${DCL_CHECK_SKIP_SERVE:-0}" != "1" ]]; then
  echo "==> serve smoke (dclid --serve, live scrape)"
  cmake --build build -j "${JOBS}" --target dclid_cli
  serve_log="$(mktemp)"; tmpfiles+=("${serve_log}")
  ./build/cli/dclid --scenario wdcl --duration 60 \
    --serve 127.0.0.1:0 --serve-linger 60 > /dev/null 2> "${serve_log}" &
  serve_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^dclid: serving on //p' "${serve_log}" | head -n 1)"
    [[ -n "${addr}" ]] && break
    kill -0 "${serve_pid}" 2>/dev/null || break
    sleep 0.1
  done
  if [[ -z "${addr}" ]]; then
    cat "${serve_log}" >&2
    echo "serve smoke: dclid never announced its address" >&2
    exit 1
  fi
  echo "==> scraping http://${addr}"
  if command -v curl >/dev/null 2>&1; then
    for ep in /metrics /healthz /statusz /tracez '/profilez?seconds=1&hz=100'; do
      curl -fsS "http://${addr}${ep}" > /dev/null \
        || { echo "serve smoke: GET ${ep} failed" >&2; exit 1; }
    done
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 tests/serve_scrape.py "http://${addr}"
  else
    echo "==> python3 missing; serve content validation skipped"
  fi
  kill -TERM "${serve_pid}"
  # A signal-triggered drain reports the signal: 128+15 (DESIGN.md §5.12).
  serve_rc=0
  wait "${serve_pid}" || serve_rc=$?
  if [[ "${serve_rc}" -ne 143 ]]; then
    cat "${serve_log}" >&2
    echo "serve smoke: dclid exited ${serve_rc} after SIGTERM (want 143)" >&2
    exit 1
  fi
  # The same signal contract on the no-verdict exit path: an all-LOST
  # trace yields no verdict (the run's own code would be 1), and SIGTERM
  # during an unbounded linger must still exit 143.
  lost_csv="$(mktemp --suffix=.csv)"; tmpfiles+=("${lost_csv}")
  {
    echo "seq,send_time,delay"
    for i in $(seq 0 199); do
      printf '%d,%d.%02d,LOST\n' "${i}" $((i / 50)) $((i % 50 * 2))
    done
  } > "${lost_csv}"
  ./build/cli/dclid --serve 127.0.0.1:0 --serve-linger inf "${lost_csv}" \
    > /dev/null 2> "${serve_log}" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    grep -q '^dclid: serving on ' "${serve_log}" && break
    kill -0 "${serve_pid}" 2>/dev/null || break
    sleep 0.1
  done
  kill -TERM "${serve_pid}" 2>/dev/null || true
  serve_rc=0
  wait "${serve_pid}" || serve_rc=$?
  if [[ "${serve_rc}" -ne 143 ]]; then
    cat "${serve_log}" >&2
    echo "serve smoke: no-verdict dclid exited ${serve_rc} after SIGTERM" \
      "(want 143)" >&2
    exit 1
  fi
  echo "==> no-verdict run: SIGTERM during linger exits 143"
fi

# Robustness soak: seed-pinned randomized fault schedules over the three
# scenario presets. dclsoak itself asserts the graceful-degradation
# contract (no escapes, degraded => warned, obs counters == reality) and
# replays the checked-in fuzz corpus through the parser-contract harness.
if [[ "${DCL_CHECK_SKIP_SOAK:-0}" != "1" ]]; then
  echo "==> robustness soak (dclsoak, seed-pinned)"
  cmake --build build -j "${JOBS}" --target dclsoak
  ./build/tools/dclsoak --schedules 50 --seed 1 --duration 60
  echo "==> fuzz corpus replay (parser contracts)"
  cmake -B build-fuzz -S . -DDCL_FUZZ=ON > /dev/null
  cmake --build build-fuzz -j "${JOBS}" --target trace_parser_fuzz \
    http_request_fuzz journal_fuzz
  if ./build-fuzz/fuzz/trace_parser_fuzz -help=1 > /dev/null 2>&1; then
    # libFuzzer build (Clang): one bounded exploration run over each corpus.
    ./build-fuzz/fuzz/trace_parser_fuzz -runs=20000 -max_len=4096 \
      tests/corpus/trace
    ./build-fuzz/fuzz/http_request_fuzz -runs=20000 -max_len=4096 \
      tests/corpus/http
    ./build-fuzz/fuzz/journal_fuzz -runs=20000 -max_len=4096 \
      tests/corpus/journal
  else
    ./build-fuzz/fuzz/trace_parser_fuzz tests/corpus/trace/*
    ./build-fuzz/fuzz/http_request_fuzz tests/corpus/http/*
    ./build-fuzz/fuzz/journal_fuzz tests/corpus/journal/*
  fi
fi

# Fleet smoke: a 50-trace synthetic mesh through dclfleet at two
# different outer x inner splits. The outputs must be byte-identical
# (the engine's determinism contract) and every JSON-line verdict must
# honor the output schema (scripts/check_fleet_jsonl.py).
if [[ "${DCL_CHECK_SKIP_FLEET:-0}" != "1" ]]; then
  echo "==> fleet smoke (dclfleet --synth 50, split determinism)"
  cmake --build build -j "${JOBS}" --target dclfleet_cli
  fleet_a="$(mktemp)"; tmpfiles+=("${fleet_a}")
  fleet_b="$(mktemp)"; tmpfiles+=("${fleet_b}")
  # Exit 1 just means some traces degraded (expected on a synthetic
  # mesh); 2/3 are invocation/internal failures and abort the smoke.
  rc=0
  ./build/cli/dclfleet --synth 50 --synth-probes 400 --seed 5 \
    --outer-threads 1 --inner-threads 1 --out "${fleet_a}" || rc=$?
  (( rc <= 1 )) || { echo "fleet smoke: dclfleet exited ${rc}" >&2; exit 1; }
  rc=0
  ./build/cli/dclfleet --synth 50 --synth-probes 400 --seed 5 \
    --outer-threads 4 --inner-threads 2 --out "${fleet_b}" || rc=$?
  (( rc <= 1 )) || { echo "fleet smoke: dclfleet exited ${rc}" >&2; exit 1; }
  if ! cmp -s "${fleet_a}" "${fleet_b}"; then
    diff "${fleet_a}" "${fleet_b}" | head -5 >&2
    echo "fleet smoke: output differs across thread splits" >&2
    exit 1
  fi
  echo "==> fleet outputs byte-identical across splits"
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/check_fleet_jsonl.py "${fleet_a}" 50
  else
    echo "==> python3 missing; fleet JSON-lines validation skipped"
  fi
fi

# Kill-resume smoke (DESIGN.md §5.12): dclsoak SIGKILLs journaled dclfleet
# runs mid-fleet and resumes them, asserting byte-identical output, one
# journal frame per trace, and that a redundant resume is a no-op.
if [[ "${DCL_CHECK_SKIP_RESUME:-0}" != "1" ]]; then
  echo "==> kill-resume smoke (dclsoak --kill-resume, crash-safe journal)"
  cmake --build build -j "${JOBS}" --target dclsoak dclfleet_cli
  ./build/tools/dclsoak --kill-resume 3 --seed 11 \
    --dclfleet ./build/cli/dclfleet
fi

# Profiler smoke: one sampled end-to-end dclid analysis. The speedscope
# export must honor the file-format contract (tests/profile_check.py:
# schema key, frame table, aligned samples/weights, embedded manifest)
# and the em.* stages must carry the plurality of self-CPU — the
# profiler exists to show where the analysis spends its time, and on
# every scenario preset that is the EM fits.
if [[ "${DCL_CHECK_SKIP_PROF:-0}" != "1" ]]; then
  echo "==> profile smoke (dclid --profile-out, speedscope validation)"
  cmake --build build -j "${JOBS}" --target dclid_cli
  prof_json="$(mktemp --suffix=.speedscope.json)"; tmpfiles+=("${prof_json}")
  # --select-N 4 adds the model-selection fits: without them the profiled
  # analysis lasts ~80 ms and yields fewer than the 25 samples checked,
  # and since runs of one received symbol fold (DESIGN.md §5.5) the
  # N = 1..3 selection alone gives 24-32 of them (77-88 with N = 4).
  ./build/cli/dclid --scenario sdcl --duration 300 --restarts 4 --select-N 4 \
    --profile-out "${prof_json}" --profile-hz 500 > /dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 tests/profile_check.py "${prof_json}" --min-samples 25 \
      --expect-em-plurality
  else
    echo "==> python3 missing; profile validation skipped"
  fi
fi

if [[ "${DCL_CHECK_SKIP_PERF:-0}" != "1" ]]; then
  echo "==> configure build-release (Release, -Werror, perf smoke)"
  # -Werror here and in bench_baseline.sh alike, so the two scripts keep
  # one build-release cache.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DDCLID_WERROR=ON
  cmake --build build-release -j "${JOBS}" \
    --target bench_em_scaling bench_fleet bench_racing bench_micro \
    dcl_fleet dcl_scenarios
  # The benchmark driver compiles against the library headers (it names
  # core::ModelKind, IdentifierConfig::model and
  # IdentificationResult::model_used), so a library change can break it
  # unseen. Build it against these libraries, as perfbench/run.py does
  # against its own tree, and run its scorer test; perfbench/ is only read.
  echo "==> perfbench build (benchmark driver against build-release)"
  cmake -S perfbench -B build-release/perfbench -DCMAKE_BUILD_TYPE=Release \
    -DDCL_BUILD_DIR="${PWD}/build-release"
  cmake --build build-release/perfbench -j "${JOBS}"
  ./build-release/perfbench/truth_test
  fresh="$(mktemp)"; tmpfiles+=("${fresh}")
  echo "==> bench_em_scaling perf smoke"
  # The bench's own floor catches an outright broken kernel path even when
  # the baseline predates the kernel_vs_naive_1t schema. --samples 7
  # matches bench_baseline.sh, so the fresh ratios are medians of as many
  # alternating naive/kernel samples as the baseline's.
  ./build-release/bench/bench_em_scaling "${fresh}" --samples 7 \
    --min-kernel-speedup 1.3
  if command -v python3 >/dev/null 2>&1 && [[ -s BENCH_baseline.jsonl ]]; then
    python3 - "${fresh}" BENCH_baseline.jsonl <<'PY'
import json, sys

fresh = json.load(open(sys.argv[1]))
lines = [l for l in open(sys.argv[2]) if l.strip()]
base = json.loads(lines[-1]).get("em_scaling", {})
ok = True
# (name, key path) per kernel-speedup row; the fine-fit shapes live in the
# mmhd_fine block. A row the baseline line lacks is skipped.
rows = [("hmm", ("hmm",)), ("mmhd", ("mmhd",)),
        ("mmhd_select", ("mmhd_select",)),
        ("mmhd_fine/congested", ("mmhd_fine", "congested")),
        ("mmhd_fine/loss_heavy", ("mmhd_fine", "loss_heavy"))]
for name, path in rows:
    ref_block, got_block = base, fresh
    for key in path:
        ref_block = ref_block.get(key, {})
        got_block = got_block[key]
    ref = ref_block.get("kernel_vs_naive_1t")
    got = got_block["kernel_vs_naive_1t"]
    if ref is None:
        print(f"{name}: baseline predates kernel_vs_naive_1t; ratio check skipped")
        continue
    floor = 0.9 * ref
    verdict = "ok" if got >= floor else "REGRESSION"
    print(f"{name}: kernel_vs_naive_1t {got:.2f} vs baseline {ref:.2f} "
          f"(floor {floor:.2f}) {verdict}")
    ok = ok and got >= floor
sys.exit(0 if ok else 1)
PY
  else
    echo "==> python3 or BENCH_baseline.jsonl missing; baseline ratio check skipped"
  fi
  # Fleet throughput gate, sharing the DCL_CHECK_SKIP_FLEET escape hatch
  # with the smoke stage above. Efficiency (fleet at outer=1 vs a plain
  # sequential analyze_trace loop, measured in the same process) is a
  # machine-portable ratio, so the 0.9 floor against the committed
  # baseline holds on hardware of any absolute speed.
  if [[ "${DCL_CHECK_SKIP_FLEET:-0}" != "1" ]]; then
    echo "==> bench_fleet perf smoke (batch-engine overhead gate)"
    fleet_fresh="$(mktemp)"; tmpfiles+=("${fleet_fresh}")
    # The bench's own floor catches an outright broken engine even when
    # the baseline predates the fleet JSON schema.
    # --samples 5, as in bench_baseline.sh: one sample of the efficiency
    # ratio is too noisy to gate on.
    ./build-release/bench/bench_fleet "${fleet_fresh}" \
      --paths 200 --probes 300 --samples 5 --min-efficiency 0.8
    if command -v python3 >/dev/null 2>&1 && [[ -s BENCH_baseline.jsonl ]]; then
      python3 - "${fleet_fresh}" BENCH_baseline.jsonl <<'PY'
import json, sys

fresh = json.load(open(sys.argv[1]))
lines = [l for l in open(sys.argv[2]) if l.strip()]
base = json.loads(lines[-1]).get("fleet", {})
ref = base.get("efficiency")
got = fresh["efficiency"]
pps = fresh["outer"]["1"]["paths_per_sec"]
if ref is None:
    print(f"fleet: efficiency {got:.3f} ({pps:.1f} paths/s); "
          "baseline predates the fleet bench; ratio check skipped")
    sys.exit(0)
floor = 0.9 * ref
verdict = "ok" if got >= floor else "REGRESSION"
print(f"fleet: efficiency {got:.3f} vs baseline {ref:.3f} "
      f"(floor {floor:.3f}, {pps:.1f} paths/s at outer=1) {verdict}")
sys.exit(0 if got >= floor else 1)
PY
    else
      echo "==> python3 or BENCH_baseline.jsonl missing; fleet ratio check skipped"
    fi
  fi
  # Restart-racing gate: successive halving must keep beating full
  # restarts. The benchmark itself enforces the 1.3x absolute floor,
  # SDCL/WDCL verdict parity between the two policies, and a hidden-state
  # race that eliminates at least one candidate and picks the unraced N
  # (counts, not timings); the python step
  # then ratio-gates against the committed baseline so a gradual schedule
  # regression is caught even on machines where 1.3x clears easily.
  if [[ "${DCL_CHECK_SKIP_RACING:-0}" != "1" ]]; then
    echo "==> bench_racing perf smoke (restart-racing gate)"
    racing_fresh="$(mktemp)"; tmpfiles+=("${racing_fresh}")
    ./build-release/bench/bench_racing "${racing_fresh}" --samples 5 \
      --min-racing-speedup 1.3
    if command -v python3 >/dev/null 2>&1 && [[ -s BENCH_baseline.jsonl ]]; then
      python3 - "${racing_fresh}" BENCH_baseline.jsonl <<'PY'
import json, sys

fresh = json.load(open(sys.argv[1]))
lines = [l for l in open(sys.argv[2]) if l.strip()]
base = json.loads(lines[-1]).get("racing", {})
ref = base.get("racing_speedup_vs_full")
got = fresh["racing_speedup_vs_full"]
if ref is None:
    print(f"racing: speedup_vs_full {got:.2f}x; "
          "baseline predates the racing bench; ratio check skipped")
    sys.exit(0)
floor = 0.9 * ref
verdict = "ok" if got >= floor else "REGRESSION"
print(f"racing: speedup_vs_full {got:.2f}x vs baseline {ref:.2f}x "
      f"(floor {floor:.2f}x) {verdict}")
sys.exit(0 if got >= floor else 1)
PY
    else
      echo "==> python3 or BENCH_baseline.jsonl missing; racing ratio check skipped"
    fi
  fi
  echo "==> obs overhead smoke (disabled emit/tag/stage + windowed record cost)"
  micro_json="$(mktemp)"; tmpfiles+=("${micro_json}")
  ./build-release/bench/bench_micro \
    --benchmark_filter='BM_(TraceEventDisabled|ProfTagDisabled|StageDisabled|HistogramRecord)' \
    --benchmark_out="${micro_json}" --benchmark_out_format=json > /dev/null
  if command -v python3 >/dev/null 2>&1 && [[ -s BENCH_baseline.jsonl ]]; then
    python3 - "${micro_json}" BENCH_baseline.jsonl <<'PY'
import json, sys

def disabled_ns(doc):
    # Prefer the repetition median; fall back to any matching entry.
    rows = [b for b in doc.get("benchmarks", [])
            if b["name"].startswith("BM_TraceEventDisabled")]
    med = [b for b in rows if b["name"].endswith("_median")]
    pick = med or rows
    return min(b["cpu_time"] for b in pick) if pick else None

fresh = disabled_ns(json.load(open(sys.argv[1])))
lines = [l for l in open(sys.argv[2]) if l.strip()]
base = disabled_ns(json.loads(lines[-1]).get("micro", {}))
if fresh is None:
    sys.exit("bench_micro produced no BM_TraceEventDisabled rows")
if base is None:
    print(f"trace overhead: disabled emit {fresh:.2f} ns "
          "(baseline predates the bench; ratio check skipped)")
    sys.exit(0)
# Sub-ns measurements are noisy on shared machines: 3x is far above jitter
# yet still catches a disabled path that grew a clock read or TLS lookup.
ceiling = max(3.0 * base, 2.0)
verdict = "ok" if fresh <= ceiling else "REGRESSION"
print(f"trace overhead: disabled emit {fresh:.2f} ns vs baseline "
      f"{base:.2f} ns (ceiling {ceiling:.2f}) {verdict}")
sys.exit(0 if fresh <= ceiling else 1)
PY
  else
    echo "==> python3 or BENCH_baseline.jsonl missing; trace overhead check skipped"
  fi
  # Disabled-stage gates (obs/obs.h, obs/prof.h contracts): every
  # DCL_STAGE pays its tag push/pop and two enable checks even when no
  # metrics, trace or profile is ever taken, so BM_ProfTagDisabled and the
  # whole BM_StageDisabled are each ceilinged like the disabled trace emit
  # above. Ratio vs baseline once the baseline has the row; until then an
  # absolute line from the same run's disabled trace emit.
  if [[ "${DCL_CHECK_SKIP_PROF:-0}" != "1" ]]; then
    if command -v python3 >/dev/null 2>&1 && [[ -s BENCH_baseline.jsonl ]]; then
      python3 - "${micro_json}" BENCH_baseline.jsonl <<'PY'
import json, sys

def pick_ns(doc, prefix):
    rows = [b for b in doc.get("benchmarks", [])
            if b["name"].startswith(prefix)]
    med = [b for b in rows if b["name"].endswith("_median")]
    pick = med or rows
    return min(b["cpu_time"] for b in pick) if pick else None

fresh_doc = json.load(open(sys.argv[1]))
lines = [l for l in open(sys.argv[2]) if l.strip()]
base_doc = json.loads(lines[-1]).get("micro", {})
trace = pick_ns(fresh_doc, "BM_TraceEventDisabled") or 0.0
tag = pick_ns(fresh_doc, "BM_ProfTagDisabled")
failed = False
for row, what, absolute in (
        # A sampler-off tag push is two TLS stores and must stay within an
        # order of magnitude of the disabled trace emit.
        ("BM_ProfTagDisabled", "disabled tag push", max(10.0 * trace, 15.0)),
        # A disabled stage is a tag push plus two flag loads: at most what
        # a disabled trace emit and a tag push cost apart (ROADMAP bound).
        ("BM_StageDisabled", "disabled stage", trace + (tag or 0.0))):
    fresh = pick_ns(fresh_doc, row)
    if fresh is None:
        sys.exit(f"bench_micro produced no {row} rows")
    base = pick_ns(base_doc, row)
    if base is None:
        ceiling = absolute
        ref = f"no baseline (absolute ceiling {ceiling:.2f})"
    else:
        ceiling = max(3.0 * base, 2.0)
        ref = f"vs baseline {base:.2f} ns (ceiling {ceiling:.2f})"
    verdict = "ok" if fresh <= ceiling else "REGRESSION"
    print(f"prof overhead: {what} {fresh:.2f} ns {ref} {verdict}")
    failed = failed or fresh > ceiling
sys.exit(1 if failed else 0)
PY
    else
      echo "==> python3 or BENCH_baseline.jsonl missing; prof overhead check skipped"
    fi
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${micro_json}" <<'PY'
import json, sys

def record_ns(doc, prefix):
    rows = [b for b in doc.get("benchmarks", [])
            if b["name"].startswith(prefix)]
    med = [b for b in rows if b["name"].endswith("_median")]
    pick = med or rows
    return min(b["cpu_time"] for b in pick) if pick else None

doc = json.load(open(sys.argv[1]))
cum = record_ns(doc, "BM_HistogramRecordCumulative")
win = record_ns(doc, "BM_HistogramRecordWindowed")
if cum is None or win is None:
    sys.exit("bench_micro produced no BM_HistogramRecord rows")
# The windowed-instrument contract (obs/window.h): a windowed record is
# the cumulative record plus one epoch-slot lookup — budgeted at <= 2x.
# A small absolute floor absorbs timer jitter on the few-ns scale.
ceiling = max(2.0 * cum, cum + 4.0)
verdict = "ok" if win <= ceiling else "REGRESSION"
print(f"windowed record: {win:.2f} ns vs cumulative {cum:.2f} ns "
      f"(ceiling {ceiling:.2f}) {verdict}")
sys.exit(0 if win <= ceiling else 1)
PY
  else
    echo "==> python3 missing; windowed record cost check skipped"
  fi
fi

echo "==> all checks passed"
