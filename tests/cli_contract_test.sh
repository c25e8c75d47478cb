#!/usr/bin/env bash
# The command-line contract of dclid and dclfleet (DESIGN.md §5.14):
#   (a) exit codes and one-line messages for help, unknown and retired
#       flags, missing and malformed values, and every range bound;
#   (b) config_digest is pinned for three default invocations, moves with
#       every flag that changes results and stays put for thread counts
#       and output flags;
#   (c) --resume refuses a journal written under another configuration,
#       leaving journal and output untouched, and a plain resume still
#       reproduces an uninterrupted run byte for byte;
#   (d) SIGTERM during --serve-linger exits 128+15 on every exit path;
#   (e) dclid -v labels why each non-converged restart stopped (raced out,
#       stopped early, max iterations) on stderr, leaving stdout unchanged.
#
#   tests/cli_contract_test.sh <dclid> <dclfleet>
#
# Flag cases use --print-manifest (or an input that is never read) so no
# analysis runs; the fleet cases use a 12-path synthetic mesh. The serve
# cases bind an ephemeral loopback port.
set -u
DCLID="$1"
DCLFLEET="$2"
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# expect <rc> <message> <command...>: the command exits <rc> and its
# stderr is exactly the one line <message>; a message of "usage" only
# requires stderr to start with the usage text.
expect() {
  local want_rc="$1" want="$2"
  shift 2
  local rc=0
  "$@" > "${tmp}/stdout" 2> "${tmp}/stderr" || rc=$?
  local got
  got="$(cat "${tmp}/stderr")"
  if [[ "${rc}" -ne "${want_rc}" ]]; then
    fail "$* exited ${rc}, want ${want_rc} (stderr: ${got})"
  elif [[ "${want}" == usage ]]; then
    [[ "${got}" == usage:* ]] || fail "$*: no usage text (stderr: ${got})"
  elif [[ "${got}" != "${want}" ]]; then
    fail "$*: stderr '${got}', want '${want}'"
  fi
}

# --- (a) exit codes and messages ---------------------------------------

missing="${tmp}/missing.csv"  # validation must fail before it is read
expect 0 usage "${DCLID}" --help
expect 2 usage "${DCLID}" --bogus --print-manifest
expect 2 usage "${DCLID}" --model mmhd --print-manifest
for retired in "--race-keep 0.5" "--race-grow 1" "--race-overtake 1"; do
  expect 2 usage "${DCLID}" ${retired} --print-manifest
done
expect 2 "dclid: --eps-l needs a value" "${DCLID}" --eps-l
expect 2 "dclid: bad value 'x' for --eps-l" \
  "${DCLID}" --eps-l x --print-manifest
expect 2 "dclid: bad value '1.5' for -M" "${DCLID}" -M 1.5 --print-manifest
expect 2 "dclid: bad value '-1' for --seed" \
  "${DCLID}" --seed -1 --print-manifest
while IFS='|' read -r flags message; do
  expect 2 "dclid: ${message}" "${DCLID}" ${flags} --print-manifest
done <<'EOF'
-M 1|--symbols must be >= 2
-N 0|--hidden must be >= 1
-M 20 --bound-symbols 10|--bound-symbols must be >= --symbols
--eps-l -0.1|--eps-l must be in [0, 0.5)
--eps-l 0.5|--eps-l must be in [0, 0.5)
--eps-d 0.5|--eps-d must be in [0, 0.5)
--bootstrap -1|--bootstrap must be >= 0
--select-N -1|--select-N must be >= 0
--dprop -0.1|--dprop must be >= 0
--em-retries -1|--em-retries must be >= 0
--restarts 0|--restarts must be >= 1
--race-warmup -1|--race-warmup must be >= 0
--threads -1|--threads must be >= 0
--deadline -1|--deadline must be >= 0
--window 10|--window must be 0 or >= 12
EOF
while IFS='|' read -r flags message; do
  expect 2 "dclid: ${message}" "${DCLID}" ${flags}
done <<EOF
--profile-hz 0 ${missing}|--profile-hz must be in [1, 10000]
--profile-hz 10001 ${missing}|--profile-hz must be in [1, 10000]
--serve-linger -1 ${missing}|--serve-linger must be >= 0 (or inf)
--log-level loud ${missing}|--log-level must be debug|info|warn|error|off
--scenario bogus|--scenario must be sdcl, wdcl, or nodcl
--scenario wdcl --duration 0|--duration must be > 0
EOF

expect 0 usage "${DCLFLEET}" --help
expect 2 usage "${DCLFLEET}" --bogus --print-manifest
expect 2 usage "${DCLFLEET}" --model mmhd --print-manifest
for retired in "--race-keep 0.5" "--race-grow 1" "--race-overtake 1"; do
  expect 2 usage "${DCLFLEET}" ${retired} --print-manifest
done
expect 2 "dclfleet: --synth needs a value" "${DCLFLEET}" --synth
expect 2 "dclfleet: bad value 'x' for --synth" "${DCLFLEET}" --synth x
expect 2 "dclfleet: bad value '-1' for --seed" \
  "${DCLFLEET}" --seed -1 --print-manifest
while IFS='|' read -r flags message; do
  expect 2 "dclfleet: ${message}" "${DCLFLEET}" ${flags} --print-manifest
done <<'EOF'
--synth -1|--synth must be >= 1
--synth 1 --synth-probes 99|--synth-probes must be >= 100
--outer-threads -1|--outer-threads must be >= 0
--inner-threads -1|--inner-threads must be >= 0
-M 1|--symbols must be >= 2
-N 0|--hidden must be >= 1
--eps-l 2|--eps-l must be in [0, 0.5)
--eps-d -1|--eps-d must be in [0, 0.5)
--restarts 0|--restarts must be >= 1
--deadline -1|--deadline must be >= 0
--serve-linger -1|--serve-linger must be >= 0 (or inf)
--profile-hz 0|--profile-hz must be in [1, 10000]
--trace-retries -1|--trace-retries must be >= 0
--trace-timeout -1|--trace-timeout must be >= 0
--resume|--resume requires --journal
--resume --journal j|--resume requires --out (the file to continue)
EOF
expect 2 "dclfleet: --log-level must be debug|info|warn|error|off" \
  "${DCLFLEET}" --synth 1 --log-level loud

# --- (b) config digest ---------------------------------------------------

digest() {
  "$@" --print-manifest | sed -n 's/.*"config_digest": *"\([^"]*\)".*/\1/p'
}

# digest_case <moves|stays> <base command...> -- <flags...>
digest_case() {
  local want="$1"
  shift
  local base=()
  while [[ "$1" != -- ]]; do base+=("$1"); shift; done
  shift
  local d0 d1
  d0="$(digest "${base[@]}")"
  d1="$(digest "${base[@]}" "$@")"
  if [[ -z "${d0}" || -z "${d1}" ]]; then
    fail "${base[*]} $*: no config_digest"
  elif [[ "${want}" == moves && "${d0}" == "${d1}" ]]; then
    fail "${base[*]} $*: config_digest did not change"
  elif [[ "${want}" == stays && "${d0}" != "${d1}" ]]; then
    fail "${base[*]} $*: config_digest changed"
  fi
}

# Digests of default invocations, pinned: fleet journals on disk hold
# them in their headers, and --resume must keep accepting those journals.
while IFS='|' read -r want cmd; do
  got="$(digest ${cmd})"
  [[ "${got}" == "${want}" ]] \
    || fail "${cmd} --print-manifest: config_digest '${got}', want ${want}"
done <<EOF
01225b377cca02a4|${DCLID}
7b560eb1b4c75cc1|${DCLID} --scenario wdcl
02f66b14a35246ce|${DCLFLEET} --synth 12
EOF

while read -r flags; do
  digest_case moves "${DCLID}" -- ${flags}
done <<'EOF'
-M 12
-N 3
--eps-l 0.1
--eps-d 0.1
--dprop 0.01
--no-skew-correction
--window 500
--bound-symbols 60
--bootstrap 10
--bootstrap-refit
--select-N 3
--em-retries 1
--restarts 2
--seed 2
--race-warmup 2
--deadline 5
--no-sanitize
--scenario wdcl
other.csv
EOF
digest_case moves "${DCLID}" --scenario wdcl -- --duration 100
for flags in "--threads 4" "--verbose" "--metrics-json m.json" \
  "--profile-out p.txt" "--log-level info" "--serve-linger 5"; do
  digest_case stays "${DCLID}" -- ${flags}
done

while read -r flags; do
  digest_case moves "${DCLFLEET}" --synth 12 -- ${flags}
done <<'EOF'
-M 12
-N 3
--eps-l 0.1
--eps-d 0.1
--deadline 5
--no-sanitize
--no-skew-correction
--restarts 2
--seed 2
--race-warmup 2
--synth-probes 400
--synth 13
EOF
digest_case moves "${DCLFLEET}" -- traces/
for flags in "--outer-threads 2" "--inner-threads 2" "--timings" \
  "--trace-retries 1" "--trace-timeout 5" "--out o.jsonl" "--journal j" \
  "--metrics-json m.json" "--verbose"; do
  digest_case stays "${DCLFLEET}" --synth 12 -- ${flags}
done

# --- (c) refused resume --------------------------------------------------

fleet=("${DCLFLEET}" --synth 12 --synth-probes 300 --seed 3)
rc=0
"${fleet[@]}" --out "${tmp}/ref.jsonl" 2> /dev/null || rc=$?
(( rc <= 1 )) || fail "uninterrupted fleet exited ${rc}"
rc=0
# The group's redirect also silences bash's own "Killed" job report.
{ DCL_CRASH_AT_TRACE=6 "${fleet[@]}" --journal "${tmp}/run.journal" \
    --out "${tmp}/run.jsonl"; } 2> /dev/null || rc=$?
[[ "${rc}" -eq 137 ]] || fail "DCL_CRASH_AT_TRACE=6 run exited ${rc}, want 137"
cp "${tmp}/run.journal" "${tmp}/journal.before"
cp "${tmp}/run.jsonl" "${tmp}/out.before"
refused="dclfleet: --resume: journal header does not match this invocation"
refused+=" (seed, fleet size, or config changed)"
for changed in "--restarts 2" "--eps-l 0.1"; do
  expect 2 "${refused}" "${fleet[@]}" --journal "${tmp}/run.journal" \
    --out "${tmp}/run.jsonl" --resume ${changed}
  cmp -s "${tmp}/run.journal" "${tmp}/journal.before" \
    || fail "refused resume (${changed}) changed the journal"
  cmp -s "${tmp}/run.jsonl" "${tmp}/out.before" \
    || fail "refused resume (${changed}) changed the output"
done
rc=0
"${fleet[@]}" --journal "${tmp}/run.journal" --out "${tmp}/run.jsonl" \
  --resume 2> /dev/null || rc=$?
(( rc <= 1 )) || fail "plain resume exited ${rc}"
cmp -s "${tmp}/run.jsonl" "${tmp}/ref.jsonl" \
  || fail "resumed output differs from the uninterrupted run"

# --- (d) SIGTERM while lingering -----------------------------------------

# serve_sigterm <command...>: starts the command (which must take --serve
# 127.0.0.1:0 --serve-linger inf), waits for its announcement, sends
# SIGTERM and expects exit 143.
serve_sigterm() {
  "$@" > /dev/null 2> "${tmp}/serve.err" &
  local pid=$!
  for _ in $(seq 1 200); do
    grep -q "serving on" "${tmp}/serve.err" && break
    kill -0 "${pid}" 2> /dev/null || break
    sleep 0.05
  done
  kill -TERM "${pid}" 2> /dev/null
  local rc=0
  wait "${pid}" || rc=$?
  [[ "${rc}" -eq 143 ]] || fail "$* exited ${rc} after SIGTERM, want 143"
}

printf 'seq,send_time,delay\n' > "${tmp}/lost.csv"
for i in $(seq 0 199); do
  printf '%d,%d.%02d,LOST\n' "${i}" $((i / 50)) $((i % 50 * 2))
done >> "${tmp}/lost.csv"
printf 'seq,send_time,delay\n0,0.0,oops\n' > "${tmp}/malformed.csv"
serve=(--serve 127.0.0.1:0 --serve-linger inf)
serve_sigterm "${DCLID}" "${serve[@]}" "${tmp}/lost.csv"       # no verdict
serve_sigterm "${DCLID}" "${serve[@]}" "${tmp}/malformed.csv"  # parse error
serve_sigterm "${DCLFLEET}" "${serve[@]}" --synth 2 \
  --out "${tmp}/no-such-dir/out.jsonl"                         # io error

# --- (e) -v restart labels ----------------------------------------------

# The careful flags on a short scenario: restart racing prunes restarts
# and the hidden-state race stops losing candidates short of the
# 300-iteration cap.
careful=("${DCLID}" --scenario sdcl --duration 300 --select-N 4 \
  --restarts 4 --race-warmup 5 --threads 1)
"${careful[@]}" > "${tmp}/careful.out" 2> /dev/null
"${careful[@]}" -v > "${tmp}/careful-v.out" 2> "${tmp}/careful-v.err"
cmp -s "${tmp}/careful.out" "${tmp}/careful-v.out" \
  || fail "dclid -v changed stdout"
grep -q "(raced out)" "${tmp}/careful-v.err" \
  || fail "dclid -v: no restart labelled (raced out)"
grep -q "(stopped early)" "${tmp}/careful-v.err" \
  || fail "dclid -v: no restart labelled (stopped early)"
if grep "(max iterations)" "${tmp}/careful-v.err" \
    | grep -qv ": 300 iterations,"; then
  fail "dclid -v: a restart short of the cap is labelled (max iterations)"
fi

if (( failures > 0 )); then
  echo "cli_contract_test: ${failures} failure(s)" >&2
  exit 1
fi
echo "cli_contract_test: all cases passed"
