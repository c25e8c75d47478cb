#!/usr/bin/env python3
"""A-A check: two interleaved sets of benchmark runs of one build.

    python3 perfbench/aa.py [--runs 10] [--workloads diagnose,survey]
                            [--seconds S]

Run it from the root of a dclid source tree. Run k of each set uses seed
k + 1, and the two sets alternate which goes first, so a drifting host
hits both alike. The verdict metrics (answered_frac, verdict_accuracy,
false_accept_frac, false_reject_frac, bound_err_ms) must repeat exactly
for each seed. For each workload and end-to-end metric in BENCHMARK.json
it prints each set's median and quartiles, the quartile spread as a share
of the median (host-normalized and, for timings, raw), and whether the
sets agree:
  * each set's spread is within the metric's bound, and
  * set B's median is not worse than set A's by more than the bound.
A spread above a third of the bound is flagged as not steady. The exit
code is 1 when any check fails. Use it as the first check of a change:
the benchmark is only as good as its A-A agreement on the host at hand.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

# Verdict metrics that must repeat exactly for a seed.
DETERMINISTIC = ("answered_frac", "verdict_accuracy", "false_accept_frac",
                 "false_reject_frac", "bound_err_ms")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    """Runs the benchmark once; returns ({metric: value}, {metric: raw})."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("aa.py: run failed (%s seed %d):\n%s" % (
            workload, seed, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("aa.py: run reported incorrect output (%s seed %d)" % (
            workload, seed))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    raw = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "metric":
            if parts[1] in DETERMINISTIC:
                raw[parts[1]] = parts[2]
            for p in parts[4:]:
                if p.startswith("raw="):
                    raw[parts[1]] = float(p[4:])
    return values, raw


def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (
        xs[0], xs[0], xs[0])
    med = statistics.median(xs)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    res = {(w, s): [] for w in workloads for s in "AB"}
    for k in range(args.runs):
        for w in workloads:
            for s in ("AB" if k % 2 == 0 else "BA"):
                res[(w, s)].append(one_run(w, k + 1, args.seconds))
                print("  run %d %s set %s seed %d done" % (
                    k, w, s, k + 1), file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        for k, ((_, ra), (_, rb)) in enumerate(zip(res[(w, "A")],
                                                   res[(w, "B")])):
            for name in DETERMINISTIC:
                if ra.get(name) != rb.get(name):
                    ok = False
                    print("%s seed %d: %s differs between sets: %s vs %s"
                          % (w, k + 1, name, ra.get(name), rb.get(name)))
    for w in workloads:
        print("== %s (%d runs per set, %d s)" % (w, args.runs, args.seconds))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row = []
            meds = {}
            spreads = {}
            for s in "AB":
                vals = [v[name] for v, _ in res[(w, s)]]
                med, q1, q3, spread = summary(vals)
                meds[s], spreads[s] = med, spread
                raws = [r[name] for _, r in res[(w, s)]
                        if isinstance(r.get(name), float)]
                raw_note = (" raw-spread %.3f" % summary(raws)[3]
                            if len(raws) == len(vals) else "")
                row.append("%s: med %.6g [q1 %.6g, q3 %.6g] spread %.3f%s" % (
                    s, med, q1, q3, spread, raw_note))
            worse = ((meds["B"] - meds["A"]) / meds["A"]
                     if m["better"] == "lower"
                     else (meds["A"] - meds["B"]) / meds["A"])
            agree = worse <= bound
            within = max(spreads.values()) <= bound
            steady = max(spreads.values()) < bound / 3
            ok = ok and agree and within
            print("  %-14s bound %.3f  %s | %s  B-vs-A worse by %+.3f -> %s%s"
                  % (name, bound, row[0], row[1], worse,
                     "agree" if agree and within else "DISAGREE",
                     "" if steady else " (spread above bound/3)"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
