#!/usr/bin/env python3
"""A/B check: a base revision against HEAD on one perfbench workload.

    python3 scripts/ab.py --workload diagnose --seed 2 [--runs 10]
                          [--base REV] [--workdir DIR]

Run it from the root of a dclid git checkout. The base revision and HEAD
are exported with `git archive` into DIR/base and DIR/head (default DIR:
.ab/ in the checkout), two paths of equal length: the benchmark's host
reference reads faster or slower with the length of the checkout path.
The base defaults to the merge-base of HEAD and main (on main itself that
is HEAD, an A-A run; pass --base HEAD~1 to measure the last commit). A
tree is exported again only when its revision changed, so its incremental
benchmark build (.bench_build/) is kept between invocations.

Each tree's perfbench/run.py builds it once (an untimed one-second run),
then runs the workload at the seed K times for BENCHMARK.json's
run_seconds each, alternating which tree goes first in each pair so a
drifting host hits both alike. For each end-to-end metric in
BENCHMARK.json it prints each side's median and quartiles, the median of
the per-pair head/base ratios, the pairs head wins (strictly better in the
metric's direction) out of K, and a two-sided sign-test p-value over the
pairs that differ. It also reports any verdict metric that differs between
the two sides. The script reads perfbench/ and BENCHMARK.json; it changes
neither. Exit code: 0, or 1 when a run fails or reports incorrect output.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Verdict metrics that depend only on the code and the seed.
VERDICTS = ("answered_frac", "verdict_accuracy", "false_accept_frac",
            "false_reject_frac", "bound_err_ms")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, path):
    """Exports `rev` into `path` unless it already holds that revision."""
    commit = git("rev-parse", rev + "^{commit}")
    stamp = os.path.join(path, ".ab_commit")
    if os.path.isfile(stamp) and open(stamp).read().strip() == commit:
        return commit
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit("ab.py: git archive %s failed" % commit)
    with open(stamp, "w") as f:
        f.write(commit + "\n")
    return commit


def one_run(tree, workload, seed, seconds):
    """Runs the tree's benchmark once; returns its JSON result."""
    out = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("ab.py: run failed in %s:\n%s" % (tree, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit("ab.py: run in %s reported incorrect output" % tree)
    return result["metrics"]


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def sign_test(wins, losses):
    """Two-sided sign-test p-value over the pairs that differ."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--base", default=None,
                    help="base revision (default: merge-base with main)")
    ap.add_argument("--workdir", default=os.path.join(ROOT, ".ab"))
    args = ap.parse_args()
    if args.runs < 1:
        sys.exit("ab.py: --runs must be at least 1")
    base_rev = args.base or git("merge-base", "HEAD", "main")
    seconds = spec["run_seconds"]

    trees = {"base": os.path.join(args.workdir, "base"),
             "head": os.path.join(args.workdir, "head")}
    commits = {"base": export(base_rev, trees["base"]),
               "head": export("HEAD", trees["head"])}
    print("base %s (%s)\nhead %s (%s)" % (commits["base"][:12], trees["base"],
                                          commits["head"][:12], trees["head"]))
    for side in ("base", "head"):
        print("  building %s" % side, file=sys.stderr, flush=True)
        one_run(trees[side], args.workload, args.seed, 1)

    runs = {"base": [], "head": []}
    for k in range(args.runs):
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(one_run(trees[side], args.workload, args.seed,
                                      seconds))
        print("  pair %d/%d done" % (k + 1, args.runs), file=sys.stderr,
              flush=True)

    print("== %s seed %d, %d pairs, %d s" % (args.workload, args.seed,
                                             args.runs, seconds))
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        base = [r[name]["value"] for r in runs["base"]]
        head = [r[name]["value"] for r in runs["head"]]
        wins = sum(1 for b, h in zip(base, head)
                   if (h > b if higher else h < b))
        losses = sum(1 for b, h in zip(base, head)
                     if (h < b if higher else h > b))
        ratios = [h / b for b, h in zip(base, head) if b != 0]
        ratio = statistics.median(ratios) if ratios else float("nan")
        bq = quartiles(base)
        hq = quartiles(head)
        print("  %-14s base %.6g [%.6g, %.6g]  head %.6g [%.6g, %.6g]  "
              "head/base %.4f  head wins %d/%d  sign-test p %.4f" % (
                  name, bq[1], bq[0], bq[2], hq[1], hq[0], hq[2], ratio,
                  wins, args.runs, sign_test(wins, losses)))
    for name in VERDICTS:
        vals = {side: {r[name]["value"] for r in runs[side] if name in r}
                for side in runs}
        if vals["base"] != vals["head"]:
            print("  verdict metric %s differs: base %s, head %s" % (
                name, sorted(vals["base"]), sorted(vals["head"])))


if __name__ == "__main__":
    main()
