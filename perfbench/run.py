#!/usr/bin/env python3
"""Builds dclid and the benchmark binary, then makes one benchmark run.

    python3 perfbench/run.py --workload diagnose --seed 1 --seconds 18 --trace 0

Run it from the root of a dclid source tree. The dclid libraries build with
the repository's own CMake project (Release) into .bench_build/dclid, the
binary into .bench_build/perfbench; both builds are incremental, so only
the first run in a tree pays for them. Build output goes to
.bench_build/build.log. After every build the ground-truth scorer's tests
run. The binary's output follows on stdout; its last line is the JSON
result. With --trace 1 the traced pass's spans are written as Chrome trace
JSON to .bench_build/traces/<workload>-seed<seed>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LOG = os.path.join(BUILD, "build.log")
WORKLOADS = ("diagnose", "survey", "groundtruth")
# The libraries the binary links; the others they need build with them.
LIB_TARGETS = ("dcl_fleet", "dcl_scenarios")
# Runs are kept under 180 s; the binary gets the rest after start-up.
RUN_TIMEOUT_S = 170


def step(cmd):
    """Runs one build step with its output appended to the build log."""
    with open(LOG, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        rc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                            stderr=subprocess.STDOUT).returncode
    if rc != 0:
        with open(LOG) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        sys.exit("run.py: build step failed: " + " ".join(cmd))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: %s is not a dclid source tree" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    lib_dir = os.path.join(BUILD, "dclid")
    drv_dir = os.path.join(BUILD, "perfbench")
    if not os.path.isfile(os.path.join(lib_dir, "CMakeCache.txt")):
        step(["cmake", "-S", ROOT, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", lib_dir, "-j", jobs, "--target", *LIB_TARGETS])
    if not os.path.isfile(os.path.join(drv_dir, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", drv_dir, "-DCMAKE_BUILD_TYPE=Release",
              "-DDCL_BUILD_DIR=" + lib_dir])
    step(["cmake", "--build", drv_dir, "-j", jobs])
    step([os.path.join(drv_dir, "truth_test")])
    return os.path.join(drv_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    workdir = os.path.join(BUILD, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: perfbench exceeded %d s\n" % RUN_TIMEOUT_S)
        rc = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
