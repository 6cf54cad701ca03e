#!/usr/bin/env python3
"""Builds and runs the MVTEE serving benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload panel_sync --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (the MVTEE library from src/ plus the
benchmark) in Release mode under .bench_build/, runs the percentile unit
test, then runs one workload. Build output goes to stderr; the
benchmark's report goes to stdout, and its last line is one JSON object
with the keys correct, attempted, failed and metrics.

--inject-delay-us N is the sensitivity check described in README.md: it
delays every frame a variant sends by N microseconds. It is not part of
the regular runs.
"""
import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("panel_sync", "replicated_open", "straggler_async")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"MVTEE sources not found under {ROOT}/src; nothing to build")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    test = subprocess.run([os.path.join(CMAKE_DIR, "perfbench_stats_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode:
        log("percentile unit test failed")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--inject-delay-us", type=int, default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0 or args.inject_delay_us < 0:
        parser.error("--seconds must be >= 1; --seed and --inject-delay-us >= 0")

    if not build():
        return 1
    cmd = [os.path.join(CMAKE_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--schedule", os.path.join(BENCH_DIR, "schedule.json"),
           "--out-dir", OUT_DIR]
    if args.inject_delay_us:
        cmd += ["--inject-delay-us", str(args.inject_delay_us)]
    start = time.monotonic()
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode or not lines:
        sys.stdout.write(run.stdout)
        log(f"benchmark exited with code {run.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(run.stdout)
        log("benchmark printed no result line")
        return 1
    for line in lines[:-1]:
        print(line)
    log(f"{args.workload} finished in {time.monotonic() - start:.1f} s")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
