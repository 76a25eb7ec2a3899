#!/usr/bin/env python3
"""Benchmark entry point for glsc-sim.

Builds the glsc_perf program (perfbench/CMakeLists.txt: a Release build of
the simulator from src/ with the invariant checker compiled out) into
.bench_build at the root of the checkout, then runs one workload in its
own process:

    python3 perfbench/run.py --workload micro-shared --seed 1 --seconds 55 --trace 0

Build output goes to stderr.  glsc_perf's report goes to stdout and its
last line is the JSON result.  The script exits nonzero, printing no
result, when the sources are missing, the build fails, or the run fails
or overruns.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "glsc_perf"
WORKLOADS = ("rms-4x4", "micro-shared", "micro-private")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "sim" / "system.h").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j",
                  str(min(4, os.cpu_count() or 1))])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes (self-tests)")
    ap.add_argument("--expect-digest",
                    help="stats digest of a baseline commit; a mismatch "
                         "fails every run")
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"glsc_perf exited with code {done.returncode}")
    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout)
        fail("glsc_perf printed no JSON result")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
