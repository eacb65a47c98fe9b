#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the simulator and the
benchmark driver from source into .bench_build/perfbench (Release); later
calls reuse that build. The driver's report goes to stdout and its last line
is the JSON result; build output goes to stderr. A traced run (--trace 1)
also writes spans.json and layers.json under
.bench_build/perfbench-out/<workload>-seed<N>/.

Exits non-zero without a result when the simulator sources are missing, the
build fails, the driver fails or runs past its time limit.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def build():
    """Configure (once) and build the driver; True on success."""
    if not (ROOT / "src" / "noc" / "network.hpp").is_file():
        print("perfbench: simulator sources (src/) not found", file=sys.stderr)
        return False
    cache = BUILD_DIR / "CMakeCache.txt"
    steps = []
    if not cache.is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if r.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not re.fullmatch(r"[A-Za-z0-9_]+", args.workload):
        return fail(f"bad workload name {args.workload!r}")
    if not build():
        return fail("build failed")

    scratch = BUILD_ROOT / "perfbench-scratch" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch-dir", str(scratch)]
    if args.trace:
        out_dir = (BUILD_ROOT / "perfbench-out" /
                   f"{args.workload}-seed{args.seed}")
        out_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--out-dir", str(out_dir)]

    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail(f"{args.workload} ran past {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(out)
        return fail(f"driver exited with {proc.returncode}")

    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        return fail("driver printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("malformed JSON result")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
