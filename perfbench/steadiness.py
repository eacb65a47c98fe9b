#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--runs N] [--workloads a,b]

Makes two sets of N untraced runs of every chosen workload, each run
BENCHMARK.json's run_seconds long (run i of either set uses seed i;
workloads are interleaved so host drift hits them alike) and prints, per
(end-to-end metric, workload), each set's median and its spread: the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A pair is
steady when each set's spread is within a third of the metric's bound and
the second set's median is not worse than the first's by more than the
bound. Exits 1 when any pair fails or any run fails its output checks. Raw
values go to .bench_build/steadiness.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{r.stderr}")
    res = json.loads(r.stdout.rstrip("\n").splitlines()[-1])
    if not res["correct"]:
        print(f"{workload} seed {seed}: output checks failed\n{r.stdout}",
              file=sys.stderr)
    return res["correct"], {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, later, better):
    """Share by which `later` is worse than `first` (negative = better)."""
    if better == "lower":
        return later / first - 1.0
    return 1.0 - later / first


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in names:
            sys.exit(f"unknown workload {w}; choose from {names}")
    if args.runs < 4:
        sys.exit("--runs must be >= 4 for quartiles")

    # values[set][workload][metric] -> list over runs
    values = [{w: {} for w in workloads} for _ in range(SETS)]
    incorrect = 0
    for s in range(SETS):
        for i in range(args.runs):
            for w in workloads:
                correct, metrics = run_once(w, i + 1, bench["run_seconds"])
                incorrect += not correct
                for m, v in metrics.items():
                    values[s][w].setdefault(m, []).append(v)
                print(f"set {s + 1} run {i + 1}/{args.runs} {w} done",
                      file=sys.stderr, flush=True)

    out = ROOT / ".bench_build" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(values, indent=1))

    ok = incorrect == 0
    if incorrect:
        print(f"{incorrect} run(s) failed their output checks")
    head = f"{'metric':<20} {'workload':<20}"
    for s in range(SETS):
        head += f" {'median' + str(s + 1):>13} {'iqr' + str(s + 1):>7}"
    print(head + f" {'shift':>7} {'bound':>6}  verdict")
    for e in bench["end_to_end"]:
        m, bound = e["name"], e["bound"]
        for w in workloads:
            line = f"{m:<20} {w:<20}"
            meds, verdicts = [], []
            for s in range(SETS):
                med, iqr = spread(values[s][w][m])
                meds.append(med)
                line += f" {med:>13.6g} {iqr:>7.3f}"
                if iqr > bound / 3:
                    verdicts.append(f"set {s + 1} spread > bound/3")
            shift = worse_by(meds[0], meds[1], e["better"])
            if shift > bound:
                verdicts.append("median moved past bound")
            ok = ok and not verdicts
            print(line + f" {shift:>7.3f} {bound:>6.2f}  "
                  + ("; ".join(verdicts) or "ok"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
