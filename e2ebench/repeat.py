#!/usr/bin/env python3
"""Runs one workload N times with consecutive seeds and summarizes.

usage (from the repository root):
  python3 e2ebench/repeat.py --workload <name> [--runs 10] [--seed 1]
      [--seconds 25] [--trace 0|1]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
which is what BENCHMARK.json's bounds are set against. It also prints the
failed share of attempted operations per run. Exits non-zero if a run
fails or reports correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        return None, proc.returncode
    try:
        return json.loads(lines[-1]), proc.returncode
    except json.JSONDecodeError:
        return None, proc.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values = {}
    units = {}
    ok = True
    for i in range(args.runs):
        seed = args.seed + i
        result, code = run_once(args.workload, seed, args.seconds, args.trace)
        if result is None or code != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {code})")
            ok = False
            continue
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} (share {share:.6f})")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"\n{'metric':34s} {'unit':10s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:34s} {units[name]:10s} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
