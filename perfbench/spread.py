#!/usr/bin/env python3
"""Run one workload k times and print each metric's median and quartiles.

usage: python3 perfbench/spread.py --workload NAME [--runs K] [--seconds S]

Run it from the root of a checkout. It runs the workload with --trace 0
on seeds 1..K (default K = 10), S seconds each (default: run_seconds of
BENCHMARK.json). For every metric
it prints the median, the first and third quartiles (as Python's
statistics.quantiles(values, n=4) gives them), their distance as a share
of the median, and the metric's bound from BENCHMARK.json, so the bounds
can be re-derived after the baseline moves. It also prints the failed
share of every run; it should be the same in all of them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    units = {}
    shares = []
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit code {out.returncode}", file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        for line in lines[:-1]:
            if line.startswith(("op ", "failed ")):
                print(f"  seed {seed}: {line}")
        result = json.loads(lines[-1])
        share = result["failed"] / result["attempted"]
        shares.append(share)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"(share {share:.6f})", flush=True)
        if not result["correct"]:
            print(f"seed {seed}: outputs failed their checks", file=sys.stderr)
        print("    " + ", ".join(f"{name}={m['value']:.6g}"
                                  for name, m in result["metrics"].items()))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}: {args.runs} runs, seeds 1..{args.runs}, "
          f"{args.seconds} s each")
    print(f"{'metric':28s} {'unit':8s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'iqr/med':>8s} {'bound':>6s}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:28s} {units[name]:8s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6}")
    print(f"failed shares: {sorted(set(shares))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
