#!/usr/bin/env python3
"""Steadiness report: runs one or more workloads N times, each with another
seed, and prints every end-to-end metric's median, quartiles and spread
(interquartile distance as a share of the median). A metric whose spread
exceeds its bound in BENCHMARK.json is flagged; so is one above a third of
its bound, the margin a steady benchmark should keep.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workload md-10k --runs 5 --seed-base 100

Runs are sequential (the host's cores belong to the run being measured).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} "
                         f"failed={result['failed']}")
    return result, wall


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--json", help="also write every run's metrics to this file")
    args = p.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    flagged = []
    for wl in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for i in range(args.runs):
            seed = args.seed_base + i
            result, wall = run_once(bench["command"], wl, seed, args.seconds)
            walls.append(wall)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{wl} seed {seed}: {wall:.1f} s wall, "
                  f"{result['attempted']} ops", file=sys.stderr)
        raw[wl] = values
        print(f"\n{wl}: {args.runs} runs, wall median {statistics.median(walls):.1f} s")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds[name]
            flag = ""
            if spread > bound:
                flag = "OVER BOUND"
                flagged.append((wl, name))
            elif spread > bound / 3:
                flag = "above bound/3"
            print(f"  {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6} {flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    if flagged:
        print("\nspread over bound: " + ", ".join(f"{w}/{m}" for w, m in flagged))
        raise SystemExit(1)


if __name__ == "__main__":
    main()
