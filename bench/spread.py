#!/usr/bin/env python3
"""Runs the benchmark's command N times per workload, each time with another
seed, and prints for each end-to-end metric the median and the distance
between the first and third quartile as a share of the median, beside the
bound BENCHMARK.json gives it: the acceptance rule for the benchmark itself.

    python3 bench/spread.py [-n 10] [--first-seed 1] [workload ...]

Run it from the root of the repository.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.n):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            rep = json.loads(out.strip().splitlines()[-1])
            if not rep["correct"] or rep["failed"]:
                sys.exit(f"{name} seed {seed}: {rep}")
            runs.append(rep["metrics"])
        for m in spec["end_to_end"]:
            vals = [r[m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"{name:12s} {m['name']:14s} median {med:12.4f} {m['unit']:4s} "
                  f"spread {100 * spread:5.1f}%  bound {100 * m['bound']:4.0f}%  "
                  f"min {min(vals):12.4f} max {max(vals):12.4f}", flush=True)
    print(f"worst spread is {worst:.2f} of its bound")


if __name__ == "__main__":
    main()
