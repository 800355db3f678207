#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Runs the benchmark command from BENCHMARK.json once per seed, seeds 1
to 10, on every workload BENCHMARK.json lists, and prints, per workload
and metric, the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread: the interquartile distance
as a share of the median, next to the metric's bound. Every run must
report correct=true. It also prints each run's output digest, so two
sets can be compared seed by seed.

Usage, from the root of the repository:

    python3 perfbench/steady.py
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stderr}")
    digest = next((l for l in lines if l.startswith("digest ")), "digest missing")
    print(f"seed {seed:2} {digest}", flush=True)
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in SEEDS:
            result = run_once(bench, w["name"], seed)
            for m in bench["end_to_end"]:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            print(f"{w['name']:18} {m['name']:12} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:7.4f}  bound {m['bound']}{flag}", flush=True)


if __name__ == "__main__":
    main()
