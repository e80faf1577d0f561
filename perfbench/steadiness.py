#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--label L]

Runs `perfbench/run.py --trace 0` once per seed and workload, with
BENCHMARK.json's run_seconds, then prints a Markdown table. For each
metric, the table gives the median and the spread: the distance between
the first and third quartiles of the runs, as a share of the median
(statistics.quantiles(values, n=4)). It also shows that spread as a
fraction of the metric's bound. Each run's JSON line is echoed to stderr
as it finishes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    rows = []
    for workload in workloads:
        values = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            print("%s seed %d rc %d: %s" % (workload, seed, proc.returncode,
                                            lines[-1] if lines else ""),
                  file=sys.stderr, flush=True)
            if proc.returncode != 0 or not result.get("correct"):
                print("run failed", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            median = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / median if median else 0.0
            rows.append((workload, name, median, spread, bounds[name]))

    title = "runs" + (" — " + args.label if args.label else "")
    print("| %s: workload | metric | median | spread | bound | spread/bound |"
          % title)
    print("|---|---|---|---|---|---|")
    for workload, name, median, spread, bound in rows:
        print("| %s | %s | %.6g | %.4f | %.2f | %.2f |"
              % (workload, name, median, spread, bound, spread / bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
