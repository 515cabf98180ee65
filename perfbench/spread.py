#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark once per seed on each named workload and prints, per
metric, the median over seeds and the distance between the first and
third quartile as a share of the median (statistics.quantiles, n=4),
next to a third of the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workloads net-rr,blk-rw --seeds 1-10

Run from the repository root after building the benchmark once.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({len(args.seeds)} seeds)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            limit = bounds[name] / 3
            flag = "" if spread < limit else "  <-- above bound/3"
            worst = max(worst, spread / limit)
            print(f"  {name:<20} median {med:<14.6g} spread {spread:8.4f}  bound/3 {limit:.4f}{flag}")
    print(f"worst spread / (bound/3): {worst:.3f}")


if __name__ == "__main__":
    main()
