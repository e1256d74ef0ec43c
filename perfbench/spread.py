#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3] [--trace 0]

Run from the repository root. For every workload and metric it prints
the median, the quartiles (statistics.quantiles, n=4), and the
interquartile distance as a share of the median, beside the bound
BENCHMARK.json gives the metric; a spread above a third of its bound
is marked. Use it to check that the benchmark is steady before
trusting a comparison, and to compare two commits on the same seeds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in args.workloads.split(","):
        values = {}
        failed = 0
        for seed in args.seeds.split(","):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", seed,
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(args.seeds.split(','))} runs, "
              f"{failed} failed operations")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                mark = "  > bound/3"
                steady = False
            print(f"  {name:<30} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} iqr/median {share:.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + mark)
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
