#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 benchmark/spread.py --workload computed --seeds 1-10 [--trace 1] [--save runs.json]

For every metric it prints the median of the per-seed values and the
distance between their first and third quartiles (statistics.quantiles,
n=4) as a share of that median, next to the bound BENCHMARK.json gives
the metric. Every end-to-end spread but setup_s's should stay within
its bound, and is best kept under a third of it. Runs from the
repository root with the command BENCHMARK.json names.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--save", help="write the per-seed values here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = (int(s) for s in args.seeds.split("-"))
    values = {}
    for seed in range(first, last + 1):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} failed checks\n{done.stderr}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: ok", file=sys.stderr, flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        verdict = "" if bound is None else "ok" if spread < bound / 3 else "near" if spread < bound else "WIDE"
        shown = "-" if bound is None else f"{bound:.2f}"
        print(f"{name:34s} median {med:16.6g}  spread {spread:8.2%}  bound {shown:>5s}  {verdict}")
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1) + "\n")


if __name__ == "__main__":
    main()
