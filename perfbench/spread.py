#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload fleet-open --seeds 1-10 [--seconds 20] [--trace 0]

For every metric in the runs' full results (`perfbench/results/`), reports the median over the runs
and the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound in `BENCHMARK.json` and a third of it, the target a
steady benchmark keeps under.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    args = sys.argv[1:]

    def opt(key, default=None):
        if key in args:
            return args[args.index(key) + 1]
        if default is None:
            sys.exit(f"missing {key}")
        return default

    workload = opt("--workload")
    lo, _, hi = opt("--seeds").partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = opt("--seconds", str(spec["run_seconds"]))
    trace = opt("--trace", "0")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs = []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
             str(seed), "--seconds", seconds, "--trace", trace],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{out.stdout}\n{out.stderr}")
        with open(os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
            runs.append(json.load(fh)["metrics"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in runs[-1].items()),
              flush=True)

    print(f"\n{'metric':<36} {'median':>14} {'spread':>8} {'bound':>6} {'bound/3':>8}")
    for name in runs[0]:
        values = [r[name]["value"] for r in runs if name in r]
        med = statistics.median(values)
        if len(values) >= 2:
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        b = f"{bound:.2f}" if bound is not None else "-"
        b3 = f"{bound / 3:.3f}" if bound is not None else "-"
        flag = "  <-- over bound/3" if bound is not None and spread > bound / 3 else ""
        print(f"{name:<36} {med:>14.6g} {spread:>8.3f} {b:>6} {b3:>8}{flag}")


if __name__ == "__main__":
    main()
