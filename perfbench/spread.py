#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/spread.py --workloads batch-fp32,stream-append --seeds 1-10

Runs the command in BENCHMARK.json from the repository root, one process
per (workload, seed), in sequence. The spread of a metric is the distance
between its first and third quartile (statistics.quantiles, n=4) as a
share of its median; a metric is steady when the spread stays below a
third of its bound. Pass --trace 1 to print per-layer medians instead.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result, wall


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--verbose", action="store_true",
                        help="print every run's values")
    opts = parser.parse_args()

    defs = bench["per_layer"] if opts.trace else bench["end_to_end"]
    ok = True
    for workload in opts.workloads.split(","):
        values = {d["name"]: [] for d in defs}
        walls = []
        for seed in seed_list(opts.seeds):
            result, wall = run_once(bench["command"], workload, seed,
                                    opts.seconds, opts.trace)
            walls.append(wall)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            if opts.verbose:
                shown = " ".join(f"{n}={result['metrics'][n]['value']:.6g}"
                                 for n in list(values)[:4])
                print(f"  seed {seed}: {shown}", flush=True)
        print(f"== {workload}: {len(walls)} runs, wall per run "
              f"{statistics.median(walls):.1f} s (max {max(walls):.1f} s)")
        for d in defs:
            xs = values[d["name"]]
            med = statistics.median(xs)
            if len(xs) >= 2:
                q1, _, q3 = statistics.quantiles(xs, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = d.get("bound")
            flag = ""
            if bound is not None and d["name"] != "setup_s":
                if spread > bound:
                    flag = "  OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "  above bound/3"
            print(f"  {d['name']:<32} median {med:<14.6g} spread {spread:7.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
