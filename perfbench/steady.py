#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly and print, for each
end-to-end metric, its median and interquartile spread beside its bound.

    python3 perfbench/steady.py --workload fleet_update [--runs 10] [--first-seed 1]

Run from the root of a checkout. Each run uses the next seed. The spread
is (Q3 - Q1) / median with the quartiles of statistics.quantiles(n=4). A
metric is resolved when its spread is below its bound from BENCHMARK.json;
the benchmark aims for a third of it. Every run's raw values are printed
too, so two batches can be compared medians to medians.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit("steady.py: run with seed %d failed (code %d)" % (seed, proc.returncode))
        result = json.loads(lines[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(json.dumps({"seed": seed, "metrics": row}), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    worst = 0.0
    print("%-20s %14s %9s %7s  %s" % ("metric", "median", "spread", "bound", "verdict"))
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        verdict = "steady" if spread < m["bound"] / 3 else (
            "resolved" if spread <= m["bound"] else "NOISY")
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print("%-20s %14.6g %8.2f%% %6.0f%%  %s" % (
            m["name"], med, 100 * spread, 100 * m["bound"], verdict))
    print("worst spread/bound (setup_s aside): %.2f" % worst)


if __name__ == "__main__":
    main()
