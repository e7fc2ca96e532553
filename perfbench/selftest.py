#!/usr/bin/env python3
"""The benchmark's own test: short runs of every workload must be correct,
report no end-to-end metric as 0, reproduce their deterministic metrics
exactly, and refuse a pinned environment variable.

    python3 perfbench/selftest.py [--seconds 0.5]

Run from the root of a checkout. Each workload runs twice untraced and
twice traced on the same seed. Within a run, every federation build must
replay the warm-up pass identically (builds_agree); across the two runs,
every deterministic metric must match to the last digit: the simulated
latencies, network counts, success fraction and heap peak, and every
per-layer count, ratio and GC figure (wall-clock ns and the trace's own
coverage/overhead are exempt). Exits nonzero on the first failure.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("join_ship", "fleet_update", "server_zipf")
DETERMINISTIC_E2E = ("virt_p50_ms", "virt_tail_ms", "net_bytes_per_stmt",
                     "net_msgs_per_stmt", "success_frac", "peak_heap_mb")


def wall_clock(name):
    return "ns_per_stmt" in name or name.startswith("trace.")


def run(workload, trace, seconds, env=None):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, env=env)
    return proc


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=0.5)
    args = ap.parse_args()

    proc = run("fleet_update", 0, args.seconds, env=dict(os.environ, MSQL_TEST_DOMAINS="2"))
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a run with MSQL_TEST_DOMAINS set was not refused")
    print("ok   pinned environment refused")

    for workload in WORKLOADS:
        for trace in (0, 1):
            results = []
            for _ in range(2):
                proc = run(workload, trace, args.seconds)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    fail("%s trace=%d exited %d: %s" % (workload, trace, proc.returncode,
                                                         proc.stderr[-500:]))
                context = json.loads(lines[-2])["context"]
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"]:
                    fail("%s trace=%d: oracle failures" % (workload, trace))
                if trace == 0 and not context["builds_agree"]:
                    fail("%s: builds disagree on the warm-up pass" % workload)
                values = {k: v["value"] for k, v in result["metrics"].items()}
                if trace == 0 and not all(values.values()):
                    fail("%s: an end-to-end metric reads 0: %r" % (workload, values))
                results.append(values)
            names = DETERMINISTIC_E2E if trace == 0 else [
                k for k in results[0] if not wall_clock(k)]
            for k in names:
                if results[0][k] != results[1][k]:
                    fail("%s trace=%d: %s differs across runs: %r vs %r" % (
                        workload, trace, k, results[0][k], results[1][k]))
            print("ok   %-12s trace=%d  %d deterministic metrics identical" % (
                workload, trace, len(names)))


if __name__ == "__main__":
    main()
