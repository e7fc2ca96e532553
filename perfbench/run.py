#!/usr/bin/env python3
"""Build and run one end-to-end MSQL benchmark run.

    python3 perfbench/run.py --workload join_ship --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds perfbench/msqlbench.exe from
source with dune, runs it, prints the run's context (nproc, OCaml version,
commit, GC parameters, sizes) as one JSON line and then, as the last line,
the result: {"correct", "attempted", "failed", "metrics"}. Exits 1 when an
oracle check failed, 2 on bad usage or environment, 3 when the build fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("join_ship", "fleet_update", "server_zipf")

# each changes the measured program behind the benchmark's back
PINNED = ("MSQL_TEST_DATAFLOW", "MSQL_TEST_DOMAINS", "OCAMLRUNPARAM", "CAMLRUNPARAM")

EXE = os.path.join("_build", "default", "perfbench", "msqlbench.exe")


def commit():
    """The git commit, or a digest of the sources outside a git checkout."""
    if os.path.exists(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/msqlbench.exe"],
        env=env, capture_output=True, text=True, timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    pinned = [v for v in PINNED if v in os.environ]
    if pinned:
        sys.exit("run.py: refusing to run with %s set" % ", ".join(pinned))
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the root of a checkout (no dune-project/lib here)")

    build()
    proc = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit("run.py: msqlbench failed with code %d" % proc.returncode)
    out = json.loads(lines[-1])
    context = dict(out["info"], nproc=os.cpu_count(), commit=commit())
    print(json.dumps({"context": context}))
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
