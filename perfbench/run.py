#!/usr/bin/env python3
"""Build the benchmark from source and run one workload at one seed.

Run from the repository root:

    python3 perfbench/run.py --workload icc0-n64 --seed 1 --seconds 20 --trace 0

It builds perfbench/main.exe with dune (through `opam exec` when dune is
not on PATH), then runs it; the last line of its standard output is the
result as one JSON object.  Build output goes to _build/ in the checkout
and the dune cache is switched off, so nothing is written outside it.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["icc0-n64", "icc2-n16-load", "icc1-n32-wan-faults"]
RUN_TIMEOUT_S = 170


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    # The benchmark drives the repository's own libraries: without them
    # there is nothing to measure.
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (dune-project and lib/ "
              "not found)", file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: neither dune nor opam is on PATH", file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", root, "./perfbench/main.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    try:
        bench = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
