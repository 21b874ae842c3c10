#!/usr/bin/env python3
"""Build the Odin user-loop benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fuzz-sqlite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The benchmark itself is perfbench/odinbench.ml; this wrapper builds it
with dune inside the checkout and passes the arguments through. The
last line of standard output is the run's JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "odinbench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no Odin sources here (dune-project, lib/); run it from "
              "the root of a source checkout", file=sys.stderr)
        return 2

    # build inside the checkout only: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/odinbench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    if args.self_test:
        cmd = [EXE, "--self-test"]
    else:
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
