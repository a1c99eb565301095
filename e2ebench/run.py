#!/usr/bin/env python3
"""Build and run the end-to-end query benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload knn-default --seed 1 --seconds 20 --trace 0

It builds the `cgp-e2ebench` package in release mode (into
$CARGO_TARGET_DIR when set, else e2ebench/target), then runs one workload
with its output passed through: the last stdout line is the JSON result.
Ring files and trace files go to e2ebench/out.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds, plus set-up, the reference and the probes.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("e2ebench: build failed")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    exe = os.path.join(target, "release", "cgp-e2ebench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(HERE, "out")]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
