#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

    python3 perfbench/run.py --workload study|fleet_ingest|fleet_churn \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that builds the repository's crates by path
into $CARGO_TARGET_DIR (default .bench_build). The workload runs in a
child process of its own; its output is passed through, so the last
line printed is the result object. A traced run also writes the spans it
recorded to <target>/perfbench-trace/<workload>-<seed>.tsv.

Exits non-zero, without printing a result, when the build fails, and
with the workload's own code when a correctness gate fails.

BENCHMARK.json lists study and fleet_ingest. fleet_churn still runs,
but its gate fails until an evicted session stops re-delivering records
(see perfbench/README.md).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("study", "fleet_ingest", "fleet_churn")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20050607)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 3

    cmd = [
        os.path.join(target, "release", "distscroll-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        out_dir = os.path.join(target, "perfbench-trace")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, f"{args.workload}-{args.seed}.tsv")]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
