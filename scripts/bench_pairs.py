#!/usr/bin/env python3
"""Compare the working tree against a parent revision on perfbench, in pairs.

    python3 scripts/bench_pairs.py [--rev REV] [--workload NAME ...]
        [--pairs N] [--seconds S] [--seed N] [--work DIR]

Run from the root of a checkout. REV (default HEAD) is exported with
`git archive` into <work>/parent-<sha>, so the comparison measures the
committed parent against whatever is in the working tree, uncommitted
edits included. Both sides are built first, each into its own
CARGO_TARGET_DIR (<work>/parent-target and <work>/change-target), so no
build runs between measurements. Each pair then runs
`perfbench/run.py` once per side, alternating which side goes first so
that slow drift of the machine does not favour either.

For every end-to-end metric BENCHMARK.json lists, it prints each side's
median [Q1, Q3] over the pairs and the number of pairs the change won
(strictly better in the metric's direction), plus the digests each side
printed, which must agree when the change is meant to keep results
unchanged. --seconds defaults to BENCHMARK.json's run_seconds.

Each metric also gets one verdict, judged against the metric's `bound`
in BENCHMARK.json (a fraction of the parent's median):
  gain               the change won at least 9 in 10 pairs and the
                     medians differ by more than the parent's IQR;
  unresolved         the parent's IQR is wider than the bound, so the
                     runs cannot tell (unless every change run beats
                     every parent run);
  WORSE beyond bound the change's median is worse than the parent's by
                     more than the bound;
  within bound       otherwise.
The verdicts do not change the exit status.

--workload takes any workload perfbench/run.py knows. One that
BENCHMARK.json does not list (fleet_churn) may fail its correctness
gate on both sides: its runs still count towards the metrics, and the
report prints each side's `correct` flags and gate failures next to the
digests instead of calling the runs failed.

Exits 1 when a run prints no result, when a listed workload's run fails
its gate, or when the two sides differ in digests or, for an unlisted
workload, in `correct` flags.
"""

import importlib.util

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def export(rev, work):
    """Exports `rev` into <work>/parent-<sha> once; returns its path."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, text=True, capture_output=True,
    ).stdout.strip()
    path = os.path.join(work, f"parent-{sha[:12]}")
    if not os.path.isdir(path):
        tmp = path + ".partial"
        os.makedirs(tmp, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise SystemExit(f"error: git archive {rev} failed")
        os.rename(tmp, path)
    return path, sha


def build(root, target):
    """Builds one side's benchmark as perfbench/run.py would."""
    subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked", "--quiet",
            "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml"),
        ],
        env=dict(os.environ, CARGO_TARGET_DIR=target), check=True,
    )


def known_workloads():
    """The workloads perfbench/run.py accepts."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join("perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def run_side(root, target, workload, seconds, seed):
    """One perfbench run; returns (result object or None, digests, gate failures)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seconds", str(seconds), "--seed", str(seed),
        ],
        cwd=root, env=env, text=True, capture_output=True,
    )
    lines = proc.stdout.strip().splitlines()
    digests = [ln.split()[1] for ln in lines if ln.startswith("digest ")]
    # Every pass repeats its gate failures; keep each failure once.
    gates = [re.sub(r"^GATE FAILED: pass \d+: ", "GATE FAILED: ", ln)
             for ln in lines if ln.startswith("GATE FAILED: ")]
    # A failed gate still prints the result object; anything else that
    # exits non-zero does not.
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is None or (proc.returncode != 0 and not gates):
        sys.stderr.write(proc.stderr[-2000:])
        return None, digests, gates
    return result, digests, gates


def spread(values):
    """Median and the inclusive quartiles of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def verdict(parent, change, higher, bound):
    """One metric's verdict over paired runs; see the module docs."""
    pm, pq1, pq3 = spread(parent)
    cm = spread(change)[0]
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    iqr = pq3 - pq1
    if 10 * wins >= 9 * len(parent) and better(cm, pm) and abs(cm - pm) > iqr:
        return "gain"
    if iqr > bound * abs(pm) and not all(better(c, p) for p in parent for c in change):
        return "unresolved"
    if better(pm, cm) and abs(cm - pm) > bound * abs(pm):
        return "WORSE beyond bound"
    return "within bound"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", default="HEAD")
    listed = [w["name"] for w in bench["workloads"]]
    ap.add_argument("--workload", action="append", choices=known_workloads())
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=20050607)
    ap.add_argument("--work", default=".bench_pairs")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be positive")

    work = os.path.abspath(args.work)
    os.makedirs(work, exist_ok=True)
    parent_root, sha = export(args.rev, work)
    sides = {
        "parent": (parent_root, os.path.join(work, "parent-target")),
        "change": (os.getcwd(), os.path.join(work, "change-target")),
    }
    for side, (root, target) in sides.items():
        print(f"building {side} ({root})", file=sys.stderr, flush=True)
        build(root, target)
    ok = True
    for workload in args.workload or listed:
        gated = workload in listed
        results = {"parent": [], "change": []}
        digests = {"parent": set(), "change": set()}
        correct = {"parent": set(), "change": set()}
        gates = {"parent": set(), "change": set()}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                root, target = sides[side]
                res, dig, gate = run_side(root, target, workload, args.seconds, args.seed)
                digests[side].update(dig)
                gates[side].update(gate)
                if res is not None:
                    correct[side].add(bool(res.get("correct", False)))
                if res is None or (gated and not res.get("correct", False)):
                    print(f"{workload} pair {i + 1}: {side} run failed", flush=True)
                    ok = False
                    res = None
                results[side].append(res)
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

        print(f"== {workload}: parent {sha[:12]} vs working tree, "
              f"{args.pairs} pairs x {args.seconds} s, seed {args.seed} ==")
        for metric in bench["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            pairs = [
                (p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in zip(results["parent"], results["change"])
                if p is not None and c is not None and name in p["metrics"]
                and name in c["metrics"]
            ]
            if not pairs:
                continue
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            wins = sum((c > p) if higher else (c < p) for p, c in pairs)
            pm, pq1, pq3 = spread(parent)
            cm, cq1, cq3 = spread(change)
            print(f"  {name:<16} parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}]  "
                  f"change {cm:.6g} [{cq1:.6g}, {cq3:.6g}]  "
                  f"x{cm / pm:.3f}  change wins {wins}/{len(pairs)}  ({metric['unit']})")
            print(f"  {'':<16} parent runs {' '.join(f'{v:.6g}' for v in parent)}")
            print(f"  {'':<16} change runs {' '.join(f'{v:.6g}' for v in change)}")
            print(f"  {'':<16} verdict: {verdict(parent, change, higher, metric['bound'])}"
                  f" (bound {metric['bound']:g})")
        same = digests["parent"] == digests["change"]
        print(f"  digests parent {sorted(digests['parent'])} change "
              f"{sorted(digests['change'])} ({'match' if same else 'DIFFER'})")
        ok &= same
        if not gated:
            agree = correct["parent"] == correct["change"]
            print(f"  correct parent {sorted(correct['parent'])} change "
                  f"{sorted(correct['change'])} ({'match' if agree else 'DIFFER'})")
            for side in ("parent", "change"):
                for gate in sorted(gates[side]):
                    print(f"  {side}: {gate}")
            ok &= agree
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
