#!/usr/bin/env python3
"""Run one workload K times and print each metric's median and quartiles.

    python3 perfbench/spread.py --workload NAME --runs K [--seed0 N]
                                [--seconds S] [--trace 0|1] [--smoke]
                                [--json FILE] [ROOT_A [ROOT_B]]

ROOT_A and ROOT_B are checkouts that hold perfbench/run.py (default: this
one). Run i uses seed seed0+i. With two checkouts every seed runs on both,
alternating which side goes first, and the table adds the paired
comparison from the choosing-metrics rules: B's median against A's, the
share of pairs B wins (ties count for neither side), and whether the gap
clears A's own quartile spread and the metric's bound in BENCHMARK.json.
Quartiles are statistics.quantiles(values, n=4); "iqr/med" is their
distance as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, args, seed):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RuntimeError(f"{root}: seed {seed} exited {proc.returncode}:\n{tail}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json", help="write every run's metrics here")
    parser.add_argument("roots", nargs="*", default=[ROOT])
    args = parser.parse_args()
    if len(args.roots) > 2:
        parser.error("at most two checkouts")
    roots = [os.path.abspath(r) for r in args.roots]
    spec = load_spec(roots[0])
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    section = spec["per_layer" if args.trace else "end_to_end"]
    meta = {m["name"]: m for m in section}

    runs = [[] for _ in roots]
    for i in range(args.runs):
        seed = args.seed0 + i
        order = list(range(len(roots)))
        if i % 2 == 1:
            order.reverse()
        for side in order:
            runs[side].append(run_once(roots[side], args, seed))
            print(f"run {i + 1}/{args.runs} seed {seed} side {'AB'[side]} done",
                  file=sys.stderr, flush=True)

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"roots": roots, "seed0": args.seed0, "runs": runs}, f, indent=1)

    header = f"{'metric':34} {'unit':8} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}"
    if len(roots) == 2:
        header += f" {'B/A':>7} {'B wins':>7} verdict"
    print(f"{args.workload}: {args.runs} runs per side, {args.seconds:g} s each")
    print(header)
    for name, m in meta.items():
        per_side = [[r[name] for r in side_runs] for side_runs in runs]
        for side, values in enumerate(per_side):
            med, q1, q3 = summary(values)
            rel = (q3 - q1) / abs(med) if med else float("nan")
            label = name if side == 0 else f"  B: {name}"
            row = (f"{label:34} {m['unit']:8} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                   f"{rel:8.3f}")
            if side == 1:
                row += " " + compare(m, per_side[0], values)
            print(row)


def compare(meta, a, b):
    """Paired A/B verdict for one metric."""
    med_a, q1_a, q3_a = summary(a)
    med_b = summary(b)[0]
    lower = meta.get("better", "lower") == "lower"
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    ratio = med_b / med_a if med_a else float("nan")
    worse_by = (med_b - med_a) if lower else (med_a - med_b)
    bound = meta.get("bound")
    if wins >= 0.9 * len(a) and abs(med_b - med_a) > (q3_a - q1_a):
        verdict = "gain"
    elif bound is not None and med_a and worse_by / abs(med_a) > bound:
        verdict = "regression"
    elif bound is not None and med_a and (q3_a - q1_a) / abs(med_a) > bound:
        verdict = "unresolved"
    else:
        verdict = "no change"
    return f"{ratio:7.3f} {wins:3d}/{len(a):<3d} {verdict}"


if __name__ == "__main__":
    main()
