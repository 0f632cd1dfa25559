#!/usr/bin/env python3
"""Build and run the droppkt end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the repository root. The first run configures and builds the
benchmark (the library straight from src/ plus perfbench/src) into
.bench_build/perfbench; later runs only rebuild what changed. The
benchmark's stdout is passed through, so its last line is the result
object {"correct", "attempted", "failed", "metrics"}. The metric names and
units are checked against BENCHMARK.json; a missing or extra metric, a
failed output check, or a build error exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("replay_long", "replay_estimates", "paced_incident", "train_cv")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError(f"no library sources at {os.path.join(ROOT, 'src')}")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    want = expected_metrics(trace)
    if want is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
            raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                             f"extra {extra}, wrong unit {wrong}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    try:
        build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env.pop("DROPPKT_SESSIONS_SCALE", None)  # the benchmark fixes its sizes
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"benchmark exited {proc.returncode}")
        return 2
    try:
        result = check_result(lines[-1], bool(args.trace))
    except (ValueError, KeyError) as e:
        log(f"bad result line: {e}")
        return 2
    print("\n".join(lines))
    if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
        log("output checks failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
