#!/usr/bin/env python3
"""Smoke tests of the benchmark itself.

    python3 perfbench/test_perfbench.py        (from the repository root)

Runs every workload at smoke size on two seeds, untraced and traced, and
checks that each metric BENCHMARK.json names is printed with its unit and
that every output check passed. Also checks that the spread helper runs a
paired A/B comparison, and that the benchmark refuses to run without the
library sources. Takes about a minute on a 4-core host after the first
build.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay_long", "replay_estimates", "paced_incident", "train_cv")
SEEDS = (1, 2)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


class BenchmarkSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_run(self, workload, seed, trace):
        proc = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                    "--trace", str(trace), "--smoke"])
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = self.spec["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in section}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
            if not trace:
                self.assertGreater(m["value"], 0.0, name)
        return result

    def test_every_workload_two_seeds(self):
        for workload in WORKLOADS:
            for seed in SEEDS:
                for trace in (0, 1):
                    with self.subTest(workload=workload, seed=seed, trace=trace):
                        self.check_run(workload, seed, trace)

    def test_same_seed_same_accuracy(self):
        a = self.check_run("paced_incident", 3, 0)["metrics"]["accuracy"]["value"]
        b = self.check_run("paced_incident", 3, 0)["metrics"]["accuracy"]["value"]
        self.assertEqual(a, b)

    def test_spread_helper_pairs_two_checkouts(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "spread.py"), "--workload", "train_cv",
             "--runs", "2", "--seconds", "1", "--smoke", ROOT, ROOT],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        for m in self.spec["end_to_end"]:
            self.assertIn(m["name"], proc.stdout)
        self.assertIn("B/A", proc.stdout)

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run(["--workload", "replay_long", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
