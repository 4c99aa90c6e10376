#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Runs perfbench/run.py (which builds on first use) with short runs:
metric names are well formed, one seed always gives the same
operations and the same counted statistics, and a short run of every
listed workload, untraced and traced, verifies every operation with none
failed and reports every metric BENCHMARK.json lists.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=1, seconds=1.0, trace=0):
    """One run: (report lines, parsed result line)."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{workload} failed:\n{done.stderr}")
    lines = done.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def config(lines, key):
    for line in lines:
        parts = line.split(" ", 2)
        if parts[0] == "config" and parts[1] == key:
            return parts[2]
    raise AssertionError(f"no config {key}")


class BenchmarkSpec(unittest.TestCase):
    def test_metric_names_are_well_formed(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += WORKLOADS
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_same_seed_same_operations_and_statistics(self):
        for workload in ("window-serial", "serve-mixed"):
            first, _ = run(workload, seed=7, seconds=0.5)
            second, _ = run(workload, seed=7, seconds=0.5)
            other, _ = run(workload, seed=8, seconds=0.5)
            for key in ("operations", "stats_digest"):
                self.assertEqual(config(first, key), config(second, key),
                                 f"{workload} {key}")
            self.assertNotEqual(config(first, "operations"),
                                config(other, "operations"), workload)


class SmokeRuns(unittest.TestCase):
    def check(self, trace):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                lines, result = run(workload, trace=trace)
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.assertIn("metric failed_frac 0 fraction",
                              [" ".join(line.split()) for line in lines])
                printed = [line.split()[1] for line in lines
                           if line.startswith("metric ")]
                for name in printed:
                    self.assertTrue(NAME.fullmatch(name), name)
                if workload == "serve-mixed":
                    self.assertIn(
                        "metric serve.simulations_per_cold_key 1 count",
                        [" ".join(line.split()) for line in lines])

    def test_untraced_runs_verify_every_operation(self):
        self.check(0)

    def test_traced_runs_report_every_layer(self):
        self.check(1)


if __name__ == "__main__":
    unittest.main()
