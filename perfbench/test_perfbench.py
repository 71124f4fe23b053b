#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny sizes.

    python3 perfbench/test_perfbench.py

Runs every workload through perfbench/run.py (building the driver on first
use) and checks that:
  * each run passes its output checks and prints every metric BENCHMARK.json
    names, with its unit;
  * two traced runs with one seed report identical per-layer counts and
    count ratios on dispatch, batch and paper (serve's fault counts depend
    on thread interleaving, so it is exempt);
  * the same seed reproduces the inputs and a different seed changes them.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("dispatch", "batch", "paper", "serve")
DETERMINISTIC = ("dispatch", "batch", "paper")
# Per-layer metrics in these units are averaged over a fixed prefix of
# operations, so they must repeat exactly for one seed.
EXACT_UNITS = ("count", "ratio")


def bench(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.splitlines()
    digests = [line.split("=", 1)[1] for line in lines if line.startswith("report input_digest=")]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done, result, digests


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, done, result, wanted):
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done, result, _ = bench(workload, 5, 0)
                self.check_result(done, result, self.spec["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [bench(workload, 5, 1) for _ in range(2)]
                for done, result, _ in runs:
                    self.check_result(done, result, self.spec["per_layer"])
                self.assertGreater(runs[0][1]["metrics"]["trace.coverage"]["value"], 0.95)
                if workload not in DETERMINISTIC:
                    continue
                first, second = runs[0][1]["metrics"], runs[1][1]["metrics"]
                exact = [n for n, m in first.items() if m["unit"] in EXACT_UNITS]
                self.assertTrue(exact)
                for name in exact:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_seed_changes_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, _, same_a = bench(workload, 7, 0)
                _, _, same_b = bench(workload, 7, 0)
                _, _, other = bench(workload, 8, 0)
                self.assertTrue(same_a)
                self.assertEqual(same_a, same_b)
                self.assertNotEqual(same_a, other)


if __name__ == "__main__":
    unittest.main()
