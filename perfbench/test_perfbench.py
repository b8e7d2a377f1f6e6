#!/usr/bin/env python3
"""Self-test of the benchmark.

A tiny configuration of each workload shape must emit every metric that
BENCHMARK.json names, pass its own output and determinism checks, and
repeat its simulated metrics and counts exactly across two processes.
Without the repository sources the benchmark must fail without printing
a result.

    python3 perfbench/test_perfbench.py
"""

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as perfbench  # noqa: E402


def is_host_measurement(name):
    """Host time and memory vary between runs; everything else is simulated
    state or a count and must repeat exactly."""
    return ("host" in name or "_ns_per_" in name or name == "setup_s"
            or name == "peak_rss_mb" or name.startswith("workloads.")
            or name == "trace.overhead_s")


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = perfbench.build()

    def check(self, workload, trace):
        names = perfbench.contract_metrics(trace)
        runs = []
        for _ in range(2):
            _, full = perfbench.run(self.binary, workload, seed=7, seconds=0,
                                    trace=trace, tiny=True)
            self.assertTrue(full["correct"], workload)
            self.assertEqual(full["failed"], 0)
            self.assertGreater(full["attempted"], 0)
            for name in names:
                metric = full["metrics"].get(name)
                self.assertIsNotNone(metric, name)
                self.assertIsNotNone(metric["value"], name)
            fingerprint = perfbench.OUT / f"{workload}.fingerprint.txt"
            runs.append((full, fingerprint.read_text()))
        (first, first_print), (second, second_print) = runs
        self.assertEqual(first_print, second_print)
        for name, metric in first["metrics"].items():
            if not is_host_measurement(name):
                self.assertEqual(metric, second["metrics"][name], name)

    def test_terasort_shape(self):
        self.check("terasort-100g", 0)
        self.check("terasort-100g", 1)

    def test_sort_shape(self):
        self.check("sort-40g", 0)
        self.check("sort-40g", 1)

    def test_multitenant_shape(self):
        self.check("multitenant", 0)
        self.check("multitenant", 1)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(perfbench.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(perfbench.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "sort-40g", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
