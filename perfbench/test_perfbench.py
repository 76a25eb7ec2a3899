#!/usr/bin/env python3
"""Self-tests of the glsc-sim benchmark.

Run from the root of the repository (builds .bench_build on first use):

    python3 -m unittest perfbench/test_perfbench.py

Each test drives perfbench/run.py at the --tiny sizes, so the whole file
takes well under a minute once glsc_perf is built.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# rms-4x4 is run by hand, not by BENCHMARK.json; keep it working too.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["rms-4x4"]


def run(workload, trace, *extra, seed=5):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "0.1", "--trace", str(trace), "--tiny",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return done


def result(done):
    if done.returncode != 0:
        raise AssertionError(f"run failed ({done.returncode}):\n"
                             f"{done.stdout}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class TinyPasses(unittest.TestCase):
    """Every workload, both modes, at the smallest sizes."""

    @classmethod
    def setUpClass(cls):
        cls.results = {(w, t): result(run(w, t))
                       for w in WORKLOADS for t in (0, 1)}

    def test_every_run_verifies(self):
        for key, res in self.results.items():
            with self.subTest(key=key):
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)

    def test_metric_names_are_declared(self):
        declared = {0: [m["name"] for m in SPEC["end_to_end"]],
                    1: [m["name"] for m in SPEC["per_layer"]]}
        units = {m["name"]: m["unit"]
                 for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for (workload, trace), res in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(sorted(res["metrics"]),
                                 sorted(declared[trace]))
                for name, m in res["metrics"].items():
                    self.assertEqual(m["unit"], units[name])
                    self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end_metrics_are_nonzero(self):
        for workload in WORKLOADS:
            for name, m in self.results[(workload, 0)]["metrics"].items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(m["value"], 0)


class DigestGate(unittest.TestCase):
    def digest(self, done):
        for line in done.stdout.splitlines():
            if line.startswith("stats digest "):
                return line.split()[2]
        self.fail("no digest line printed")

    def test_digest_repeats_across_modes(self):
        untraced = run("micro-private", 0)
        traced = run("micro-private", 1)
        self.assertEqual(self.digest(untraced), self.digest(traced))
        matched = result(run("micro-private", 0, "--expect-digest",
                             self.digest(untraced)))
        self.assertTrue(matched["correct"])
        self.assertEqual(matched["failed"], 0)

    def test_planted_mismatch_is_a_failure(self):
        res = result(run("micro-shared", 0, "--expect-digest",
                         "0123456789abcdef"))
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])

    def test_seed_changes_the_inputs(self):
        self.assertNotEqual(self.digest(run("micro-shared", 0, seed=1)),
                            self.digest(run("micro-shared", 0, seed=2)))


class BadInvocations(unittest.TestCase):
    def assertNoResult(self, done):
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)

    def test_unknown_workload_prints_no_result(self):
        self.assertNoResult(subprocess.run(
            [sys.executable, str(RUN), "--workload", "nope", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=60))

    def test_without_simulator_sources_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            self.assertNoResult(subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "rms-4x4", "--seed", "1", "--seconds", "1", "--trace",
                 "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180))


if __name__ == "__main__":
    unittest.main()
