#!/usr/bin/env python3
"""The benchmark's own tests, on tiny versions of every workload.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py if needed (a few minutes the first time),
then checks for each workload that every metric BENCHMARK.json names is
reported with its unit, that a seed fixes the inputs and the decisions,
that another seed changes the inputs but not the metric names, and that a
planted step mismatch is counted as a failure. A last test checks that the
benchmark fails cleanly when the library sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["fleet-drift", "label-rich", "cold-churn"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace=0, extra=()):
    """One tiny run; returns (info, result) parsed from its last two lines."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.3", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


class WorkloadCases:
    """Checks each workload must pass; mixed into one TestCase per workload."""
    workload = None

    @classmethod
    def setUpClass(cls):
        cls.info, cls.result = run(cls.workload, 7)

    def check_metrics(self, result, specs):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        names = {m["name"]: m["unit"] for m in specs}
        self.assertEqual(set(result["metrics"]), set(names))
        for name, unit in names.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_present_with_units(self):
        self.check_metrics(self.result, SPEC["end_to_end"])
        self.assertTrue(self.result["correct"])
        self.assertGreater(self.result["attempted"], 0)
        self.assertEqual(self.result["failed"], 0)
        for metric in self.result["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_per_layer_metrics_present_with_units(self):
        info, result = run(self.workload, 7, trace=1)
        self.check_metrics(result, SPEC["per_layer"])
        self.assertTrue(result["correct"])
        self.assertEqual(info["input_digest"], self.info["input_digest"])
        self.assertGreaterEqual(result["metrics"]["trace.coverage"]["value"],
                                0.9)

    def test_same_seed_same_inputs_and_decisions(self):
        info, result = run(self.workload, 7)
        self.assertEqual(info["input_digest"], self.info["input_digest"])
        self.assertEqual(info["decision_digest"],
                         self.info["decision_digest"])
        self.assertTrue(info["digests_agree"])
        self.assertEqual(set(result["metrics"]), set(self.result["metrics"]))

    def test_other_seed_changes_inputs_not_metric_names(self):
        info, result = run(self.workload, 8)
        self.assertNotEqual(info["input_digest"], self.info["input_digest"])
        self.assertEqual(set(result["metrics"]), set(self.result["metrics"]))
        self.assertTrue(result["correct"])

    def test_planted_mismatch_raises_failed_share(self):
        info, result = run(self.workload, 7, extra=("--plant-mismatch", "5"))
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(info["failed_share"], 0)
        # Each pass replays row 5 once, so exactly one failure per pass.
        self.assertEqual(result["failed"], info["passes"])


class FleetDrift(WorkloadCases, unittest.TestCase):
    workload = "fleet-drift"


class LabelRich(WorkloadCases, unittest.TestCase):
    workload = "label-rich"


class ColdChurn(WorkloadCases, unittest.TestCase):
    workload = "cold-churn"


class LayerSeparation(unittest.TestCase):
    """The tiny workloads already separate the layers the way the full ones
    do: recovery only on fleet-drift, restores after round 1 only on
    cold-churn, coalescing on the template-seeded workloads only."""

    def test_layers_separate(self):
        layers = {w: run(w, 7, trace=1)[1]["metrics"] for w in WORKLOADS}
        value = lambda w, name: layers[w][name]["value"]
        self.assertGreater(value("fleet-drift", "pipeline.recover.row_share"),
                           0)
        self.assertEqual(value("label-rich", "pipeline.recover.row_share"), 0)
        self.assertEqual(value("cold-churn", "pipeline.recover.row_share"), 0)
        self.assertGreater(value("cold-churn", "core.restore.per_1k_rows"), 0)
        self.assertEqual(value("fleet-drift", "core.restore.per_1k_rows"), 0)
        self.assertEqual(value("label-rich", "core.restore.per_1k_rows"), 0)
        self.assertEqual(value("fleet-drift", "core.coalesce.row_share"), 0)
        self.assertGreaterEqual(
            value("label-rich", "core.coalesce.row_share"),
            value("cold-churn", "core.coalesce.row_share"))


class MissingSources(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fleet-drift", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
