#!/usr/bin/env python3
"""Tests of tools/compare_perfbench.py on the fixtures in
tools/testdata/compare_perfbench/: three label-rich pairs, where the change
is better on every end-to-end metric but setup_s, and one pair of
`--workload all` runs. Also checks that the committed perfbench record,
BENCH_perfbench.txt at the repo root, is a sound `--workload all` run that
the comparator reads.

    python3 tools/test_compare_perfbench.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(HERE, "compare_perfbench.py")
DATA = os.path.join(HERE, "testdata", "compare_perfbench")
RECORD = os.path.join(HERE, os.pardir, "BENCH_perfbench.txt")
WORKLOADS = {"fleet-drift", "label-rich", "cold-churn"}

sys.path.insert(0, HERE)
import compare_perfbench  # noqa: E402


def fixture(name):
    return os.path.join(DATA, name)


def label_rich(side):
    return [fixture(f"label-rich-{side}-{i}.txt") for i in (1, 2, 3)]


def run(parent, change):
    proc = subprocess.run([sys.executable, TOOL, "--parent", *parent,
                           "--change", *change], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def row(out, workload, metric):
    for line in out.splitlines():
        if line.startswith(f"| {workload} | {metric} |"):
            return [cell.strip() for cell in line.strip("|").split("|")]
    raise AssertionError(f"no row for {workload} {metric} in:\n{out}")


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def edited(self, name, edit):
        """A copy of fixture `name` whose JSON lines went through `edit`."""
        lines = []
        with open(fixture(name)) as f:
            for line in f.read().splitlines():
                if line.startswith("{"):
                    obj = json.loads(line)
                    edit(obj)
                    line = json.dumps(obj)
                lines.append(line)
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        return path

    def test_better_change_passes_with_medians_quartiles_and_wins(self):
        code, out, err = run(label_rich("parent"), label_rich("change"))
        self.assertEqual(code, 0, err + out)
        cells = row(out, "label-rich", "throughput")
        self.assertEqual(cells[2], "300,000 [297,500, 305,000]")
        self.assertEqual(cells[3], "480,000 [475,000, 485,000]")
        self.assertEqual(cells[4:], ["1.600", "3/3", "better", "ok"])
        # setup_s is 2% worse: outside the parent's quartiles, inside 0.25.
        self.assertEqual(row(out, "label-rich", "setup_s")[5:],
                         ["0/3", "worse", "ok"])
        self.assertIn("decision digests equal in 3 of 3 pairs", out)

    def test_change_worse_than_a_bound_fails(self):
        code, out, _ = run(label_rich("change"), label_rich("parent"))
        self.assertEqual(code, 1)
        self.assertEqual(row(out, "label-rich", "throughput")[-1], "WORSE")
        self.assertEqual(row(out, "label-rich", "peak_rss_mb")[-1], "WORSE")

    def test_wide_spread_reads_unresolved(self):
        def widen(obj):
            if "metrics" in obj:
                obj["metrics"]["throughput"]["value"] *= 3
        parent = label_rich("parent")
        parent[0] = self.edited("label-rich-parent-1.txt", widen)
        code, out, err = run(parent, label_rich("change"))
        self.assertEqual(code, 0, err + out)
        self.assertEqual(row(out, "label-rich", "throughput")[-1],
                         "unresolved")

    def test_all_workloads_run_is_split_by_workload(self):
        code, out, err = run([fixture("all-parent-1.txt")],
                             [fixture("all-change-1.txt")])
        self.assertEqual(code, 0, err + out)
        for workload in ("fleet-drift", "label-rich", "cold-churn"):
            self.assertEqual(row(out, workload, "throughput")[5], "1/1"
                             if workload != "fleet-drift" else "0/1")
            self.assertIn(f"{workload}: decision digests equal in 1 of 1",
                          out)

    def test_unequal_decision_digests_fail(self):
        def other_digest(obj):
            if "perfbench" in obj:
                obj["perfbench"]["decision_digest"] = "0000000000000000"
        change = label_rich("change")
        change[1] = self.edited("label-rich-change-2.txt", other_digest)
        code, out, _ = run(label_rich("parent"), change)
        self.assertEqual(code, 1)
        self.assertIn("decision digests equal in 2 of 3 pairs", out)

    def test_failed_rows_fail(self):
        def failed(obj):
            if "perfbench" in obj:
                obj["perfbench"]["failed_share"] = 0.01
        change = label_rich("change")
        change[2] = self.edited("label-rich-change-3.txt", failed)
        code, out, _ = run(label_rich("parent"), change)
        self.assertEqual(code, 1)
        self.assertIn("zero failed_share: NO", out)

    def test_unpaired_or_unreadable_runs_are_rejected(self):
        code, _, err = run(label_rich("parent"), label_rich("change")[:2])
        self.assertEqual(code, 2)
        self.assertIn("3 parent runs but 2 change runs", err)
        empty = os.path.join(self.tmp.name, "empty.txt")
        open(empty, "w").close()
        code, _, err = run([empty], [fixture("label-rich-change-1.txt")])
        self.assertEqual(code, 2)
        self.assertIn("no perfbench provenance", err)
        code, _, err = run([fixture("all-parent-1.txt")],
                           [fixture("label-rich-change-1.txt")])
        self.assertEqual(code, 2)
        self.assertIn("different workloads", err)


class RecordTest(unittest.TestCase):
    """The committed record: the stdout of one `--workload all` run."""

    def test_record_is_a_sound_run_of_every_workload(self):
        runs = compare_perfbench.parse_run(RECORD)
        self.assertEqual(set(runs), WORKLOADS)
        for workload, result in runs.items():
            self.assertTrue(result["sound"], workload)
            self.assertIn("throughput", result["metrics"], workload)
        provenance = []
        with open(RECORD) as f:
            for line in f.read().splitlines():
                if line.startswith("{"):
                    obj = json.loads(line)
                    if "perfbench" in obj:
                        provenance.append(obj["perfbench"])
                    else:
                        self.assertIs(obj["correct"], True)
                        self.assertEqual(obj["failed"], 0)
        self.assertEqual({p["workload"] for p in provenance}, WORKLOADS)
        for p in provenance:
            self.assertEqual(p["failed_share"], 0, p["workload"])
            for key in ("source", "nproc", "cpu", "simd", "build_flags"):
                self.assertTrue(p.get(key), f"{p['workload']} lacks {key}")

    def test_comparator_reads_the_record_as_a_parent(self):
        code, out, err = run([RECORD], [RECORD])
        self.assertEqual(code, 0, err + out)
        for workload in WORKLOADS:
            self.assertIn(f"{workload}: decision digests equal in 1 of 1",
                          out)


if __name__ == "__main__":
    unittest.main()
