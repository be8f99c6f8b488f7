#!/usr/bin/env python3
"""Compare parent and change perfbench runs pair by pair.

    python3 tools/compare_perfbench.py --parent P1 P2 ... --change C1 C2 ...

Each file holds the stdout of one `python3 perfbench/run.py` run, of one
workload or of `--workload all`. Run i of --parent and run i of --change
form pair i: run them alternately (parent, change, parent, ...) on the same
seed, so that both runs of a pair see the same host conditions.

For every workload and every metric the runs report, one markdown table row
gives the parent's and the change's median with their quartiles, the ratio
of the medians (change / parent), the pairs the change won, and where the
change median lies against the parent's interquartile range. End-to-end
metrics carry their BENCHMARK.json bound: a change median worse than the
parent median by more than the bound reads WORSE, and a side whose
interquartile range exceeds the bound (relative to its median) reads
unresolved. Per-layer metrics (--trace 1 runs) get no verdict.

Correctness, per pair and workload: both runs are correct with a zero
failed_share and agreeing digests, and their decision digests are equal.

Exit code 0 when every check holds, 1 when an end-to-end median is WORSE or
a correctness check fails, 2 on unreadable or unpaired input.
"""
import argparse
import json
import os
import statistics
import sys

DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 os.pardir, "BENCHMARK.json")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class InputError(Exception):
    pass


def parse_run(path):
    """One run's stdout as {workload: {"metrics", "digest", "sound"}}."""
    provenance, result = [], None
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as err:
        raise InputError(f"{path}: {err}")
    for line in lines:
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "perfbench" in obj:
            provenance.append(obj["perfbench"])
        elif set(obj) == RESULT_KEYS:
            result = obj
    if result is None or not provenance:
        raise InputError(f"{path}: no perfbench provenance and result lines")
    runs = {}
    for p in provenance:
        runs[p["workload"]] = {
            "metrics": {},
            "digest": p.get("decision_digest"),
            "sound": bool(result["correct"]) and p.get("digests_agree") is True
            and p.get("failed_share") == 0,
        }
    # `--workload all` prefixes each metric with its workload; one workload's
    # run reports the names bare. Per-layer names hold dots of their own.
    for name, metric in result["metrics"].items():
        if len(runs) == 1:
            workload = next(iter(runs))
        else:
            workload, _, name = name.partition(".")
            if workload not in runs:
                raise InputError(f"{path}: metric of unknown workload {workload}")
        runs[workload]["metrics"][name] = metric["value"]
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def fmt(v):
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:.4g}"


def compare(parents, changes, benchmark):
    """Returns (table lines, correctness lines, failed)."""
    specs = {}
    for kind in ("end_to_end", "per_layer"):
        for m in benchmark.get(kind, []):
            specs[m["name"]] = dict(m, gated=kind == "end_to_end")
    order = list(specs)
    workloads = list(parents[0])
    for run in parents + changes:
        if list(run) != workloads:
            raise InputError("runs cover different workloads")
    rows = [
        "| workload | metric | parent median [q1, q3] | change median "
        "[q1, q3] | change/parent | change won | vs parent IQR | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    notes, failed = [], False
    n = len(parents)
    for w in workloads:
        same = sum(p[w]["digest"] == c[w]["digest"]
                   for p, c in zip(parents, changes))
        sound = all(r[w]["sound"] for r in parents + changes)
        notes.append(f"{w}: decision digests equal in {same} of {n} pairs; "
                     f"every run correct with zero failed_share: "
                     f"{'yes' if sound else 'NO'}")
        failed |= same != n or not sound
        names = [m for m in order
                 if all(m in r[w]["metrics"] for r in parents + changes)]
        for name in names:
            spec = specs[name]
            higher = spec["better"] == "higher"
            pv = [r[w]["metrics"][name] for r in parents]
            cv = [r[w]["metrics"][name] for r in changes]
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            wins = sum((c > p) if higher else (c < p) for p, c in zip(pv, cv))
            ratio = cmed / pmed if pmed else float("nan")
            gain = cmed - pmed if higher else pmed - cmed
            iqr = pq3 - pq1
            where = "better" if gain > iqr else "worse" if -gain > iqr else \
                "inside"
            verdict = ""
            if spec["gated"]:
                bound = spec["bound"]
                worse = (cmed < pmed * (1 - bound)) if higher else \
                    (cmed > pmed * (1 + bound))
                spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0,
                             (cq3 - cq1) / abs(cmed) if cmed else 0.0)
                verdict = "WORSE" if worse else \
                    "unresolved" if spread > bound else "ok"
                failed |= worse
            rows.append(
                f"| {w} | {name} | {fmt(pmed)} [{fmt(pq1)}, {fmt(pq3)}] | "
                f"{fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}] | {ratio:.3f} | "
                f"{wins}/{n} | {where} | {verdict} |")
    return rows, notes, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True,
                        help="stdout files of the parent's runs, in pair order")
    parser.add_argument("--change", nargs="+", required=True,
                        help="stdout files of the change's runs, in pair order")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json with the metrics and bounds")
    args = parser.parse_args()
    try:
        if len(args.parent) != len(args.change):
            raise InputError(f"{len(args.parent)} parent runs but "
                             f"{len(args.change)} change runs")
        with open(args.benchmark) as f:
            benchmark = json.load(f)
        parents = [parse_run(p) for p in args.parent]
        changes = [parse_run(c) for c in args.change]
        rows, notes, failed = compare(parents, changes, benchmark)
    except (InputError, OSError, ValueError, KeyError) as err:
        print(f"compare_perfbench: {err}", file=sys.stderr)
        return 2
    print("\n".join(rows))
    print()
    print("\n".join(notes))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
