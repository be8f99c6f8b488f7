#!/usr/bin/env python3
"""Pin the observability layer's serving-path cost under a budget.

Reads an edgedrift-bench-v1 JSON file produced by bench_manager_throughput
and compares the interleaved obs-overhead ablation pair:

    nsl-kdd/streams=8/drain=batch/obs=on
    nsl-kdd/streams=8/drain=batch/obs=off

The obs=on throughput must stay within --budget (default 3%) of obs=off.
Comparing the two in-binary, interleaved runs makes the check stable on
shared CI runners: both sides see the same machine, thermal state and
build, so the ratio isolates exactly the gated recording cost: latency
clock reads, histograms and the drift journal. The per-stream counters
count on both sides.

Exit code 0 when within budget, 1 when exceeded or records are missing.
"""
import argparse
import json
import sys

ON_NAME = "nsl-kdd/streams=8/drain=batch/obs=on"
OFF_NAME = "nsl-kdd/streams=8/drain=batch/obs=off"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="bench_manager_throughput --json output")
    parser.add_argument(
        "--budget",
        type=float,
        default=0.03,
        help="max allowed relative throughput loss with obs on (default 0.03)",
    )
    args = parser.parse_args()

    with open(args.bench_json) as f:
        data = json.load(f)
    if data.get("schema") != "edgedrift-bench-v1":
        print(f"unexpected schema: {data.get('schema')!r}", file=sys.stderr)
        return 1

    by_name = {r["name"]: r for r in data.get("results", [])}
    missing = [n for n in (ON_NAME, OFF_NAME) if n not in by_name]
    if missing:
        print(f"missing ablation records: {missing}", file=sys.stderr)
        return 1

    on = by_name[ON_NAME]["samples_per_second"]
    off = by_name[OFF_NAME]["samples_per_second"]
    if off <= 0.0:
        print(f"obs=off throughput is {off}; cannot compare", file=sys.stderr)
        return 1

    loss = 1.0 - on / off
    print(
        f"obs=off: {off / 1e3:.1f} ksamples/s, obs=on: {on / 1e3:.1f} "
        f"ksamples/s, loss: {loss * 100.0:+.2f}% (budget {args.budget * 100.0:.1f}%)"
    )
    if loss > args.budget:
        print("observability overhead exceeds budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
