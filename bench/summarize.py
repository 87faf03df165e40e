#!/usr/bin/env python3
"""Median, quartiles and spread of each metric over the runs kept in bench/out/.

    python3 bench/summarize.py [--trace 0|1] [OUT_DIR]

Spread is (Q3 - Q1) / median over the runs of one workload, with quartiles
as ``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", default=Path(__file__).resolve().parent / "out", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    runs = defaultdict(list)
    for path in sorted(args.out.glob(f"*-seed*-trace{args.trace}.json")):
        details = json.loads(path.read_text())
        runs[details["workload"]].append(details)
    for workload, group in sorted(runs.items()):
        seeds = ",".join(str(d["seed"]) for d in group)
        print(f"{workload}: {len(group)} runs (seeds {seeds}), "
              f"{sum(d['failed'] for d in group)} failed of {sum(d['attempted'] for d in group)} jobs")
        for name in group[0]["metrics"]:
            values = [d["metrics"][name]["value"] for d in group]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:28s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}")


if __name__ == "__main__":
    main()
