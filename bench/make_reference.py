#!/usr/bin/env python3
"""Record the reference output digests of the default-seed streams.

    python3 bench/make_reference.py

For every workload this runs the first cycles of the default-seed stream and
writes ``bench/reference/<workload>.json``: one ``[argv digest, output
digest]`` pair per job, in stream order.  The benchmark compares every
default-seed job it runs against these digests; jobs past the end of the
list get only the invariant checks.  Regenerate the files only when the
program's output is meant to change, and then all of them together, so
every reference comes from one commit.
"""

from __future__ import annotations

import json
import sys
from itertools import islice

import run
from check import argv_digest, check_job, output_digest
from streams import WORKLOADS, Stream

# Enough cycles to cover several times what one 30-second run reaches today.
CYCLES = {"dim-deep": 30, "pairs-wide": 25, "param-sweep": 250}


def main() -> int:
    runner = run.Runner(run.load_cli(), None)
    run.REFERENCE.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        jobs = []
        stream = Stream(workload, run.DEFAULT_SEED)
        for cycle in islice(stream.cycles(), CYCLES[workload]):
            for argv in cycle:
                code, text, _, _ = runner.run(argv)
                problems = check_job(argv, code, text)
                if problems:
                    print(f"{workload}: {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                jobs.append([argv_digest(argv), output_digest(text)])
        document = {"workload": workload, "seed": run.DEFAULT_SEED, "jobs": jobs}
        (run.REFERENCE / f"{workload}.json").write_text(json.dumps(document) + "\n")
        print(f"{workload}: {len(jobs)} job digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
