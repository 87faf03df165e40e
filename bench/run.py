#!/usr/bin/env python3
"""The ifslab benchmark: seeded streams of real CLI jobs, one client, closed loop.

Run from the repository root:

    python3 bench/run.py --workload dim-deep --seed 0 --seconds 30 --trace 0

Each job is one ``ifslab.cli.main(argv)`` call made in this process, with its
JSON written to an in-memory buffer; the next job starts only after the
previous one returns (one thread, one client).  Jobs come in cycles of fixed
kinds (see ``streams.py``), and a run keeps starting cycles until
``--seconds`` have passed and it has made ``MIN_CYCLES``, so every run ends
on a cycle boundary.  Every
job's output is checked (``check.py``); with the default seed each output is
also compared with a reference digest recorded at the commit that defined
the benchmark.

``--trace 0`` reports the end-to-end metrics.  Their times are corrected for
contention from other tenants of the host (``speed.py``); the raw times are
printed beside them and kept in ``bench/out/``.  ``--trace 1`` runs each cycle
twice, untraced and then traced (``tracing.py``), and reports per-layer work
and self time per traced job, plus the tracing overhead.  In the traced half
each job's traced work counts are compared with the closed form from its
argv; a difference is reported (a change of algorithm may mean to make one)
but does not fail the job.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (machine,
tail percentile, failures, work units) go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 0
SETUP_REPEATS = 15
TAIL_BEYOND = 10  # the tail percentile leaves at least this many jobs above it
WARMUP = ["lemmas", "--lemma", "4", "--k", "1", "--t", "1"]

# Runs in a fresh interpreter: times the import and parser build, then times
# the calibration loop on the same core for the contention correction.
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import ifslab.cli\n"
    "ifslab.cli.build_parser()\n"
    "elapsed = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import statistics\n"
    "from speed import calibration_loop\n"
    "loops = [calibration_loop()[0] for _ in range(40)][10:]\n"
    "print(elapsed, statistics.median(loops))\n"
)

sys.path.insert(0, str(BENCH))
from check import argv_digest, check_job, work_units  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from streams import MIN_CYCLES, WORKLOADS, Stream  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; exits with code 2 and prints no result."""


def load_cli():
    """Import ``ifslab.cli`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "ifslab" / "cli.py").is_file():
        raise BenchError(f"no ifslab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from ifslab import cli

    if Path(cli.__file__).resolve().parent != SRC / "ifslab":
        raise BenchError(f"imported ifslab from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Seconds to import ifslab and build its parser in fresh interpreters: (raw, corrected)."""
    raw, corrected = [], []
    for attempt in range(repeats + 1):  # the first run only warms the file cache
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=60, cwd=ROOT, check=False,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up run failed: {done.stderr.strip()}")
        elapsed, loop = map(float, done.stdout.split())
        if attempt:
            raw.append(elapsed)
            corrected.append(elapsed / (loop / REFERENCE_S))
    return raw, corrected


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.machine(),
    }


class Runner:
    """Runs and checks jobs, keeping per-job timings and failures."""

    def __init__(self, cli, reference: list | None) -> None:
        self.cli = cli
        self.reference = reference
        self.attempted = 0
        self.reference_checked = 0
        self.failures: list[dict] = []
        self.units: Counter = Counter()  # closed-form work units of the jobs run

    def run(self, argv: list[str]) -> tuple[int, str, float, float]:
        """One closed-loop job: (exit code, output or error text, wall s, cpu s)."""
        out, err = io.StringIO(), io.StringIO()
        wall, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash counts as a failed job, the run goes on
                traceback.print_exc(file=err)
                code = -1
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        return code, out.getvalue() if code == 0 else err.getvalue(), wall, cpu

    def check(self, index: int, argv: list[str], code: int, text: str) -> bool:
        self.attempted += 1
        expected = None
        problems = []
        if self.reference is not None and index < len(self.reference):
            ref_argv, expected = self.reference[index]
            self.reference_checked += 1
            if ref_argv != argv_digest(argv):
                problems.append("argv differs from the reference stream")
        problems += check_job(argv, code, text, expected)
        if code != 0 and text.strip():
            problems.append(text.strip().splitlines()[-1])  # the error message
        if not problems:
            self.units.update(work_units(argv, text))
        if problems:
            self.failures.append({"index": index, "argv": argv, "problems": problems})
        return not problems


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(walls)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def run_untraced(runner: Runner, stream: Stream, seconds: float) -> dict:
    """Jobs with contention-corrected timings (``speed.py``); raw timings are kept beside them."""
    walls, cpus, raw_walls, raw_cpus, wall_factors = [], [], [], [], []
    index = 0
    deadline = time.perf_counter() + seconds
    with SpeedProbe() as probe:
        for cycles, cycle in enumerate(stream.cycles(), 1):
            for argv in cycle:
                (code, text, wall, cpu), spent, factors = probe.timed(lambda: runner.run(argv))
                runner.check(index, argv, code, text)
                raw_walls.append(wall - spent[0])
                raw_cpus.append(cpu - spent[1])
                walls.append(raw_walls[-1] / factors[0])
                cpus.append(raw_cpus[-1] / factors[1])
                wall_factors.append(factors[0])
                index += 1
            if cycles >= MIN_CYCLES[stream.workload] and time.perf_counter() >= deadline:
                break
    value, percentile = tail(walls)
    return {
        "cycles": cycles,
        "jobs": len(walls),
        "tail_percentile": percentile,
        "contention_factor_median": statistics.median(wall_factors),
        "raw": {
            "jobs_per_s": len(raw_walls) / sum(raw_walls),
            "job_p50_ms": statistics.median(raw_walls) * 1000.0,
            "job_tail_ms": tail(raw_walls)[0] * 1000.0,
            "cpu_ms_per_job": sum(raw_cpus) / len(raw_cpus) * 1000.0,
        },
        "metrics": {
            "jobs_per_s": (len(walls) / sum(walls), "1/s"),
            "job_p50_ms": (statistics.median(walls) * 1000.0, "ms"),
            "job_tail_ms": (value * 1000.0, "ms"),
            "cpu_ms_per_job": (sum(cpus) / len(cpus) * 1000.0, "ms"),
        },
    }


def run_traced(runner: Runner, stream: Stream, seconds: float) -> dict:
    from tracing import COUNTERS, LAYERS, Tracer, job_units

    tracer = Tracer()
    untraced = traced = 0.0
    jobs = output_bytes = units_checked = 0
    mismatches = []  # jobs whose traced work counts differ from the closed form
    index = 0
    deadline = time.perf_counter() + seconds
    for cycles, cycle in enumerate(stream.cycles(), 1):
        for offset, argv in enumerate(cycle):
            code, text, wall, _ = runner.run(argv)
            runner.check(index + offset, argv, code, text)
            untraced += wall
        tracer.install()
        try:
            for offset, argv in enumerate(cycle):
                tracer.job = index + offset
                before = tracer.snapshot()
                code, text, wall, _ = runner.run(argv)
                after = tracer.snapshot()
                traced += wall
                jobs += 1
                output_bytes += len(text)
                if code == 0:
                    units_checked += 1
                    measured, expected = job_units(before, after), work_units(argv, text)
                    differ = {name: [measured[name], expected[name]] for name in expected
                              if measured[name] != expected[name]}
                    if differ:
                        mismatches.append({"index": index + offset, "argv": argv, "traced_vs_closed_form": differ})
                runner.check(index + offset, argv, code, text)
        finally:
            tracer.uninstall()
        index += len(cycle)
        if cycles >= MIN_CYCLES[stream.workload] and time.perf_counter() >= deadline:
            break
    totals = tracer.snapshot()
    metrics = {}
    for name in COUNTERS:
        metrics[name] = (totals[name] / jobs, "count/job")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (totals[f"{layer}.self_ns"] / jobs / 1e9, "s/job")
    metrics["moebius.matmul_s"] = (totals["moebius.matmul_ns"] / jobs / 1e9, "s/job")
    metrics["cli.output_bytes"] = (output_bytes / jobs, "B/job")
    metrics["trace.overhead"] = (untraced / traced, "ratio")
    return {"cycles": cycles, "jobs": jobs, "units_checked": units_checked, "units_mismatched": mismatches,
            "metrics": metrics, "spans": tracer.spans}


def load_reference(workload: str, seed: int) -> list | None:
    if seed != DEFAULT_SEED:
        return None
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing reference digests {path}")
    return json.loads(path.read_text())["jobs"]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        cli = load_cli()
        reference = load_reference(args.workload, args.seed)
        setup_raw, setup = measure_setup(SETUP_REPEATS) if not args.trace else ([], [])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    runner = Runner(cli, reference)
    runner.run(WARMUP)
    stream = Stream(args.workload, args.seed)
    started = time.perf_counter()
    if args.trace:
        report = run_traced(runner, stream, args.seconds)
    else:
        report = run_untraced(runner, stream, args.seconds)
        report["metrics"]["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        report["metrics"]["setup_s"] = (statistics.median(setup), "s")
    elapsed = time.perf_counter() - started

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = report.pop("spans", None)
    if spans is not None:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(dict(zip(("name", "start_ns", "end_ns", "parent", "job"), span))) + "\n")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "elapsed_s": elapsed,
        "cycles": report["cycles"],
        "jobs": report["jobs"],
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "fail_ratio": len(runner.failures) / runner.attempted,
        "tail_percentile": report.get("tail_percentile"),
        "setup_runs_s": setup,
        "setup_runs_raw_s": setup_raw,
        "contention_factor_median": report.get("contention_factor_median"),
        "raw_metrics": report.get("raw"),
        "reference_checked": runner.reference_checked,
        "units_checked": report.get("units_checked"),
        "units_mismatched": report.get("units_mismatched"),
        "work_units": dict(runner.units),
        "failures": runner.failures[:20],
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n")

    info = details["machine"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {report['jobs']} jobs in "
          f"{report['cycles']} cycles, {elapsed:.1f} s; Python {info['python']}, nproc {info['nproc']}, {info['platform']}")
    print(f"fail_ratio {details['fail_ratio']:.4f} ({len(runner.failures)}/{runner.attempted}); "
          f"reference digests checked for {details['reference_checked']} jobs")
    if details["tail_percentile"] is not None:
        print(f"job_tail_ms is p{details['tail_percentile']:.1f} of {report['jobs']} jobs; times are corrected "
              f"for host contention (median factor {details['contention_factor_median']:.3f}); raw: "
              + ", ".join(f"{name} {value:.6g}" for name, value in report["raw"].items()))
    if details["units_checked"] is not None:
        print(f"traced work units compared with the closed form for {details['units_checked']} jobs, "
              f"{len(details['units_mismatched'])} differ; "
              f"trace.overhead {report['metrics']['trace.overhead'][0]:.3f}")
        for mismatch in details["units_mismatched"][:5]:
            print(f"work units differ in job {mismatch['index']}: {' '.join(mismatch['argv'])}: "
                  f"[traced, closed form] {mismatch['traced_vs_closed_form']}")
    for failure in runner.failures[:5]:
        print(f"FAILED job {failure['index']}: {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
