"""Tests of the benchmark itself, at a tiny run length.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import gc
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

import run
from check import check_job, output_digest, work_units
from speed import SpeedProbe, calibration_loop
from streams import WORKLOADS, Stream, stream_digest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_stream(workload):
    assert stream_digest(workload, 7, 4) == stream_digest(workload, 7, 4)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_gives_different_stream(workload):
    assert stream_digest(workload, 7, 4) != stream_digest(workload, 8, 4)


def _ts(workload: str, cycles: int) -> list[str]:
    return [argv[argv.index("--t") + 1] for cycle in islice(Stream(workload, 3).cycles(), cycles)
            for argv in cycle if "--t" in argv]


@pytest.mark.parametrize("workload, cycles", [("param-sweep", 40), ("pairs-wide", 25)])
def test_never_repeats_a_parameter(workload, cycles):
    ts = _ts(workload, cycles)
    assert len(ts) == len(set(ts))


def test_dim_deep_groups_share_a_parameter_no_two_groups_do():
    ts = _ts("dim-deep", 30)
    runs = [t for i, t in enumerate(ts) if i == 0 or t != ts[i - 1]]
    assert len(ts) == 30 * 9
    assert len(runs) == 30 * 3  # two groups of four jobs and one separation job a cycle
    assert len(runs) == len(set(runs))


def test_calibration_loop_runs_without_garbage_collection():
    collections = []
    callback = lambda phase, info: collections.append(info["generation"])  # noqa: E731
    threshold = gc.get_threshold()
    gc.callbacks.append(callback)
    gc.set_threshold(1, 1, 1)
    try:
        calibration_loop()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(callback)
    assert collections == []
    assert gc.isenabled()


def _fraction_work(steps: int) -> None:
    x = Fraction(1)
    for i in range(1, steps):
        x = x * Fraction(i + 1, i) / Fraction(i + 1, i)


def test_a_known_slowdown_survives_the_contention_correction():
    """A job made 20% longer is about 20% slower after correction, whatever the host's load.

    Each slowed job runs right after its baseline, so both see the same load.
    """
    ratios = []
    with SpeedProbe() as probe:
        for _ in range(15):
            corrected = []
            for steps in (6000, 7200):
                start = time.perf_counter()
                _, spent, factors = probe.timed(lambda: _fraction_work(steps))
                wall = time.perf_counter() - start
                corrected.append((wall - spent[0]) / factors[0])
            ratios.append(corrected[1] / corrected[0])
    assert 1.1 < statistics.median(ratios) < 1.3


def _flip_digit(text: str, field: str) -> str:
    """Change the first digit of a numeric JSON field by one."""
    match = re.search(rf'"{field}": (\d)', text)
    digit = str((int(match.group(1)) + 1) % 10)
    return text[: match.start(1)] + digit + text[match.end(1):]


@pytest.fixture(scope="module")
def default_job():
    """The first lemma-4 job of the default param-sweep stream, with its reference digest."""
    cli = run.load_cli()
    reference = run.load_reference("param-sweep", run.DEFAULT_SEED)
    cycle = next(Stream("param-sweep", run.DEFAULT_SEED).cycles())
    index = next(i for i, argv in enumerate(cycle) if argv[:3] == ["lemmas", "--lemma", "4"])
    runner = run.Runner(cli, reference)
    code, text, _, _ = runner.run(cycle[index])
    return runner, index, cycle[index], code, text


def test_reference_job_passes(default_job):
    runner, index, argv, code, text = default_job
    assert runner.check(index, argv, code, text)
    assert output_digest(text) == runner.reference[index][1]


def test_corrupted_output_counts_as_failure(default_job):
    runner, index, argv, code, text = default_job
    failures = len(runner.failures)
    assert not runner.check(index, argv, code, _flip_digit(text, "points_checked"))
    assert len(runner.failures) == failures + 1
    assert runner.failures[-1]["problems"] == ["digest differs from the reference"]


def test_invariants_catch_a_flipped_count_without_reference(default_job):
    _, _, argv, code, text = default_job
    assert check_job(argv, code, text) == []
    assert check_job(argv, code, _flip_digit(text, "pairs_checked")) == ["lemmas: lemma 4 pair count"]
    assert check_job(argv, 3, text) == ["exit code 3"]


def test_work_units_of_a_separation_job():
    units = work_units(["separation", "--t", "1", "--n", "3", "--variant", "both"], "{}")
    assert units["words.compositions"] == 3 * 27
    assert units["separation.pairs_compared"] == 3 * 351


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_reports_every_metric(trace, section):
    done = _bench("--workload", "param-sweep", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "dim-deep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
