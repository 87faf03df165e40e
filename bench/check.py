"""Per-job output checks and closed-form work units.

``check_job`` returns the list of problems found in one job's output (empty
when the job is correct).  It checks invariants that hold for every seed and,
when a reference digest is known for the job, that the output is the same
one the reference commit produced.  ``work_units`` predicts, from a job's
argv, the counts the traced run measures, so the two can be cross-checked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from fractions import Fraction

# Counters shared by the closed form (here) and the traced run (tracing.py).
WORK_UNITS = (
    "words.compositions",
    "words.cylinders",
    "pressure.norm_words",
    "pressure.distortion_words",
    "separation.pairs_compared",
    "separation.words_searched",
    "geometry.pairs_checked",
    "geometry.grid_points",
)


def output_digest(text: str) -> str:
    """SHA-256 of a JSON document with its ``wall_time_ms`` field removed."""
    document = json.loads(text)
    document.pop("wall_time_ms", None)
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()[:16]


def argv_digest(argv: list[str]) -> str:
    return hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:16]


def _options(argv: list[str]) -> argparse.Namespace:
    """The flags of one generated job (every option in the streams takes a value)."""
    values = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        values[flag.lstrip("-").replace("-", "_")] = value
    return argparse.Namespace(command=argv[0], **values)


def _levels(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _tree(m: int, depth: int) -> int:
    """Words of length 1..depth over m symbols."""
    return sum(m**k for k in range(1, depth + 1))


def _pairs(count: int) -> int:
    return count * (count - 1) // 2


def _common_grid_size(search: str) -> tuple[int, int]:
    level, lo, hi, res = search.split(":")
    lo, hi, res = Fraction(lo), Fraction(hi), Fraction(res)
    steps = -((lo - hi) // res)  # ceil((hi - lo) / res)
    return int(level), 1 + steps


# -- invariants ---------------------------------------------------------------


def _check_dim(opts, result, problems):
    rows = result["levels"]
    levels = _levels(opts.levels)
    if [row["level"] for row in rows] != levels:
        problems.append("dim: levels differ from the request")
    d = [row["d_n"] for row in rows]
    if any(later > earlier for earlier, later in zip(d, d[1:])):
        problems.append(f"dim: d_n increases with n: {d}")
    for row in rows:
        if not row["bracket_lo"] <= row["bracket_hi"] == row["d_n"]:
            problems.append(f"dim: bracket at level {row['level']} is not [lo <= d_n]")
    if getattr(opts, "subsystem", None):
        sub = result["subsystem"]
        level = int(opts.subsystem.split(":")[1])
        if not (sub["lower_bound_holds"] and sub["upper_bound_holds"]):
            problems.append("dim: subsystem bound fails")
        if sub["subsystem_size"] != 3**level - 2**level:
            problems.append("dim: subsystem size is not 3^N - 2^N")
        if (sub["d_level"]["word_count"], sub["d_doubled"]["word_count"]) != (3**level, 9**level):
            problems.append("dim: subsystem word counts are not 3^N and 3^2N")


def _check_pressure(opts, result, problems):
    rows = result["pressure"]
    if [row["level"] for row in rows] != _levels(opts.levels):
        problems.append("pressure: levels differ from the request")
    if any(row["s"] != float(opts.s) or not isinstance(row["value"], float) for row in rows):
        problems.append("pressure: exponent or value malformed")


def _check_separation(opts, result, problems):
    n = int(opts.n)
    expected = _pairs(3**n)
    keys = {"sesc": ("sesc",), "diophantine": ("diophantine", "diophantine_strong")}.get(
        opts.variant, ("sesc", "diophantine", "diophantine_strong")
    )
    for key in keys:
        report = result[key]
        if report["pairs_compared"] != expected:
            problems.append(f"separation: {key} compared {report['pairs_compared']} pairs, not {expected}")
        if report["level"] != n or Fraction(report["delta"]) < 0:
            problems.append(f"separation: {key} level or delta malformed")


def _check_freeness(opts, result, problems):
    searched = _tree(3, int(opts.depth))
    if not (result["conjugacy_ok"] and result["residues_ok"]):
        problems.append("freeness: conjugacy or residue check failed")
    if result["residues_checked"] != int(opts.samples):
        problems.append("freeness: wrong number of residue samples")
    for key in ("overlaps", "relations"):
        if result[key]["pairs"]:
            problems.append(f"freeness: {key} found pairs {result[key]['pairs'][:3]}")
        if result[key]["words_searched"] != searched:
            problems.append(f"freeness: {key} searched {result[key]['words_searched']} words, not {searched}")


def _check_lemmas(opts, result, problems):
    if opts.lemma == "all":
        k = int(opts.k)
        chain = 2**k
        if result["lemma2"]["pairs_checked"] != chain - 1 + _pairs(chain):
            problems.append("lemmas: lemma 2 pair count")
        if not result["lemma2"]["ok"]:
            problems.append("lemmas: lemma 2 fails")
    if opts.lemma in ("4", "all"):
        k, t = int(opts.k), Fraction(opts.t)
        lemma4 = result["lemma4"]
        if lemma4["pairs_checked"] != 2 ** (2 * k + 1):
            problems.append("lemmas: lemma 4 pair count")
        if Fraction(result["lemma4_extremal_threshold"]) != Fraction(3) / (1 - Fraction(1, 4**k)):
            problems.append("lemmas: lemma 4 threshold")
        if lemma4["ok"] != (t < Fraction(result["lemma4_extremal_threshold"])):
            problems.append("lemmas: lemma 4 verdict disagrees with its extremal threshold")
    if opts.lemma == "3":
        witness = result["lemma3"]
        if (witness["v"], witness["w"]) != (opts.v, opts.w):
            problems.append("lemmas: lemma 3 pair")
        if witness["found"] and not Fraction(witness["best_gap"]) > 0:
            problems.append("lemmas: lemma 3 witness does not split the pair")
    if opts.lemma == "cert":
        cert = result["certificate"]
        grid = opts.grid.split(",")
        if len(cert["grid"]) != len(grid):
            problems.append("lemmas: certificate grid size")
        if len(cert["witnesses"]) + len(cert["missing"]) != _pairs(2 ** int(opts.n) - 1):
            problems.append("lemmas: certificate pair count")
        if cert["complete"] != (not cert["missing"]):
            problems.append("lemmas: certificate completeness flag")


def _check_attractor(opts, result, problems):
    box = result["box_counting"]
    if len(box["counts"]) != len(_levels(opts.levels)) or min(box["counts"]) < 1:
        problems.append("attractor: box counts malformed")
    if getattr(opts, "search_common", None):
        _, points = _common_grid_size(opts.search_common)
        search = result["common_disjoint"]
        if len(search["grid"]) != points:
            problems.append("attractor: common-disjoint grid size")
        if search["found"] != (search["window"] is not None):
            problems.append("attractor: common-disjoint window flag")


def _check_measure(opts, result, problems):
    n = int(opts.n)
    measure = result["measure"]
    if (measure["cylinder_count"], measure["zero_cylinder_count"]) != (3**n, 2**n):
        problems.append("measure: cylinder counts are not 3^n and 2^n")
    if opts.s == "auto" and measure["exponent"] != result["exponent"]:
        problems.append("measure: exponent mismatch")


CHECKS = {
    "dim": _check_dim,
    "pressure": _check_pressure,
    "separation": _check_separation,
    "freeness": _check_freeness,
    "lemmas": _check_lemmas,
    "attractor": _check_attractor,
    "measure": _check_measure,
}


def check_job(argv: list[str], code: int, text: str, reference: str | None = None) -> list[str]:
    """Problems with one job's exit code and output; ``reference`` is its expected digest."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        document = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    problems: list[str] = []
    opts = _options(argv)
    if document.get("schema") != "ifslab/1" or document.get("command") != opts.command:
        problems.append("envelope schema or command")
    try:
        CHECKS[opts.command](opts, document["result"], problems)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed result: {exc!r}")
    if reference is not None and output_digest(text) != reference:
        problems.append("digest differs from the reference")
    return problems


# -- closed-form work units -----------------------------------------------------


def work_units(argv: list[str], text: str) -> dict[str, int]:
    """Counts a job must do, from its argv (and, for lemma 3, the number of probes it reports)."""
    opts = _options(argv)
    units = dict.fromkeys(WORK_UNITS, 0)
    if opts.command == "dim":
        for n in _levels(opts.levels):
            units["pressure.norm_words"] += 2 * 3**n  # d_n, then again inside the bracket
            units["pressure.distortion_words"] += _tree(3, n)
        if getattr(opts, "subsystem", None):
            level = int(opts.subsystem.split(":")[1])
            maps = 3**level - 2**level
            units["pressure.norm_words"] += 3**level + 9**level + 2 * maps
            units["pressure.distortion_words"] += maps
    elif opts.command == "measure":
        if opts.s == "auto":
            units["pressure.norm_words"] += 3 ** int(opts.n)
    elif opts.command == "separation":
        words = 3 ** int(opts.n)
        metrics = {"sesc": 1, "diophantine": 2}.get(opts.variant, 3)
        units["words.compositions"] += metrics * words
        units["separation.pairs_compared"] += metrics * _pairs(words)
    elif opts.command == "freeness":
        searched = _tree(3, int(opts.depth))
        units["words.compositions"] += 2 * searched
        units["separation.words_searched"] += 2 * searched
    elif opts.command == "lemmas":
        if opts.lemma == "all":
            k = int(opts.k)
            units["words.cylinders"] += 3 * 2**k + 6 * 2**k  # lemma 2 maps and cylinders, lemma 4 cylinders
            units["geometry.pairs_checked"] += 2**k - 1 + _pairs(2**k) + 2 ** (2 * k + 1)
        elif opts.lemma == "4":
            k = int(opts.k)
            units["words.cylinders"] += 6 * 2**k
            units["geometry.pairs_checked"] += 2 ** (2 * k + 1)
        elif opts.lemma == "3":
            witness = json.loads(text)["result"]["lemma3"]
            gaps = witness["checked"] + (1 if witness["found"] else 0)
            units["words.cylinders"] += 4 * gaps  # two cylinders a gap, each resolving one map
        elif opts.lemma == "cert":
            prefixes = 2 ** int(opts.n) - 1
            grid = len(opts.grid.split(","))
            units["words.cylinders"] += 2 * prefixes * grid
            units["geometry.pairs_checked"] += _pairs(prefixes)
            units["geometry.grid_points"] += grid
    elif opts.command == "attractor":
        if getattr(opts, "search_common", None):
            level, points = _common_grid_size(opts.search_common)
            prefixes = 2**level - 1
            units["words.cylinders"] += 2 * prefixes * points
            units["geometry.pairs_checked"] += _pairs(prefixes) * points
            units["geometry.grid_points"] += points
    return units
