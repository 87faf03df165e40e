"""Command-line front door: one subcommand per analysis, machine-readable output.

Every run emits a single JSON document (or CSV where plot data is the point)
embedding the schema tag, tool version, fully resolved configuration and
wall time.  Rational inputs are accepted as "p/q" or decimal strings and
parsed exactly, never through binary floats.

Exit codes: 0 success, 2 usage/configuration error, 3 property violation
(a certified internal invariant failed; the offending invariant is named).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import io
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .moebius import as_fraction, make_family
from .words import SubsystemSpec, SubsystemVariant, build_subsystem, check_level, max_level
from . import geometry, pressure, separation

SCHEMA = "ifslab/1"


class UsageError(ValueError, argparse.ArgumentTypeError):
    """Configuration problem that should exit with code 2 (argparse reports it for typed flags)."""


class PropertyViolation(RuntimeError):
    """A certified invariant failed; exits with code 3."""


def _parse_fraction(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _positive_fraction(text: str) -> Fraction:
    value = _parse_fraction(text)
    if value <= 0:
        raise UsageError(f"parameter must be positive, got {text!r}")
    return value


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise UsageError(f"not a comma-separated integer list: {text!r}") from exc


def _parse_levels(text: str) -> list[int]:
    """The --levels of dim and pressure, every entry checked (1..cap) before the first walk."""
    if not (levels := _parse_int_list(text)):
        raise UsageError(f"--levels needs at least one level, got {text!r}")
    if min(levels) < 1:
        raise UsageError("level must be >= 1")
    check_level(max(levels))
    return levels


def _parse_fraction_list(text: str) -> list[Fraction]:
    return [_parse_fraction(part) for part in text.split(",") if part]


def _jsonable(value):
    """Recursively convert report objects to JSON-safe structures."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return repr(value)
    return value


def _emit(args: argparse.Namespace, config: dict, result: dict, csv_rows: list[dict] | None, started: float) -> None:
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(csv_rows[0].keys()))
        writer.writeheader()
        for row in csv_rows:
            writer.writerow({k: _jsonable(v) for k, v in row.items()})
        text = buffer.getvalue()
    else:
        document = {
            "schema": SCHEMA,
            "tool_version": __version__,
            "command": args.command,
            "config": _jsonable(config),
            "result": _jsonable(result),
            "wall_time_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        text = json.dumps(document, indent=2, sort_keys=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _config(args: argparse.Namespace) -> dict:
    """The config echo: the subcommand's own flags in declaration order, then each run
    setting (its flag, or its fixed value where the subcommand has none) and the cap."""
    skip = ("command", "handler", *_RUN_SETTINGS)
    own = {name: value for name, value in vars(args).items() if name not in skip}
    settings = {name: getattr(args, name, fixed) for name, fixed in _RUN_SETTINGS.items()}
    return {**own, **settings, "max_level": max_level()}


def _parse_subsystem(text: str, t: Fraction) -> SubsystemSpec:
    try:
        kind, raw_level = text.split(":")
        variant = SubsystemVariant(kind)
        level = int(raw_level)
    except ValueError as exc:
        raise UsageError(f"subsystem spec must look like full:4 or tilde:3, got {text!r}") from exc
    return SubsystemSpec(t, level, variant)


def cmd_dim(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    levels = _parse_levels(args.levels)
    spec = _parse_subsystem(args.subsystem, args.t) if args.subsystem else None
    if spec:
        if spec.variant is not SubsystemVariant.FULL:
            raise UsageError("dimension reports cover full:<N> subsystems")
        check_level(2 * spec.level)  # the subsystem report also solves level 2N
    family = make_family(args.t)
    rows = [
        {
            "level": level_dim.level,
            "d_n": level_dim.value,
            "residual": level_dim.residual,
            "bracket_lo": bracket.lower,
            "bracket_hi": bracket.upper,
            "C_emp": str(bracket.distortion),
            "gamma2": str(family.gamma_upper),
        }
        for level_dim, bracket in pressure.level_report(family, levels, args.tol)
    ]
    result: dict = {"levels": rows}
    if spec:
        report = pressure.subsystem_dimension_report(args.t, spec.level, args.tol)
        result["subsystem"] = report
        if report.mass_premise_holds and not (report.lower_bound_holds and report.upper_bound_holds):
            raise PropertyViolation(
                "subsystem level-1 dimension left the certified interval "
                f"[d_N - 1/(2N), d_N] at N={spec.level}"
            )
    return result, rows


def cmd_pressure(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    estimates = pressure.pressure_estimate(make_family(args.t), _parse_levels(args.levels), float(args.s))
    rows = [{"level": e.level, "s": e.exponent, "value": e.value} for e in estimates]
    return {"pressure": rows}, rows


def cmd_separation(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    result: dict = {}
    if args.variant in ("sesc", "both"):
        probes = _parse_fraction_list(args.probes) if args.probes is not None else [separation.fixed_point_probe(args.t)]
        result["sesc"] = separation.sesc_metric(args.t, args.n, probes)
    if args.variant in ("diophantine", "both"):
        result["diophantine"] = plain = separation.diophantine_metric(args.t, args.n, strong=False)
        result["diophantine_strong"] = plain.strong_form()
    return result, None


def cmd_freeness(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    separation.check_depth(args.depth)  # the residue sampling below checks --samples and --max-len first thing
    conjugacy = separation.appendix_conjugacy_check()
    if not conjugacy.ok:
        raise PropertyViolation("conjugation identity for the integer freeness form failed")
    residues = separation.residue_freeness_check(args.samples, args.max_len, args.seed)
    violations = [check for check in residues if not check.ok]
    if violations:
        raise PropertyViolation(f"mod-4 residue obstruction violated for {len(violations)} word pair(s)")
    result = {
        "conjugacy_ok": conjugacy.ok,
        "residues_checked": len(residues),
        "residues_ok": not violations,
        "overlaps": separation.exact_overlap_search(args.t, args.depth),
        "relations": separation.relation_search_ABC(args.t, args.depth),
    }
    return result, None


def cmd_lemmas(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    result: dict = {}
    if args.lemma in ("2", "all"):
        result["lemma2"] = geometry.verify_lemma2(args.k, args.t)
    if args.lemma == "3":
        if not (args.v and args.w):
            raise UsageError("lemma 3 threshold search needs --v and --w (a consecutive chain pair)")
        result["lemma3"] = geometry.lemma3_find_threshold(args.v, args.w, args.t_max, args.resolution)
    if args.lemma in ("4", "all"):
        result["lemma4"] = geometry.verify_lemma4(args.k, args.t)
        result["lemma4_extremal_threshold"] = geometry.lemma4_extremal_threshold(args.k)
    if args.lemma == "cert":
        if not (grid := _parse_fraction_list(args.grid or "")):
            raise UsageError("certificates need --grid with at least one rational parameter")
        result["certificate"] = geometry.nondegeneracy_certificate(args.n, grid)
    return result, None


def cmd_attractor(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    search = None
    if args.search_common:
        try:
            level, lo, hi, res = args.search_common.split(":")
        except ValueError as exc:
            raise UsageError("--search-common expects n:t_lo:t_hi:resolution") from exc
        search = int(level), (_positive_fraction(lo), _positive_fraction(hi)), _positive_fraction(res)
        geometry.common_disjoint_grid(*search)  # every range check before the box counting
    levels = _parse_int_list(args.levels)
    spec = _parse_subsystem(args.subsystem, args.t) if args.subsystem else None
    if spec:
        geometry.check_box_levels(levels, spec.size())  # the word budget, before the maps are built
    ifs = build_subsystem(spec) if spec else make_family(args.t)
    estimate = geometry.box_counting(ifs, levels)
    result: dict = {"box_counting": estimate}
    csv_rows = [
        {"epsilon": eps, "count": count}
        for eps, count in zip(estimate.scales, estimate.counts)
    ]
    csv_rows.append({"epsilon": "slope", "count": estimate.slope})
    if search:
        result["common_disjoint"] = geometry.find_common_disjoint_parameter(*search)
    return result, csv_rows


def cmd_measure(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    qs = [float(q) for q in args.q.split(",") if q]
    geometry.check_moment_orders(qs)
    family = make_family(args.t)
    if args.s == "auto":
        exponent = pressure.solve_level_dimension(family, args.n, args.tol).value
    else:
        exponent = float(args.s)
    estimate = geometry.measure_stats(family, args.n, exponent, qs)
    result = {"exponent": exponent, "measure": estimate}
    csv_rows = [
        {
            "level": estimate.level,
            "s": estimate.exponent,
            "cylinders": estimate.cylinder_count,
            "cylinders_at_zero": estimate.zero_cylinder_count,
            "ball_mass": estimate.ball_mass,
            "local_dim_quotient": estimate.local_dim_quotient,
            **{f"lq_{q}": v for q, v in estimate.lq_sums.items()},
        }
    ]
    return result, csv_rows


#: The run settings ``_config`` echoes: each flag's default, and the fixed value where a subcommand
#: has no such flag (``threads`` is always 1: every run is single-threaded).
_RUN_SETTINGS = {"format": "json", "out": None, "seed": 0, "threads": 1, "tol": 1e-12}
#: The subcommands whose handlers return no CSV rows; ``main`` rejects ``--format csv`` for them up front.
_JSON_ONLY = ("separation", "freeness", "lemmas")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifslab",
        description="Exact-arithmetic analyses of a one-parameter Moebius IFS family.",
    )
    parser.add_argument("--version", action="version", version=f"ifslab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default=_RUN_SETTINGS["format"])
    common.add_argument("--out", default=_RUN_SETTINGS["out"], help="write output to this path instead of stdout")
    needs_t = argparse.ArgumentParser(add_help=False)  # lemmas declares its own --t, with a default
    needs_t.add_argument("--t", type=_positive_fraction, required=True)
    solves = argparse.ArgumentParser(add_help=False)  # the bisection tolerance of dim and measure
    solves.add_argument("--tol", type=float, default=_RUN_SETTINGS["tol"])

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", parents=[common, needs_t, solves], help="level dimensions and distortion brackets")
    p.add_argument("--levels", default="1,2,4")
    p.add_argument("--subsystem", default=None, help="e.g. full:4 for the keep-a-3 subsystem report")
    p.set_defaults(handler=cmd_dim)

    p = sub.add_parser("pressure", parents=[common, needs_t], help="finite-level growth-rate estimates")
    p.add_argument("--levels", default="1,2,4")
    p.add_argument("--s", required=True, help="exponent (float)")
    p.set_defaults(handler=cmd_pressure)

    p = sub.add_parser("separation", parents=[common, needs_t], help="pointwise and matrix-entry separation")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--variant", choices=("sesc", "diophantine", "both"), default="both")
    p.add_argument("--probes", default=None, help="comma list of rationals; default: the right fixed point")
    p.set_defaults(handler=cmd_separation)

    p = sub.add_parser("freeness", parents=[common, needs_t], help="conjugacy, residue and relation certificates")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--max-len", type=int, default=20, dest="max_len")
    p.add_argument("--seed", type=int, default=_RUN_SETTINGS["seed"])
    p.set_defaults(handler=cmd_freeness)

    p = sub.add_parser("lemmas", parents=[common], help="cylinder-geometry verdicts and certificates")
    p.add_argument("--lemma", choices=("2", "3", "4", "cert", "all"), default="all")
    p.add_argument("--t", type=_positive_fraction, default="1")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=3, help="level for --lemma cert")
    p.add_argument("--grid", default=None, help="comma list of rationals for --lemma cert")
    p.add_argument("--v", default=None)
    p.add_argument("--w", default=None)
    p.add_argument("--t-max", type=_positive_fraction, default="64", dest="t_max")
    p.add_argument("--resolution", type=_positive_fraction, default="1/64")
    p.set_defaults(handler=cmd_lemmas)

    p = sub.add_parser("attractor", parents=[common, needs_t], help="box counting and common-disjoint search")
    p.add_argument("--levels", default="2,3,4,5")
    p.add_argument("--subsystem", default=None, help="e.g. tilde:3 to box-count a subsystem")
    p.add_argument("--search-common", default=None, dest="search_common", help="n:t_lo:t_hi:resolution")
    p.set_defaults(handler=cmd_attractor)

    p = sub.add_parser("measure", parents=[common, needs_t, solves], help="cylinder-weight statistics at the origin")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--s", default="auto", help='exponent in (0,1], or "auto" for the level dimension')
    p.add_argument("--q", default="2,3", help="comma list of moment orders")
    p.set_defaults(handler=cmd_measure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.format == "csv" and args.command in _JSON_ONLY:
            raise UsageError(f"subcommand {args.command!r} has no CSV representation; use --format json")
        result, csv_rows = args.handler(args)
        _emit(args, _config(args), result, csv_rows, started)
    except PropertyViolation as exc:
        print(f"ifslab: property violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"ifslab: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
