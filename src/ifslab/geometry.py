"""Cylinder-interval geometry, parameter certificates, box counting and measure stats.

The cylinder intervals of words v3 (v over {1,2}) drive everything here.  The
library's three catalogued geometric facts about them are verified
exhaustively at explicit parameters:

* lemma 2 (chain order): if v < w in the chain order on {1,2}^k then
  f_v(x) < f_w(x) for x > 0, hence the v3-cylinder sits weakly left of the
  w3-cylinder (both endpoints strictly smaller);
* lemma 3 (large-parameter splitting): consecutive chain pairs become
  strictly disjoint once the parameter t is large enough - the threshold is
  witnessed by exact search, never assumed;
* lemma 4 (cross-length splitting): cylinders of length-(k+1) words lie
  strictly left of cylinders of length-k words exactly while
  t < 3/(1 - 4^(-k)) at the extremal pair.

Per-pair disjointness witnesses assemble into non-degeneracy certificates; a
single parameter making *all* cylinders pairwise disjoint upgrades the
subsystem to open-set-condition status, where box-counting dimension and the
bracketed conformal dimension must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, groupby, product
from typing import Sequence

from .moebius import (
    IFSInstance,
    Interval,
    MoebiusMap,
    RationalLike,
    as_fraction,
    int_image,
    integer_ends,
    invariant_interval,
    make_family,
)
from .words import chain_sorted, check_level, cylinder, iter_word_tree, iter_words, lex_successor, prefix_maps, tilde_prefixes

MAX_GRID_POINTS = 10_000  # most parameter points a common-disjoint search may scan
MAX_LEMMA2_K = 7  # longest lemma 2 words: 2^7 of them, 8,128 cylinder pairs
LEMMA2_SAMPLES = 64  # lemma 2 checks each consecutive pair at this many grid points in (0, 2t/3]
MAX_THRESHOLD_DOUBLINGS = 64  # lemma 3 searches t_max / resolution <= 2^64: at most 130 probes
MAX_PAIR_CHECKS = 2**17  # most cylinder pair checks (word pairs times grid points) of a certificate or common search


class OrderRelation(Enum):
    """Strongest relation of an ordered interval pair (PREC > PRECSIM > OVERLAP > OTHER)."""

    PREC = "PREC"          # strictly disjoint, first entirely left of second
    PRECSIM = "PRECSIM"    # both endpoints strictly smaller (may overlap)
    OVERLAP = "OVERLAP"    # intersecting, not endpoint-ordered
    OTHER = "OTHER"        # disjoint in the reversed order


def classify_intervals(first: Interval, second: Interval) -> OrderRelation:
    if first.right < second.left:
        return OrderRelation.PREC
    if first.left < second.left and first.right < second.right:
        return OrderRelation.PRECSIM
    if first.intersects(second):
        return OrderRelation.OVERLAP
    return OrderRelation.OTHER


def _v3_cylinders(maps: dict[str, MoebiusMap], t: Fraction) -> dict[str, Interval]:
    """cylinder(v + "3", t) for each f_v of ``maps``, in the same order.

    cylinder(v3, t) = f_v(f_3([0, 2t/3])) = f_v([t/2, 2t/3]).  This rests on
    f1 and f2 not depending on t: each f_v over {1,2} is built once, by
    :func:`prefix_maps`, and serves every parameter; only the third cylinder
    is made per t (through :func:`cylinder`, which rejects t <= 0).
    """
    third = cylinder("3", t)
    return {v: f.image(third) for v, f in maps.items()}


@dataclass(frozen=True)
class LemmaReport:
    """Verdict of an exhaustive exact check, with every counterexample found."""

    ok: bool
    pairs_checked: int
    points_checked: int
    counterexamples: tuple[str, ...]


def verify_lemma2(k: int, t: RationalLike) -> LemmaReport:
    """Chain order on {1,2}^k forces pointwise map order and cylinder order.

    Consecutive chain pairs are checked pointwise on a rational grid in
    (0, 2t/3] (the shared fixed point 0 is checked for equality) and their
    v3/w3 cylinders compared exactly; then the exact cylinder comparison is
    repeated for every pair instead of relying on transitivity.
    """
    if k < 1 or k > MAX_LEMMA2_K:
        raise ValueError(f"k must be in 1..{MAX_LEMMA2_K}, got {k}")
    t = as_fraction(t)
    interval = invariant_interval(t)
    grid = interval.grid(LEMMA2_SAMPLES)[1:]
    chain = chain_sorted(k)
    maps = prefix_maps(chain)
    cylinders = _v3_cylinders(maps, t)

    bad: list[str] = []
    pairs = points = 0
    for v, w in zip(chain, chain[1:]):
        fv, fw = maps[v], maps[w]
        if fv(0) != fw(0):
            bad.append(f"f_{v}(0) != f_{w}(0)")
        for x in grid:
            points += 1
            if not fv(x) < fw(x):
                bad.append(f"f_{v}({x}) >= f_{w}({x})")
        pairs += 1
        if classify_intervals(cylinders[v], cylinders[w]) not in (OrderRelation.PREC, OrderRelation.PRECSIM):
            bad.append(f"cylinder order fails for consecutive ({v}3, {w}3)")
    for v, w in combinations(chain, 2):
        pairs += 1
        if classify_intervals(cylinders[v], cylinders[w]) not in (OrderRelation.PREC, OrderRelation.PRECSIM):
            bad.append(f"cylinder order fails for ({v}3, {w}3)")
    return LemmaReport(ok=not bad, pairs_checked=pairs, points_checked=points, counterexamples=tuple(bad))


def verify_lemma4(k: int, t: RationalLike) -> LemmaReport:
    """Every (k+1)-word cylinder strictly precedes every k-word cylinder."""
    if k < 1:
        raise ValueError("k must be >= 1")
    check_level(k + 1)
    t = as_fraction(t)
    long_words, short_words = list(iter_words("12", k + 1)), list(iter_words("12", k))
    cyls = _v3_cylinders(prefix_maps(long_words + short_words), t)
    pairs = product(long_words, short_words)
    bad = tuple(f"({v}3, {w}3)" for v, w in pairs if classify_intervals(cyls[v], cyls[w]) is not OrderRelation.PREC)
    return LemmaReport(ok=not bad, pairs_checked=len(long_words) * len(short_words), points_checked=0, counterexamples=bad)


def lemma4_extremal_threshold(k: int) -> Fraction:
    """Exact parameter 3/(1 - 4^(-k)) at which the extremal pair stops splitting."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction(3) / (1 - Fraction(1, 4**k))


def lemma4_extremal_disjoint(k: int, t: RationalLike) -> bool:
    """Exact check of the binding pair: 2^(k+1)-cylinder strictly left of 1^k-cylinder."""
    t = as_fraction(t)
    cv = cylinder("2" * (k + 1) + "3", t)
    cw = cylinder("1" * k + "3", t)
    return classify_intervals(cv, cw) is OrderRelation.PREC


@dataclass(frozen=True)
class ThresholdWitness:
    """Result of the parameter search splitting one consecutive cylinder pair."""

    v: str
    w: str
    found: bool
    witness_t: Fraction | None
    fail_t: Fraction | None      # largest parameter checked where the pair still meets
    best_t: Fraction | None      # closest-to-splitting parameter when not found
    best_gap: Fraction | None    # left(w-cyl) - right(v-cyl) at best_t (> 0 means split)
    checked: int


def _pair_gap(maps: dict[str, MoebiusMap], v: str, w: str, t: Fraction) -> Fraction:
    cyls = _v3_cylinders(maps, t)
    return cyls[w].left - cyls[v].right


def lemma3_find_threshold(v: str, w: str, t_max: RationalLike, resolution: RationalLike = Fraction(1, 64)) -> ThresholdWitness:
    """Find the smallest witnessed parameter splitting a consecutive chain pair.

    Doubles t geometrically from ``resolution`` until the v3/w3 cylinders
    are strictly disjoint, then bisects the bracketing step down to
    ``resolution``.  Every verdict is an exact endpoint comparison at a
    rational parameter; nothing is interpolated.
    """
    if lex_successor(v) != w:
        raise ValueError(f"{w!r} is not the chain successor of {v!r}")
    t_max = as_fraction(t_max)
    resolution = as_fraction(resolution)
    if resolution <= 0 or t_max <= 0:
        raise ValueError("t_max and resolution must be positive")
    if t_max / resolution > 2**MAX_THRESHOLD_DOUBLINGS:
        raise ValueError(f"t_max / resolution must be at most 2^{MAX_THRESHOLD_DOUBLINGS}")
    t = resolution
    maps = prefix_maps([v, w])

    checked = 0
    best_t: Fraction | None = None
    best_gap: Fraction | None = None
    prev: Fraction | None = None
    while True:
        probe = min(t, t_max)
        gap = _pair_gap(maps, v, w, probe)
        checked += 1
        if best_gap is None or gap > best_gap:
            best_t, best_gap = probe, gap
        if gap > 0:
            lo, hi = prev, probe
            break
        if probe == t_max:
            return ThresholdWitness(v, w, False, None, probe, best_t, best_gap, checked)
        prev = probe
        t *= 2

    if lo is not None:
        while hi - lo > resolution:
            mid = (lo + hi) / 2
            checked += 1
            if _pair_gap(maps, v, w, mid) > 0:
                hi = mid
            else:
                lo = mid
    return ThresholdWitness(v, w, True, hi, lo, hi, _pair_gap(maps, v, w, hi), checked)


class WindowKind(Enum):
    PER_PAIR_CERTIFICATE = "PER_PAIR_CERTIFICATE"
    COMMON_DISJOINT = "COMMON_DISJOINT"


@dataclass(frozen=True)
class ParameterWindow:
    level: int
    t_lo: Fraction
    t_hi: Fraction
    kind: WindowKind


def _check_pair_budget(words: int, points: int) -> None:
    """Refuse every pair of ``words`` cylinders at each of ``points`` parameters beyond MAX_PAIR_CHECKS (ValueError)."""
    checks = math.comb(words, 2) * points
    if checks > MAX_PAIR_CHECKS:
        raise ValueError(f"{words} words at {points} grid points make {checks} pair checks; at most {MAX_PAIR_CHECKS} are allowed")


@dataclass(frozen=True)
class PairWitness:
    v: str
    w: str
    t: Fraction
    relation: OrderRelation


@dataclass(frozen=True)
class NondegeneracyCertificate:
    """Per-pair disjointness witnesses over a parameter grid (or the failing pairs)."""

    level: int
    grid: tuple[Fraction, ...]
    complete: bool
    window: ParameterWindow | None
    witnesses: tuple[PairWitness, ...]
    missing: tuple[tuple[str, str], ...]


def nondegeneracy_certificate(n: int, t_grid: Sequence[RationalLike]) -> NondegeneracyCertificate:
    """For every distinct pair of subsystem words find a grid parameter splitting them."""
    if n < 2:
        raise ValueError("level must be >= 2")
    grid = tuple(as_fraction(t) for t in t_grid)
    prefixes = tilde_prefixes(n)
    _check_pair_budget(len(prefixes), len(grid))
    maps = prefix_maps(prefixes)
    cyls = {t: _v3_cylinders(maps, t) for t in grid}
    witnesses = []
    missing = []
    for v, w in combinations(prefixes, 2):
        for t in grid:
            if not cyls[t][v].intersects(cyls[t][w]):
                witnesses.append(PairWitness(v, w, t, classify_intervals(cyls[t][v], cyls[t][w])))
                break
        else:
            missing.append((v, w))
    window = ParameterWindow(n, min(grid), max(grid), WindowKind.PER_PAIR_CERTIFICATE) if grid and not missing else None
    return NondegeneracyCertificate(
        level=n,
        grid=grid,
        complete=not missing and bool(grid),
        window=window,
        witnesses=tuple(witnesses),
        missing=tuple(missing),
    )


@dataclass(frozen=True)
class CommonDisjointSearch:
    """Scan for a single parameter making all subsystem cylinders pairwise disjoint."""

    level: int
    grid: tuple[Fraction, ...]
    found: bool
    window: ParameterWindow | None
    ok_points: tuple[Fraction, ...]
    best_t: Fraction | None
    best_violations: tuple[tuple[str, str], ...]


def common_disjoint_grid(
    n: int,
    t_range: tuple[RationalLike, RationalLike],
    resolution: RationalLike,
) -> list[Fraction]:
    """The parameter grid of a common-disjoint search, once every argument is checked (ValueError if not)."""
    if n < 2:
        raise ValueError("level must be >= 2")
    lo, hi = (as_fraction(x) for x in t_range)
    resolution = as_fraction(resolution)
    if lo > hi or lo <= 0:
        raise ValueError("need 0 < t_lo <= t_hi")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    check_level(n)
    steps = math.ceil((hi - lo) / resolution)
    if steps >= MAX_GRID_POINTS:
        raise ValueError(f"the grid would have {steps + 1} points; at most {MAX_GRID_POINTS} are allowed")
    _check_pair_budget(2**n - 1, steps + 1)
    return [min(lo + i * resolution, hi) for i in range(steps + 1)]


def find_common_disjoint_parameter(
    n: int,
    t_range: tuple[RationalLike, RationalLike],
    resolution: RationalLike,
) -> CommonDisjointSearch:
    grid = common_disjoint_grid(n, t_range, resolution)
    maps = prefix_maps(tilde_prefixes(n))

    def violations_at(t: Fraction) -> list[tuple[str, str]]:
        cyls = _v3_cylinders(maps, t).items()
        return [(v, w) for (v, cv), (w, cw) in combinations(cyls, 2) if cv.intersects(cw)]

    per_point = [(t, violations_at(t)) for t in grid]
    ok_points = tuple(t for t, bad in per_point if not bad)

    ok_runs = [[t for t, _ in run] for ok, run in groupby(per_point, key=lambda item: not item[1]) if ok]
    best_run = max(ok_runs, key=len, default=None)  # the first of the longest runs
    if best_run:
        window = ParameterWindow(n, best_run[0], best_run[-1], WindowKind.COMMON_DISJOINT)
        return CommonDisjointSearch(n, tuple(grid), True, window, ok_points, None, ())
    best_t, best_bad = min(per_point, key=lambda item: len(item[1]))
    return CommonDisjointSearch(n, tuple(grid), False, None, ok_points, best_t, tuple(best_bad))


@dataclass(frozen=True)
class BoxCountEstimate:
    """Grid-box counts of the level-n cylinder unions and the fitted growth rate."""

    scales: tuple[Fraction, ...]
    counts: tuple[int, ...]
    slope: float
    stderr: float


def _level_cylinders(ifs: IFSInstance, levels: Sequence[int]) -> list[list[Interval]]:
    """The level-n cylinders f_u(I), u in plain order, for each n of ``levels``, from one walk to the deepest.

    Each is :func:`int_image` of the walk's integer matrix at the integer ends of I.
    """
    ends = integer_ends(ifs.interval)
    cylinders: dict[int, list[Interval]] = {n: [] for n in levels}
    for length, _, matrix in iter_word_tree([f.matrix for f in ifs.maps], max(levels)):
        if length in cylinders:
            cylinders[length].append(int_image(matrix, ends))
    return [cylinders[n] for n in levels]


def check_box_levels(levels: Sequence[int], width: int) -> None:
    """Reject a box-counting level list over ``width`` maps (ValueError) before any walk."""
    if len(levels) < 2:
        raise ValueError("need at least two levels to fit a slope")
    if min(levels) < 1:
        raise ValueError("levels must be >= 1")
    check_level(max(levels), width)


def box_counting(ifs: IFSInstance, levels: Sequence[int]) -> BoxCountEstimate:
    """Count grid boxes meeting the union of level-n cylinders, regress log-log.

    For each level the box width is the largest cylinder length and the grid
    is anchored at 0 with half-open boxes [k*eps, (k+1)*eps); membership is
    exact rational arithmetic.  The cylinder union contains the attractor,
    so the fitted slope is an upper-biased estimate.
    """
    check_box_levels(levels, len(ifs.maps))
    scales: list[Fraction] = []
    counts: list[int] = []
    for cylinders in _level_cylinders(ifs, levels):
        eps = max(c.length() for c in cylinders)
        if eps == 0:
            raise ValueError("degenerate cylinders (zero length)")
        boxes: set[int] = set()
        for c in cylinders:
            boxes.update(range(math.floor(c.left / eps), math.floor(c.right / eps) + 1))
        scales.append(eps)
        counts.append(len(boxes))

    xs = [-(math.log(e.numerator) - math.log(e.denominator)) for e in scales]
    ys = [math.log(c) for c in counts]
    slope, stderr = _least_squares_slope(xs, ys)
    return BoxCountEstimate(scales=tuple(scales), counts=tuple(counts), slope=slope, stderr=stderr)


def _least_squares_slope(xs: list[float], ys: list[float]) -> tuple[float, float]:
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("levels produced identical scales; cannot fit a slope")
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    if n > 2:
        ss_res = math.fsum((y - mean_y - slope * (x - mean_x)) ** 2 for x, y in zip(xs, ys))
        stderr = math.sqrt(ss_res / ((n - 2) * sxx))
    else:
        stderr = 0.0
    return slope, stderr


@dataclass(frozen=True)
class MeasureEstimate:
    """Level-n cylinder-weight statistics for weights proportional to |I_u|^s.

    ``ball_mass`` is the total weight of the cylinders containing 0 (for the
    family: exactly the words over {1,2}), ``local_dim_quotient`` the ratio
    log(ball_mass)/log(r) with r the largest such cylinder length, and
    ``lq_sums`` the coarse moment sums over the level-n partition.
    """

    level: int
    exponent: float
    cylinder_count: int
    zero_cylinder_count: int
    ball_mass: float
    max_zero_cylinder_length: Fraction | None
    local_dim_quotient: float | None
    lq_sums: dict[float, float]
    weight_total: float


def check_moment_orders(qs: Sequence[float]) -> None:
    """Reject an empty ``qs`` or its first non-finite moment order with ValueError."""
    if not qs:
        raise ValueError("need at least one moment order")
    if bad := [q for q in qs if not math.isfinite(q)]:
        raise ValueError(f"moment order must be finite, got {bad[0]}")


def measure_stats(
    ifs: IFSInstance,
    n: int,
    s: float,
    qs: Sequence[float] = (2.0, 3.0),
) -> MeasureEstimate:
    if n < 1:
        raise ValueError("level must be >= 1")
    if not 0 < s <= 1:
        raise ValueError("exponent must lie in (0, 1]")
    check_moment_orders(qs)
    [cylinders] = _level_cylinders(ifs, [n])
    try:
        raw = [float(c.length()) ** s for c in cylinders]
    except OverflowError:
        raise ValueError(f"a level-{n} cylinder length overflows a float") from None
    total = math.fsum(raw)
    if total == 0:
        raise ValueError("degenerate cylinders (zero length); weights undefined")
    at_zero = [c.contains(0) for c in cylinders]
    ball_raw = math.fsum(x for x, z in zip(raw, at_zero) if z)
    zero_count = sum(at_zero)
    max_zero_len = max((c.length() for c, z in zip(cylinders, at_zero) if z), default=None)
    quotient = None
    if ball_raw > 0 and max_zero_len is not None and max_zero_len < 1:
        radius_log = math.log(max_zero_len.numerator) - math.log(max_zero_len.denominator)
        quotient = math.log(ball_raw / total) / radius_log
    lq = {float(q): _moment_sum(raw, total, q) for q in qs}
    return MeasureEstimate(
        level=n,
        exponent=s,
        cylinder_count=len(cylinders),
        zero_cylinder_count=zero_count,
        ball_mass=ball_raw / total,
        max_zero_cylinder_length=max_zero_len,
        local_dim_quotient=quotient,
        lq_sums=lq,
        weight_total=math.fsum(x / total for x in raw),
    )


def _moment_sum(raw: list[float], total: float, q: float) -> float:
    try:
        return math.fsum((x / total) ** q for x in raw)
    except OverflowError:
        raise ValueError(f"the moment sum at q = {q} overflows a float") from None


def natural_measure_stats(
    t: RationalLike,
    n: int,
    s: float,
    qs: Sequence[float] = (2.0, 3.0),
) -> MeasureEstimate:
    """Measure statistics for the family at parameter t."""
    return measure_stats(make_family(t), n, s, qs)
