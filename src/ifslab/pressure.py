"""Finite-level partition sums, level dimensions and bracketed conformal dimension.

The level-n partition sum of an IFS at exponent s is

    S_n(s) = sum over all length-n words u of ||f_u'||^s,

where ||f_u'|| is the *exact* rational sup of |f_u'| over the invariant
interval.  Only the power and the accumulation are floating point; the sum is
strictly decreasing in s, so its unit root d_n (the level-n dimension) is
found by plain bisection.  Sub/supermultiplicativity of the norms gives the
distortion-corrected bracket

    d_n - log(C)/(n*log(1/gamma2)) <= conformal dimension <= d_n

with C a distortion constant and gamma2 the global contraction bound.  The C
computed here is an empirical finite-depth maximum, and every bracket carries
it explicitly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .moebius import IFSInstance, RationalLike, as_fraction, int_abs_derivative, int_endpoint_denominators, integer_ends, make_family
from .words import SubsystemSpec, SubsystemVariant, build_subsystem, iter_word_tree

MAX_BISECTION_STEPS = 200  # most bisection steps of one level-dimension solve
INTERVAL_SLACK = 1e-9  # float tolerance on the subsystem interval [d_N - 1/(2N), d_N]


def _log_fraction(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


def _norm_counter(ifs: IFSInstance, levels: Sequence[int], distortion: bool = False) -> list[tuple[dict, Fraction]]:
    """One walk of the word tree to the deepest of ``levels``.

    Returns, for each n of ``levels`` in order, the multiset of exact
    sup-norms ||f_u'|| over the length-n words u and, with ``distortion``,
    the max of sup|f_u'|/inf|f_u'| over all words of length 1..n (else 1,
    and only the words of the requested lengths are bounded).

    Both are read from the walk's integer matrices (a, b, c, d).  With the
    interval [L/D, R/D] and e = c*L + d*D, c*R + d*D at its two ends,
    |f_u'| = |ad - bc| * D^2 / e^2 at each end.  Each sup|f_u'| is counted
    as its lowest-terms integer pair (:func:`int_abs_derivative`, the one
    determinant of a counted word), made a Fraction once per distinct norm,
    and sup/inf = max(e^2)/min(e^2) is compared as an integer pair, made a
    Fraction once per length.
    """
    if min(levels) < 1:
        raise ValueError("level must be >= 1")
    ends = integer_ends(ifs.interval)
    den_squared = ends[2] ** 2
    counters: dict[int, dict[tuple[int, int], int]] = {n: {} for n in levels}
    worst = [(1, 1)] * (max(levels) + 1)  # worst[k]: (max e^2, min e^2) of the largest sup/inf over the length-k words
    for length, _, matrix in iter_word_tree([f.matrix for f in ifs.maps], max(levels)):
        counter = counters.get(length)
        if counter is not None or (distortion and length):
            lo_den, hi_den = int_endpoint_denominators(matrix, ends)
            lo_sq, hi_sq = lo_den * lo_den, hi_den * hi_den
            small, big = (lo_sq, hi_sq) if lo_sq <= hi_sq else (hi_sq, lo_sq)
            if distortion and big * worst[length][1] > worst[length][0] * small:
                worst[length] = (big, small)
            if counter is not None:
                sup = int_abs_derivative(matrix, den_squared, small)
                counter[sup] = counter.get(sup, 0) + 1
    norms = {n: {Fraction(*sup): count for sup, count in counter.items()} for n, counter in counters.items()}
    ratios = [Fraction(big, small) for big, small in worst]
    return [(norms[n], max(ratios[: n + 1])) for n in levels]


def _power_sum(norms: Iterable[tuple[Fraction | float, int]], s: float) -> float:
    """S_n(s) from one level's (norm, count) pairs: norms powered as floats, summed in error-free summation."""
    return math.fsum(count * float(norm) ** s for norm, count in norms)


def _check_exponent(s: float) -> None:
    if s < 0:
        raise ValueError("exponent must be >= 0")
    if not math.isfinite(s):
        raise ValueError(f"exponent must be finite, got {s}")


def partition_sum(ifs: IFSInstance, n: int, s: float) -> float:
    """S_n(s), with exact norms powered and accumulated in error-free summation."""
    _check_exponent(s)
    [(counter, _)] = _norm_counter(ifs, [n])
    return _power_sum(counter.items(), s)


def _log_power_sum(counter: dict[Fraction, int], s: float) -> float:
    """log S_n(s) from one level's norm multiset.

    When the float sum is not a normal float (every power underflows at a
    large s), it is summed in log space from the exact norms instead.
    """
    total = _power_sum(counter.items(), s)
    if total >= sys.float_info.min:
        return math.log(total)
    logs = [math.log(count) + s * _log_fraction(norm) for norm, count in counter.items()]
    top = max(logs)
    if not math.isfinite(top):
        raise ValueError(f"the log partition sum at s = {s} overflows a float")
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


@dataclass(frozen=True)
class PressureEstimate:
    """(1/n) * log S_n(s): the finite-level growth-rate approximant."""

    level: int
    exponent: float
    value: float


def pressure_estimate(ifs: IFSInstance, levels: Sequence[int], s: float) -> list[PressureEstimate]:
    """The estimate at each of ``levels``, in order, from one walk of the word tree."""
    _check_exponent(s)
    return [PressureEstimate(n, s, _log_power_sum(counter, s) / n) for n, (counter, _) in zip(levels, _norm_counter(ifs, levels))]


@dataclass(frozen=True)
class LevelDimension:
    """The unit root d_n of S_n, with the achieved residual |S_n(d_n) - 1|."""

    level: int
    value: float
    residual: float
    word_count: int


def solve_level_dimension(ifs: IFSInstance, n: int, tol: float = 1e-12) -> LevelDimension:
    """Bisection solve of S_n(s) = 1 on [0, log(m)/log(1/gamma2)].

    The bracket width is shrunk far enough below ``tol`` that the residual
    itself (not just the root) lands under ``tol``.
    """
    return _solve_levels(ifs, [n], tol)[0][0]


def _solve_levels(ifs: IFSInstance, levels: Sequence[int], tol: float, distortion: bool = False) -> list[tuple]:
    """(d_n, the level-n norm multiset, C_n) for each n of ``levels``, in order, from one walk after the checks."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be finite, got {tol}")
    if ifs.gamma_upper >= 1:
        raise ValueError("maps must be strict contractions")
    return [(_solve(ifs, n, c, tol), c, ratio) for n, (c, ratio) in zip(levels, _norm_counter(ifs, levels, distortion))]


def _solve(ifs: IFSInstance, n: int, counter: dict[Fraction, int], tol: float) -> LevelDimension:
    """Bisect S_n(s) = 1 on the level-n norm multiset ``counter``; no walk."""
    floats = [(float(norm), count) for norm, count in counter.items()]  # converted once for every step
    m = len(ifs.maps)
    hi = math.log(m) / -_log_fraction(ifs.gamma_upper) if m > 1 else 0.0
    lo = 0.0
    # |dS/ds| <= n*log(1/gamma1) near the root, so this width caps the residual at tol.
    width = tol / max(1.0, n * -_log_fraction(ifs.gamma_lower))
    iterations = 0
    while hi - lo > width and iterations < MAX_BISECTION_STEPS:
        mid = (lo + hi) / 2
        if _power_sum(floats, mid) >= 1.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    root = (lo + hi) / 2
    return LevelDimension(level=n, value=root, residual=abs(_power_sum(floats, root) - 1.0), word_count=sum(counter.values()))


@dataclass(frozen=True)
class DistortionEstimate:
    """Max over words of length <= depth of sup|f_u'| / inf|f_u'| on the interval.

    The true distortion constant is a supremum over *all* words; this is the
    finite-depth observable, hence the EMPIRICAL flag.
    """

    depth: int
    value: Fraction
    rigor: str = "EMPIRICAL"


def distortion_constant(ifs: IFSInstance, depth: int) -> DistortionEstimate:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return DistortionEstimate(depth=depth, value=_norm_counter(ifs, [depth], distortion=True)[0][1])


@dataclass(frozen=True)
class DimensionBracket:
    """Certified-style interval around the conformal dimension, empirical C."""

    level: int
    lower: float
    upper: float
    distortion: Fraction
    gamma_upper: Fraction

    def width(self) -> float:
        return self.upper - self.lower

    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2


def dimension_bracket(ifs: IFSInstance, n: int, distortion: RationalLike, tol: float = 1e-12) -> DimensionBracket:
    """[d_n - log(C)/(n*log(1/gamma2)), d_n] for a distortion constant C >= 1.

    :func:`level_report` gives the bracket with the depth-n empirical C.
    """
    distortion = as_fraction(distortion)
    if distortion < 1:
        raise ValueError("distortion constant must be >= 1")
    return _bracket(ifs, n, solve_level_dimension(ifs, n, tol).value, distortion)


def level_report(ifs: IFSInstance, levels: Sequence[int], tol: float = 1e-12) -> list[tuple[LevelDimension, DimensionBracket]]:
    """d_n and its bracket with the depth-n empirical C for each n of ``levels``, in order, from one walk."""
    solved = _solve_levels(ifs, levels, tol, distortion=True)
    return [(level, _bracket(ifs, level.level, level.value, ratio)) for level, _, ratio in solved]


def _bracket(ifs: IFSInstance, n: int, d_n: float, distortion: Fraction) -> DimensionBracket:
    correction = _log_fraction(distortion) / (n * -_log_fraction(ifs.gamma_upper))
    return DimensionBracket(
        level=n,
        lower=d_n - correction,
        upper=d_n,
        distortion=distortion,
        gamma_upper=ifs.gamma_upper,
    )


@dataclass(frozen=True)
class SubsystemDimensionReport:
    """Level-N dimension data for the family versus its keep-a-3 subsystem.

    ``s1`` is the level-1 dimension of the subsystem built from all length-N
    words containing the third symbol.  When ``mass_premise_holds`` (the
    subsystem retains at least half the unit partition mass at exponent
    d_N), the bound d_N - 1/(2N) <= s1 <= d_N is expected; violations are
    reported, never silently dropped.
    """

    t: Fraction
    level: int
    d_level: LevelDimension
    d_doubled: LevelDimension
    epsilon_proxy: float
    s1: LevelDimension
    lower_bound: float
    lower_bound_holds: bool
    upper_bound_holds: bool
    mass_at_d: float
    mass_floor: float
    mass_premise_holds: bool
    bracket: DimensionBracket
    error_bound: float
    subsystem_size: int


def subsystem_dimension_report(
    t: RationalLike,
    level: int,
    tol: float = 1e-12,
) -> SubsystemDimensionReport:
    """One family walk gives d_N and d_2N; one subsystem walk gives s1, its bracket and the mass at d_N."""
    t = as_fraction(t)
    family = make_family(t)
    (d_level, _, _), (d_doubled, _, _) = _solve_levels(family, [level, 2 * level], tol)
    epsilon_proxy = abs(d_level.value - d_doubled.value)

    sub = build_subsystem(SubsystemSpec(t, level, SubsystemVariant.FULL))
    [(s1, counter, ratio)] = _solve_levels(sub, [1], tol, distortion=True)
    bracket = _bracket(sub, 1, s1.value, ratio)

    mass_at_d = _power_sum(counter.items(), d_level.value)
    lower_bound = d_level.value - 1.0 / (2 * level)
    return SubsystemDimensionReport(
        t=t,
        level=level,
        d_level=d_level,
        d_doubled=d_doubled,
        epsilon_proxy=epsilon_proxy,
        s1=s1,
        lower_bound=lower_bound,
        lower_bound_holds=s1.value >= lower_bound - INTERVAL_SLACK,
        upper_bound_holds=s1.value <= d_level.value + INTERVAL_SLACK,
        mass_at_d=mass_at_d,
        mass_floor=1.0 - 2.0**level * 4.0 ** (-level * d_level.value),
        mass_premise_holds=mass_at_d >= 0.5,
        bracket=bracket,
        error_bound=epsilon_proxy + 1.0 / (2 * level) + _log_fraction(bracket.distortion) / (level * math.log(4.0)),
        subsystem_size=len(sub),
    )
