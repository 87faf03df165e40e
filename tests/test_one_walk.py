"""One walk per call, against the per-level and per-word code it replaced.

The oracles below are the former implementations: one walk of the word tree
for each requested level (``level_report``, ``pressure_estimate``,
``_level_cylinders`` and so ``box_counting``), the four-walk subsystem
report, and the subsystem built by multiplying every word from its first
letter.  Every report of the one-walk code must equal theirs, and rows
follow the requested level list, repeats and order included.
"""

import math
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab import (
    IFSInstance,
    LevelDimension,
    Matrix2,
    MoebiusMap,
    PressureEstimate,
    SubsystemDimensionReport,
    SubsystemSpec,
    SubsystemVariant,
    box_counting,
    build_subsystem,
    family_matrices,
    invariant_interval,
    iter_words,
    make_family,
    pressure_estimate,
    subsystem_dimension_report,
)
from ifslab import geometry, pressure, words
from ifslab.cli import main
from ifslab.geometry import BoxCountEstimate, _least_squares_slope
from ifslab.pressure import INTERVAL_SLACK, MAX_BISECTION_STEPS, _bracket, _log_fraction, level_report
from fraction_walk import iter_word_tree
from ifslab.words import tilde_prefixes
from test_cli import must_not_run
from test_traversal import _count_calls

T_VALUES = (F(1, 2), F(1), F(3), F(37, 53))
LEVEL_LISTS = ([1, 2, 4], [4, 1, 4], [3, 3], [2, 1], [5, 2, 1, 5])


# -- the oracle: the per-level and per-word code the one-walk code replaced ------


def oracle_norm_counter(ifs, n, distortion=False):
    counter, worst = {}, F(1)
    for length, _, matrix in iter_word_tree([f.matrix for f in ifs.maps], n):
        if length == n or (distortion and length):
            inf, sup = MoebiusMap(matrix).derivative_bounds(ifs.interval)
            if distortion:
                worst = max(worst, sup / inf)
            if length == n:
                counter[sup] = counter.get(sup, 0) + 1
    return counter, worst


def oracle_partition_sum(ifs, n, s):
    counter, _ = oracle_norm_counter(ifs, n)
    return math.fsum(count * float(norm) ** s for norm, count in counter.items())


def oracle_pressure_estimate(ifs, n, s):
    return PressureEstimate(level=n, exponent=s, value=math.log(oracle_partition_sum(ifs, n, s)) / n)


def oracle_solve(ifs, n, tol, distortion=False):
    counter, worst = oracle_norm_counter(ifs, n, distortion)
    floats = [(float(norm), count) for norm, count in counter.items()]

    def sum_at(s):
        return math.fsum(count * norm ** s for norm, count in floats)

    m = len(ifs.maps)
    hi = math.log(m) / -_log_fraction(ifs.gamma_upper) if m > 1 else 0.0
    lo = 0.0
    width = tol / max(1.0, n * -_log_fraction(ifs.gamma_lower))
    iterations = 0
    while hi - lo > width and iterations < MAX_BISECTION_STEPS:
        mid = (lo + hi) / 2
        if sum_at(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    root = (lo + hi) / 2
    return LevelDimension(level=n, value=root, residual=abs(sum_at(root) - 1.0), word_count=sum(counter.values())), worst


def oracle_level_report(ifs, n, tol=1e-12):
    level, distortion = oracle_solve(ifs, n, tol, distortion=True)
    return level, _bracket(ifs, n, level.value, distortion)


def oracle_level_cylinders(ifs, n):
    return [
        MoebiusMap(matrix).image(ifs.interval)
        for length, _, matrix in iter_word_tree([f.matrix for f in ifs.maps], n)
        if length == n
    ]


def oracle_box_counting(ifs, levels):
    scales, counts = [], []
    for n in levels:
        cylinders = oracle_level_cylinders(ifs, n)
        eps = max(c.length() for c in cylinders)
        boxes = set()
        for c in cylinders:
            boxes.update(range(math.floor(c.left / eps), math.floor(c.right / eps) + 1))
        scales.append(eps)
        counts.append(len(boxes))
    xs = [-(math.log(e.numerator) - math.log(e.denominator)) for e in scales]
    slope, stderr = _least_squares_slope(xs, [math.log(c) for c in counts])
    return BoxCountEstimate(scales=tuple(scales), counts=tuple(counts), slope=slope, stderr=stderr)


def oracle_subsystem_words(spec):
    if spec.variant is SubsystemVariant.FULL:
        return [u for u in iter_words("123", spec.level) if "3" in u]
    return [v + "3" for v in tilde_prefixes(spec.level)]


def oracle_build_subsystem(spec):
    """Every subsystem word multiplied out from its first letter."""
    by_label = dict(zip("123", family_matrices(spec.t)))
    names = oracle_subsystem_words(spec)
    maps = [MoebiusMap(reduce(Matrix2.__matmul__, (by_label[ch] for ch in u))) for u in names]
    return IFSInstance.build(maps, invariant_interval(spec.t), names=names)


def oracle_subsystem_report(t, level, tol=1e-12):
    """Four walks: the family to N, the family to 2N, the subsystem's report and its mass at d_N."""
    family = make_family(t)
    d_level, _ = oracle_solve(family, level, tol)
    d_doubled, _ = oracle_solve(family, 2 * level, tol)
    epsilon_proxy = abs(d_level.value - d_doubled.value)
    sub = oracle_build_subsystem(SubsystemSpec(t, level, SubsystemVariant.FULL))
    s1, bracket = oracle_level_report(sub, 1, tol)
    mass_at_d = oracle_partition_sum(sub, 1, d_level.value)
    lower_bound = d_level.value - 1.0 / (2 * level)
    return SubsystemDimensionReport(
        t=F(t),
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


# -- whole reports against the oracle -----------------------------------------------


@pytest.mark.parametrize("t", T_VALUES)
class TestReportsMatchOracle:
    @pytest.mark.parametrize("levels", LEVEL_LISTS)
    def test_level_report(self, t, levels):
        fam = make_family(t)
        for tol in (1e-12, 1e-8):
            assert level_report(fam, levels, tol) == [oracle_level_report(fam, n, tol) for n in levels]

    @pytest.mark.parametrize("levels", LEVEL_LISTS)
    def test_pressure_estimate(self, t, levels):
        fam = make_family(t)
        for s in (0.0, 0.5, 0.73):
            assert pressure_estimate(fam, levels, s) == [oracle_pressure_estimate(fam, n, s) for n in levels]

    @pytest.mark.parametrize("levels", [[2, 3, 4], [3, 2, 3], [4, 1, 4], [1, 5]])
    def test_box_counting(self, t, levels):
        fam = make_family(t)
        assert box_counting(fam, levels) == oracle_box_counting(fam, levels)

    @pytest.mark.parametrize("spec", [f"full:{n}" for n in range(1, 6)] + [f"tilde:{n}" for n in range(1, 7)])
    def test_build_subsystem(self, t, spec):
        kind, level = spec.split(":")
        spec = SubsystemSpec(t, int(level), SubsystemVariant(kind))
        sub = build_subsystem(spec)
        expected = oracle_build_subsystem(spec)
        assert sub == expected
        assert [f.matrix for f in sub.maps] == [f.matrix for f in expected.maps]
        if len(sub) <= 31:  # full:1..3 and tilde:1..5: level 2 of full:5 is 44,521 cylinders
            assert box_counting(sub, [2, 1, 2]) == oracle_box_counting(sub, [2, 1, 2])

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_subsystem_report(self, t, level):
        assert subsystem_dimension_report(t, level) == oracle_subsystem_report(t, level)


def test_subsystem_report_at_level_four():
    assert subsystem_dimension_report(1, 4, 1e-10) == oracle_subsystem_report(1, 4, 1e-10)


rationals = st.builds(F, st.integers(1, 200), st.integers(1, 97))
level_lists = st.lists(st.integers(1, 4), min_size=1, max_size=5)


@settings(max_examples=25, deadline=None)
@given(t=rationals, levels=level_lists, s=st.floats(0, 2))
def test_random_parameter_and_levels_match_oracle(t, levels, s):
    fam = make_family(t)
    assert level_report(fam, levels) == [oracle_level_report(fam, n) for n in levels]
    assert pressure_estimate(fam, levels, s) == [oracle_pressure_estimate(fam, n, s) for n in levels]
    if len(set(levels)) > 1:
        assert box_counting(fam, levels) == oracle_box_counting(fam, levels)
    spec = SubsystemSpec(t, max(levels), SubsystemVariant.TILDE)
    assert build_subsystem(spec) == oracle_build_subsystem(spec)


# -- the walks each call makes --------------------------------------------------------


class TestOneWalkPerCall:
    def test_level_report(self, monkeypatch):
        walks = _count_calls(monkeypatch, pressure, "iter_word_tree")
        products = _count_calls(monkeypatch, words, "int_matmul")
        level_report(make_family(1), [1, 2, 4, 7])
        assert len(walks) == 1
        assert len(products) == sum(3**k for k in range(1, 8))

    def test_pressure_estimate(self, monkeypatch):
        walks = _count_calls(monkeypatch, pressure, "iter_word_tree")
        pressure_estimate(make_family(1), [4, 1, 2, 4], 0.5)
        assert len(walks) == 1

    def test_box_counting(self, monkeypatch):
        walks = _count_calls(monkeypatch, geometry, "iter_word_tree")
        box_counting(make_family(1), [2, 3, 4, 3])
        assert len(walks) == 1

    def test_subsystem_report(self, monkeypatch):
        walks = _count_calls(monkeypatch, pressure, "iter_word_tree")
        builds = _count_calls(monkeypatch, words, "iter_word_tree")
        subsystem_dimension_report(1, 3)
        assert len(walks) == 2  # the family to 2N, the subsystem to level 1
        assert len(builds) == 1

    @pytest.mark.parametrize("spec, products", [("full:8", 9840), ("tilde:6", 2 + 4 + 8 + 16 + 32 + 63)])
    def test_build_subsystem_products(self, monkeypatch, spec, products):
        kind, level = spec.split(":")
        integer = _count_calls(monkeypatch, words, "int_matmul")
        exact = _count_calls(monkeypatch, Matrix2, "__matmul__")
        walks = _count_calls(monkeypatch, words, "iter_word_tree")
        build_subsystem(SubsystemSpec(1, int(level), SubsystemVariant(kind)))
        assert len(integer) + len(exact) == products  # per word from the first letter: 44,135 for full:8
        assert len(exact) == (2 ** int(level) - 1 if kind == "tilde" else 0)  # tilde:N: f_v times f_3 per kept word
        assert len(walks) == 1

    @pytest.mark.parametrize(
        "argv, module",
        [
            (("dim", "--levels", "1,2,4,7"), pressure),
            (("pressure", "--levels", "4,1,2", "--s", "0.5"), pressure),
            (("attractor", "--levels", "2,3,4"), geometry),
            (("attractor", "--levels", "3,2,3", "--subsystem", "tilde:3"), geometry),
        ],
    )
    def test_cli_jobs(self, capsys, monkeypatch, argv, module):
        walks = _count_calls(monkeypatch, module, "iter_word_tree")
        assert main([argv[0], "--t", "1", *argv[1:]]) == 0
        capsys.readouterr()
        assert len(walks) == 1


class TestChecksBeforeTheWalk:
    """The tolerance, exponent and contraction checks run before the one walk starts."""

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance(self, monkeypatch, tol):
        monkeypatch.setattr(pressure, "iter_word_tree", must_not_run)
        fam = make_family(1)
        for call in (lambda: level_report(fam, [12, 1], tol), lambda: subsystem_dimension_report(1, 6, tol)):
            with pytest.raises(ValueError, match="tolerance"):
                call()

    @pytest.mark.parametrize("s", [-0.5, math.nan, math.inf])
    def test_exponent(self, monkeypatch, s):
        monkeypatch.setattr(pressure, "iter_word_tree", must_not_run)
        with pytest.raises(ValueError, match="exponent"):
            pressure_estimate(make_family(1), [12, 1], s)

    def test_levels(self, monkeypatch):
        monkeypatch.setattr(pressure, "iter_word_tree", must_not_run)
        monkeypatch.setattr(geometry, "iter_word_tree", must_not_run)
        with pytest.raises(ValueError, match="level must be >= 1"):
            level_report(make_family(1), [12, 0])
        with pytest.raises(ValueError, match="levels must be >= 1"):
            box_counting(make_family(1), [12, 0])
