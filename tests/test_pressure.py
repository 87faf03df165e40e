"""Partition sums, level dimensions, distortion and the bracket machinery."""

import math
from fractions import Fraction as F

import pytest

from ifslab import (
    IFSInstance,
    Interval,
    MoebiusMap,
    SubsystemSpec,
    SubsystemVariant,
    build_subsystem,
    dimension_bracket,
    distortion_constant,
    make_family,
    partition_sum,
    pressure_estimate,
    solve_level_dimension,
    subsystem_dimension_report,
)
from ifslab.moebius import Matrix2

LOG3_OVER_LOG4 = math.log(3) / math.log(4)


def two_three_subsystem(t=1):
    fam = make_family(t)
    return IFSInstance.build(fam.maps[1:], fam.interval)


def single_quarter_map():
    return IFSInstance.build([MoebiusMap.affine(F(1, 4), 0)], Interval(0, 1))


class TestPartitionSum:
    def test_family_level_one_unit_exponent(self):
        assert partition_sum(make_family(1), 1, 1.0) == 0.75

    def test_similitude_pair_at_half(self):
        assert partition_sum(two_three_subsystem(), 1, 0.5) == 1.0

    def test_zero_exponent_counts_maps(self):
        assert partition_sum(make_family(1), 1, 0.0) == 3.0
        assert partition_sum(make_family(1), 2, 0.0) == 9.0

    def test_strictly_decreasing_in_exponent(self):
        fam = make_family(1)
        for n in (1, 2, 3):
            values = [partition_sum(fam, n, s / 10) for s in range(11)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        fam = make_family(1)
        with pytest.raises(ValueError):
            partition_sum(fam, 0, 1.0)
        with pytest.raises(ValueError):
            partition_sum(fam, 1, -0.5)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_rejects_non_finite_exponent(self, s):
        with pytest.raises(ValueError, match="exponent must be finite"):
            partition_sum(make_family(1), 1, s)

    def test_pressure_at_zero_is_log_alphabet(self):
        estimates = pressure_estimate(make_family(1), [1, 2, 4], 0.0)
        assert [e.level for e in estimates] == [1, 2, 4]
        for estimate in estimates:
            assert estimate.value == pytest.approx(math.log(3), abs=1e-14)


class TestLevelDimension:
    def test_similitude_pair_gives_half(self):
        result = solve_level_dimension(two_three_subsystem(), 1)
        assert abs(result.value - 0.5) < 1e-12
        assert result.residual < 1e-12

    def test_family_level_one(self):
        for t in (F(1, 2), F(1), F(3)):
            result = solve_level_dimension(make_family(t), 1)
            assert abs(result.value - LOG3_OVER_LOG4) < 1e-10

    def test_single_map_dimension_zero(self):
        assert solve_level_dimension(single_quarter_map(), 1).value == 0.0

    def test_residual_meets_tolerance(self):
        fam = make_family(1)
        for n in (1, 2, 4):
            result = solve_level_dimension(fam, n, tol=1e-12)
            assert result.residual < 1e-12
            assert result.word_count == 3**n

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
    def test_rejects_tolerance_outside_zero_to_infinity(self, tol):
        with pytest.raises(ValueError, match="tolerance must be"):
            solve_level_dimension(make_family(1), 2, tol)
        with pytest.raises(ValueError, match="tolerance must be"):
            dimension_bracket(make_family(1), 2, F(1), tol=tol)

    def test_doubling_monotone(self):
        for t in (F(1, 2), F(1), F(3)):
            fam = make_family(t)
            d = {n: solve_level_dimension(fam, n).value for n in (1, 2, 4, 8)}
            assert d[1] >= d[2] >= d[4] >= d[8]

    def test_upper_bound_log3_log4(self):
        fam = make_family(1)
        for n in (1, 2, 3, 4):
            assert solve_level_dimension(fam, n).value <= LOG3_OVER_LOG4 + 1e-10


class TestNorms:
    def test_norm_bound_exhaustive(self):
        # sup|f_u'| <= 4^-|u| for all words to length 6
        for t in (F(1, 2), F(1), F(3)):
            fam = make_family(t)
            frontier = [(Matrix2.identity(), 0)]
            for _ in range(3):
                frontier = [(m @ f.matrix, k + 1) for m, k in frontier for f in fam.maps]
            for m, k in frontier:
                _, sup = MoebiusMap(m).derivative_bounds(fam.interval)
                assert sup <= F(1, 4**k)

    def test_submultiplicative_exhaustive(self):
        fam = make_family(1)
        words = [(Matrix2.identity(), 0)]
        pool = []
        for _ in range(3):
            words = [(m @ f.matrix, k + 1) for m, k in words for f in fam.maps]
            pool.extend(words)
        norm = {id(m): MoebiusMap(m).derivative_bounds(fam.interval)[1] for m, _ in pool}
        for m1, _ in pool:
            for m2, _ in pool:
                combined = MoebiusMap(m1 @ m2).derivative_bounds(fam.interval)[1]
                assert combined <= norm[id(m1)] * norm[id(m2)]


class TestDistortion:
    def test_affine_system_has_unit_distortion(self):
        assert distortion_constant(two_three_subsystem(), 3).value == 1

    def test_family_depth_one(self):
        assert distortion_constant(make_family(1), 1).value == F(25, 9)

    def test_monotone_in_depth(self):
        fam = make_family(1)
        values = [distortion_constant(fam, m).value for m in (1, 2, 3)]
        assert values[0] <= values[1] <= values[2]

    def test_flagged_empirical(self):
        assert distortion_constant(make_family(1), 1).rigor == "EMPIRICAL"


class TestBracket:
    def test_affine_bracket_collapses(self):
        sub = two_three_subsystem()
        bracket = dimension_bracket(sub, 2, F(1))
        assert bracket.lower == bracket.upper

    def test_width_halves_with_level_at_fixed_distortion(self):
        fam = make_family(1)
        c = F(3)
        b4 = dimension_bracket(fam, 4, c)
        b8 = dimension_bracket(fam, 8, c)
        assert (b4.upper - b4.lower) == pytest.approx(2 * (b8.upper - b8.lower), rel=1e-12)

    def test_deeper_dimensions_stay_inside(self):
        fam = make_family(1)
        d8 = solve_level_dimension(fam, 8).value
        for n in (1, 2, 4):
            bracket = dimension_bracket(fam, n, distortion_constant(fam, n).value)
            assert bracket.lower - 1e-12 <= d8 <= bracket.upper + 1e-12

    def test_rejects_distortion_below_one(self):
        with pytest.raises(ValueError):
            dimension_bracket(make_family(1), 2, F(1, 2))

    def test_doubled_brackets_nest_at_fixed_distortion(self):
        fam = make_family(1)
        c = distortion_constant(fam, 4).value
        brackets = [dimension_bracket(fam, n, c) for n in (1, 2, 4)]
        tol = 1e-11
        for outer, inner in zip(brackets, brackets[1:]):
            assert outer.lower - tol <= inner.lower
            assert inner.upper <= outer.upper + tol


class TestSubsystemReport:
    def test_trivial_level_one(self):
        report = subsystem_dimension_report(1, 1)
        assert report.subsystem_size == 1
        assert report.s1.value == 0.0
        assert not report.mass_premise_holds  # the half-mass premise needs N >= 2
        assert report.upper_bound_holds

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_certified_interval(self, level):
        report = subsystem_dimension_report(1, level)
        assert report.mass_premise_holds
        assert report.lower_bound_holds
        assert report.upper_bound_holds
        assert report.subsystem_size == 3**level - 2**level

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_mass_floor(self, level):
        # retained partition mass at exponent d_N is at least 1 - 2^N 4^(-N d_N)
        report = subsystem_dimension_report(1, level)
        assert report.mass_at_d >= report.mass_floor - 1e-12

    def test_error_bound_composition(self):
        report = subsystem_dimension_report(1, 3)
        expected = (
            report.epsilon_proxy
            + 1.0 / 6
            + (math.log(report.bracket.distortion.numerator) - math.log(report.bracket.distortion.denominator))
            / (3 * math.log(4))
        )
        assert report.error_bound == pytest.approx(expected, rel=1e-12)

    def test_subsystem_bracket_contains_deeper_level(self):
        report = subsystem_dimension_report(1, 2)
        sub = build_subsystem(SubsystemSpec(F(1), 2, SubsystemVariant.FULL))
        s2 = solve_level_dimension(sub, 2).value
        assert report.bracket.lower - 1e-12 <= s2 <= report.bracket.upper + 1e-12
