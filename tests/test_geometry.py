"""Cylinder geometry, parameter certificates, box counting and measure statistics."""

import math
from fractions import Fraction as F

import pytest

from ifslab import (
    IFSInstance,
    Interval,
    MoebiusMap,
    OrderRelation,
    SubsystemSpec,
    SubsystemVariant,
    WindowKind,
    box_counting,
    build_subsystem,
    classify_intervals,
    cylinder,
    find_common_disjoint_parameter,
    lemma3_find_threshold,
    lemma4_extremal_disjoint,
    lemma4_extremal_threshold,
    make_family,
    map_of_word,
    measure_stats,
    natural_measure_stats,
    nondegeneracy_certificate,
    solve_level_dimension,
    verify_lemma2,
    verify_lemma4,
)
from ifslab import geometry
from ifslab.geometry import LEMMA2_SAMPLES, MAX_LEMMA2_K, MAX_PAIR_CHECKS, MAX_THRESHOLD_DOUBLINGS
from test_cli import must_not_run


class TestOrderRelation:
    def test_strict_precedence(self):
        assert classify_intervals(Interval(0, 1), Interval(2, 3)) is OrderRelation.PREC

    def test_ordered_overlap(self):
        assert classify_intervals(Interval(0, 2), Interval(1, 3)) is OrderRelation.PRECSIM

    def test_containment_is_overlap(self):
        assert classify_intervals(Interval(0, 3), Interval(1, 2)) is OrderRelation.OVERLAP
        assert classify_intervals(Interval(1, 2), Interval(1, 2)) is OrderRelation.OVERLAP

    def test_reversed_disjoint_is_other(self):
        assert classify_intervals(Interval(2, 3), Interval(0, 1)) is OrderRelation.OTHER

    def test_classification_stable(self):
        pair = (Interval(F(1, 12), F(1, 10)), Interval(F(1, 8), F(1, 6)))
        assert classify_intervals(*pair) is classify_intervals(*pair) is OrderRelation.PREC


class TestLemma2:
    def test_level_one_pointwise(self):
        report = verify_lemma2(1, 1)
        assert report.ok
        assert report.counterexamples == ()

    def test_consecutive_pair_spot_values(self):
        # chain neighbours 21 < 12 at x = 1
        assert map_of_word("21", 1)(1) == F(1, 32)
        assert map_of_word("12", 1)(1) == F(1, 20)

    @pytest.mark.parametrize("t", [F(1, 2), F(1), F(3)])
    def test_all_pairs_to_level_four(self, t):
        for k in range(1, 5):
            assert verify_lemma2(k, t).ok

    def test_chain_extremes_ordered(self):
        for k in range(1, 6):
            lo = cylinder("1" * k + "3", 1)
            hi = cylinder("2" * k + "3", 1)
            assert classify_intervals(lo, hi) in (OrderRelation.PREC, OrderRelation.PRECSIM)

    def test_fixed_limit_and_sample_count(self):
        assert (MAX_LEMMA2_K, LEMMA2_SAMPLES) == (7, 64)
        with pytest.raises(ValueError, match=r"k must be in 1\.\.7, got 8"):
            verify_lemma2(MAX_LEMMA2_K + 1, 1)
        report = verify_lemma2(2, 1)
        assert report.points_checked == 3 * LEMMA2_SAMPLES
        assert report.pairs_checked == 3 + 6  # consecutive pairs, then all pairs

    def test_k_cap(self):
        with pytest.raises(ValueError):
            verify_lemma2(8, 1)
        with pytest.raises(ValueError):
            verify_lemma2(0, 1)


class TestLemma3:
    def test_base_pair_threshold_near_half(self):
        result = lemma3_find_threshold("1", "2", t_max=64, resolution=F(1, 128))
        assert result.found
        assert F(1, 2) < result.witness_t <= F(1, 2) + F(1, 128)
        assert result.fail_t is not None and result.fail_t <= F(1, 2)
        assert result.best_gap > 0

    def test_length_two_pair_threshold_near_two(self):
        result = lemma3_find_threshold("11", "21", t_max=64, resolution=F(1, 64))
        assert result.found
        assert F(2) < result.witness_t <= F(2) + F(1, 64)

    def test_monotone_persistence(self):
        result = lemma3_find_threshold("21", "12", t_max=64, resolution=F(1, 64))
        for scale in (2, 4):
            t = result.witness_t * scale
            assert not cylinder("213", t).intersects(cylinder("123", t))

    def test_not_found_reports_best_gap(self):
        result = lemma3_find_threshold("1", "2", t_max=F(1, 4), resolution=F(1, 16))
        assert not result.found
        assert result.witness_t is None
        assert result.best_gap is not None and result.best_gap <= 0

    def test_want1_equivalence_for_base_flips(self):
        # for pairs (1u, 2u) splitting is exactly b - a < a*b with
        # a = f_u(t/2), b = f_u(2t/3)
        for u in ("", "1", "2", "12"):
            for t in (F(1, 2), F(1), F(3), F(9)):
                a = map_of_word(u, t)(t / 2)
                b = map_of_word(u, t)(2 * t / 3)
                split = not cylinder("1" + u + "3", t).intersects(cylinder("2" + u + "3", t))
                assert split == (b - a < a * b)

    def test_rejects_non_consecutive_pairs(self):
        with pytest.raises(ValueError):
            lemma3_find_threshold("11", "12", t_max=8)

    def test_probe_count_at_the_cap(self):
        # t_max / resolution = 2^64: about 64 doublings up to the split near 1/2, then 64 halvings at most.
        result = lemma3_find_threshold("1", "2", t_max=1, resolution=F(1, 2**MAX_THRESHOLD_DOUBLINGS))
        assert result.found
        assert F(1, 2) < result.witness_t <= F(1, 2) + F(1, 2**MAX_THRESHOLD_DOUBLINGS)
        assert result.checked <= 2 * MAX_THRESHOLD_DOUBLINGS + 2

    @pytest.mark.parametrize("t_max, resolution", [(1, F(1, 2**64 + 1)), (2, F(1, 2**64)), (1, F(1, 2**10000))])
    def test_over_the_cap_rejected_before_the_first_probe(self, monkeypatch, t_max, resolution):
        monkeypatch.setattr(geometry, "_pair_gap", must_not_run)
        with pytest.raises(ValueError, match=r"t_max / resolution must be at most 2\^64"):
            lemma3_find_threshold("1", "2", t_max=t_max, resolution=resolution)


class TestLemma4:
    def test_inside_stated_range(self):
        assert verify_lemma4(2, F(29, 10)).ok

    def test_extremal_threshold_values(self):
        assert lemma4_extremal_threshold(1) == 4
        assert lemma4_extremal_threshold(2) == F(16, 5)
        assert lemma4_extremal_threshold(3) == F(64, 21)

    def test_extremal_pair_fails_past_threshold(self):
        assert not lemma4_extremal_disjoint(1, 5)
        assert not verify_lemma4(1, 5).ok

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sharpness(self, k):
        t_star = lemma4_extremal_threshold(k)
        eps = F(1, 10**6)
        assert lemma4_extremal_disjoint(k, t_star - eps)
        assert not lemma4_extremal_disjoint(k, t_star + eps)


class TestNondegeneracy:
    def test_level_two_at_unit_parameter(self):
        cert = nondegeneracy_certificate(2, [F(1)])
        assert cert.complete
        assert len(cert.witnesses) == 3
        assert cert.window.kind is WindowKind.PER_PAIR_CERTIFICATE

    def test_level_three_small_grid(self):
        cert = nondegeneracy_certificate(3, [F(1, 2), F(1), F(2), F(10), F(50)])
        assert cert.complete
        assert cert.missing == ()

    def test_empty_grid_incomplete(self):
        cert = nondegeneracy_certificate(3, [])
        assert not cert.complete
        assert cert.window is None

    def test_witnesses_reverify(self):
        cert = nondegeneracy_certificate(3, [F(1), F(10)])
        for witness in cert.witnesses:
            assert not cylinder(witness.v + "3", witness.t).intersects(cylinder(witness.w + "3", witness.t))


class TestCommonDisjoint:
    def test_single_point_level_two(self):
        search = find_common_disjoint_parameter(2, (F(1), F(1)), F(1, 2))
        assert search.found
        assert search.window.t_lo == search.window.t_hi == 1

    def test_level_three_window_is_two_to_four(self):
        search = find_common_disjoint_parameter(3, (F(2), F(4)), F(1, 2))
        assert search.found
        assert search.ok_points == (F(5, 2), F(3), F(7, 2))
        assert search.window.t_lo == F(5, 2) and search.window.t_hi == F(7, 2)
        assert search.window.kind is WindowKind.COMMON_DISJOINT

    def test_level_three_boundary_points_fail(self):
        # the pairs (11,21)/(12,22) touch at t=2, the pair (22,1) at t=4
        assert cylinder("113", 2).intersects(cylinder("213", 2))
        assert cylinder("223", 4).intersects(cylinder("13", 4))

    def test_not_found_reports_best(self):
        search = find_common_disjoint_parameter(3, (F(1, 2), F(2)), F(1, 2))
        assert not search.found
        assert search.best_t is not None
        assert search.best_violations
        for v, w in search.best_violations:
            assert cylinder(v + "3", search.best_t).intersects(cylinder(w + "3", search.best_t))


def quarter_cantor_pair():
    return IFSInstance.build(
        [MoebiusMap.affine(F(1, 4), 0), MoebiusMap.affine(F(1, 4), F(3, 4))],
        Interval(0, 1),
    )


class Admitted(Exception):
    """Raised in place of the maps: the pair budget let the request through."""


class TestPairBudget:
    @pytest.fixture(autouse=True)
    def maps_admit(self, monkeypatch):
        def admitted(*_args):
            raise Admitted

        monkeypatch.setattr(geometry, "prefix_maps", admitted)

    def test_certificate_boundary(self):
        assert math.comb(2**9 - 1, 2) <= MAX_PAIR_CHECKS < 2 * math.comb(2**9 - 1, 2)
        with pytest.raises(Admitted):
            nondegeneracy_certificate(9, [1])
        with pytest.raises(ValueError, match="511 words at 2 grid points make 260610 pair checks"):
            nondegeneracy_certificate(9, [1, 2])

    def test_common_search_boundary(self):
        with pytest.raises(Admitted):
            find_common_disjoint_parameter(9, (1, 1), 1)
        with pytest.raises(ValueError, match="511 words at 2 grid points make 260610 pair checks"):
            find_common_disjoint_parameter(9, (1, 2), 1)


class TestBoxCounting:
    def test_cantor_pair_slope_half(self):
        estimate = box_counting(quarter_cantor_pair(), [2, 3, 4, 5, 6])
        assert estimate.counts == (8, 16, 32, 64, 128)
        assert estimate.slope == pytest.approx(0.5, abs=1e-12)
        assert estimate.stderr < 1e-12

    def test_single_map_slope_zero(self):
        ifs = IFSInstance.build([MoebiusMap.affine(F(1, 4), 0)], Interval(0, 1))
        estimate = box_counting(ifs, [2, 4, 6])
        assert estimate.slope == pytest.approx(0.0, abs=1e-12)

    def test_family_slope_below_dimension(self):
        estimate = box_counting(make_family(1), [2, 3, 4, 5])
        assert 0 < estimate.slope <= 0.8

    def test_counts_grow_as_scale_shrinks(self):
        estimate = box_counting(make_family(1), [2, 3, 4, 5])
        assert all(a < b for a, b in zip(estimate.counts, estimate.counts[1:]))
        assert all(a > b for a, b in zip(estimate.scales, estimate.scales[1:]))

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            box_counting(quarter_cantor_pair(), [3])


class TestMeasureStats:
    def test_zero_cylinder_count_is_power_of_two(self):
        for n in (3, 5, 7):
            stats = natural_measure_stats(1, n, 0.7)
            assert stats.zero_cylinder_count == 2**n
            assert stats.cylinder_count == 3**n

    def test_weights_normalized(self):
        stats = natural_measure_stats(1, 5, 0.75)
        assert stats.weight_total == pytest.approx(1.0, abs=1e-12)
        assert 0 < stats.ball_mass < 1

    def test_affine_surrogate_closed_form(self):
        # with the first map replaced by x/4 every cylinder has equal length,
        # so the mass at 0 is exactly (2/3)^n and the local-dimension
        # quotient tends to s - 1/2
        s_star = math.log(3) / math.log(4)
        ifs = IFSInstance.build(
            [MoebiusMap.affine(F(1, 4), 0), MoebiusMap.affine(F(1, 4), 0), MoebiusMap.affine(F(1, 4), F(1, 2))],
            Interval(0, F(2, 3)),
        )
        stats = measure_stats(ifs, 10, s_star)
        assert stats.ball_mass == pytest.approx((2 / 3) ** 10, rel=1e-12)
        assert stats.local_dim_quotient == pytest.approx(s_star - 0.5, abs=0.01)

    def test_moment_sums_bounded(self):
        stats = natural_measure_stats(1, 4, 0.7, qs=(2.0, 3.0))
        assert set(stats.lq_sums) == {2.0, 3.0}
        assert 0 < stats.lq_sums[3.0] < stats.lq_sums[2.0] < 1

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_moment_order_rejected(self, q):
        with pytest.raises(ValueError, match="moment order must be finite"):
            natural_measure_stats(1, 3, 0.7, qs=(2.0, q))

    def test_exponent_domain(self):
        with pytest.raises(ValueError):
            natural_measure_stats(1, 3, 0.0)
        with pytest.raises(ValueError):
            natural_measure_stats(1, 3, 1.5)

    def test_max_zero_cylinder_length(self):
        stats = natural_measure_stats(1, 4, 0.7)
        assert stats.max_zero_cylinder_length == F(2, 3) / 4**4


class TestOscConsistency:
    def test_common_disjoint_subsystem_matches_bracket(self):
        # at t = 3 the level-3 terminal-3 subsystem has pairwise disjoint
        # cylinders, so box counting must agree with the dimension bracket
        search = find_common_disjoint_parameter(3, (F(3), F(3)), F(1))
        assert search.found
        sub = build_subsystem(SubsystemSpec(F(3), 3, SubsystemVariant.TILDE))
        slope = box_counting(sub, [2, 3, 4]).slope
        d4 = solve_level_dimension(sub, 4).value
        assert abs(slope - d4) < 0.05
