"""Acceptance gate: every criterion at its stated tolerance and time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test prints ``ACCEPTANCE <n> PASS/FAIL`` and enforces both
the numerical tolerance and the wall-time limit.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction as F

from ifslab import (
    IFSInstance,
    Interval,
    Matrix2,
    MoebiusMap,
    SubsystemSpec,
    SubsystemVariant,
    appendix_conjugacy_check,
    box_counting,
    build_subsystem,
    dimension_bracket,
    distortion_constant,
    exact_overlap_search,
    family_matrices,
    find_common_disjoint_parameter,
    lemma4_extremal_disjoint,
    lemma4_extremal_threshold,
    make_family,
    natural_measure_stats,
    nondegeneracy_certificate,
    relation_search_ABC,
    residue_freeness_check,
    solve_level_dimension,
    subsystem_dimension_report,
    verify_lemma2,
)

LOG3_OVER_LOG4 = math.log(3) / math.log(4)


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < limit_seconds
    print(
        f"ACCEPTANCE {number:2d} {'PASS' if within else 'FAIL'}  {description}"
        f"  [{elapsed:.3f}s / limit {limit_seconds}s]"
    )
    assert within, f"criterion {number} exceeded its {limit_seconds}s budget ({elapsed:.3f}s)"


def test_criterion_01_exact_conjugacy():
    appendix_conjugacy_check()  # warm-up outside the timed window
    with criterion(1, "conjugation onto the integer pair (E, F) holds exactly", 0.001):
        result = appendix_conjugacy_check()
        assert result.ok
        assert result.from_first == Matrix2(F(4), F(0), F(0), F(1))
        assert result.from_second == Matrix2(F(4), F(0), F(1), F(1))


def test_criterion_02_residue_obstruction():
    with criterion(2, "1000 seeded word pairs up to length 20 obey the mod-4 obstruction", 1.0):
        checks = residue_freeness_check(1000, 20, seed=20240901)
        assert len(checks) == 1000
        assert all(c.shape_ok for c in checks)
        assert all(c.xe_bottom_left % 4 == 0 for c in checks)
        assert all(c.yf_bottom_left % 4 == 1 for c in checks)


def test_criterion_03_closed_form_powers():
    gen_a = family_matrices(1)[0]
    with criterion(3, "powers of the first generator match the closed form, m = 1..30", 0.010):
        power = Matrix2.identity()
        for m in range(1, 31):
            power = power @ gen_a
            expected = Matrix2(
                F(1, 2**m), F(0), F(2 ** (m + 2)) * (1 - F(1, 4**m)) / 3, F(2**m)
            )
            assert power == expected


def test_criterion_04_level_one_dimensions():
    with criterion(4, "level-1 dimensions: 0.5 for the similitude pair, log3/log4 for the family", 1.0):
        fam = make_family(1)
        pair = IFSInstance.build(fam.maps[1:], fam.interval)
        assert abs(solve_level_dimension(pair, 1).value - 0.5) < 1e-12
        for t in (F(1, 2), F(1), F(3)):
            value = solve_level_dimension(make_family(t), 1).value
            assert abs(value - LOG3_OVER_LOG4) < 1e-10


def test_criterion_05_bracket_suite():
    with criterion(5, "d_1 >= d_2 >= d_4 >= d_8 and d_8 inside the level-4 bracket (t = 1)", 120.0):
        fam = make_family(1)
        d = {n: solve_level_dimension(fam, n).value for n in (1, 2, 4, 8)}
        assert d[1] >= d[2] >= d[4] >= d[8]
        c4 = distortion_constant(fam, 4).value
        bracket = dimension_bracket(fam, 4, c4)
        assert bracket.lower <= d[8] <= bracket.upper
        assert bracket.lower == d[4] - (math.log(c4.numerator) - math.log(c4.denominator)) / (4 * math.log(4))


def test_criterion_06_subsystem_bracket():
    with criterion(6, "subsystem level-1 dimension in [d_N - 1/(2N), d_N] for N = 2, 3, 4 (t = 1)", 60.0):
        for level in (2, 3, 4):
            report = subsystem_dimension_report(1, level)
            assert report.mass_premise_holds
            assert report.lower_bound_holds, f"N={level}: s1 below d_N - 1/(2N)"
            assert report.upper_bound_holds, f"N={level}: s1 above d_N"
            assert report.mass_at_d >= report.mass_floor - 1e-12


def test_criterion_07_lemma4_sharpness():
    with criterion(7, "cross-length splitting flips exactly at 3/(1 - 4^-k), k = 1, 2, 3", 1.0):
        eps = F(1, 10**6)
        for k in (1, 2, 3):
            t_star = lemma4_extremal_threshold(k)
            assert lemma4_extremal_disjoint(k, t_star - eps)
            assert not lemma4_extremal_disjoint(k, t_star + eps)


def test_criterion_08_lemma2_order():
    with criterion(8, "chain order gives cylinder order, all pairs, k <= 6, t in {1/2, 1, 3}", 30.0):
        for t in (F(1, 2), F(1), F(3)):
            for k in range(1, 7):
                report = verify_lemma2(k, t)
                assert report.ok, report.counterexamples[:3]


def test_criterion_09_nondegeneracy_certificate():
    grid = [F(1, 2), F(1), F(2), F(4), F(10), F(50), F(200)]
    with criterion(9, "complete per-pair disjointness certificates at n = 3 and 4", 60.0):
        for n in (3, 4):
            cert = nondegeneracy_certificate(n, grid)
            assert cert.complete, f"n={n}: unwitnessed pairs {cert.missing}"


def test_criterion_10_osc_dimension_match():
    with criterion(10, "box-count slope matches similarity/bracketed dimension under disjointness", 300.0):
        cantor = IFSInstance.build(
            [MoebiusMap.affine(F(1, 4), 0), MoebiusMap.affine(F(1, 4), F(3, 4))],
            Interval(0, 1),
        )
        slope = box_counting(cantor, [2, 3, 4, 5, 6]).slope
        assert abs(slope - 0.5) <= 0.05

        search = find_common_disjoint_parameter(3, (F(2), F(4)), F(1, 2))
        assert search.found
        t = search.ok_points[len(search.ok_points) // 2]
        sub = build_subsystem(SubsystemSpec(t, 3, SubsystemVariant.TILDE))
        sub_slope = box_counting(sub, [2, 3, 4, 5]).slope
        bracket = dimension_bracket(sub, 6, distortion_constant(sub, 6).value)
        assert abs(sub_slope - bracket.midpoint()) <= 0.05


def test_criterion_11_natural_measure_drop():
    with criterion(11, "2^10 cylinders at 0 and local-dimension quotient below s - 0.1 (t = 1, n = 10)", 120.0):
        s = solve_level_dimension(make_family(1), 10).value
        stats = natural_measure_stats(1, 10, s)
        assert stats.zero_cylinder_count == 2**10
        assert stats.local_dim_quotient is not None
        assert stats.local_dim_quotient < s - 0.1


def test_criterion_12_overlap_searches_empty():
    with criterion(12, "no exact overlaps to level 6, no leading-symbol relations to depth 6 (t = 1)", 300.0):
        overlaps = exact_overlap_search(1, 6)
        assert overlaps.pairs == ()
        assert overlaps.words_searched == sum(3**k for k in range(1, 7))
        relations = relation_search_ABC(1, 6)
        assert relations.pairs == ()
