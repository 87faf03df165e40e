"""Overlap search, separation metrics and the freeness certificates."""

import json
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab import (
    Matrix2,
    MoebiusMap,
    appendix_conjugacy_check,
    diophantine_metric,
    exact_overlap_search,
    family_matrices,
    fixed_point_probe,
    make_family,
    overlap_search_maps,
    relation_search_ABC,
    residue_freeness_check,
    sesc_metric,
)
from ifslab import separation
from ifslab.cli import main
from ifslab.separation import E_MATRIX, F_MATRIX, ResidueCheck
from fraction_walk import iter_compositions
from test_cli import must_not_run
from test_traversal import _count_calls
from test_word_sources import oracle_relation_search


class TestOverlapSearch:
    def test_family_free_to_level_four(self):
        report = exact_overlap_search(1, 4)
        assert report.pairs == ()
        assert report.words_searched == 3 + 9 + 27 + 81

    def test_duplicate_generators_found_immediately(self):
        f2 = make_family(1).maps[1]
        report = overlap_search_maps([f2, f2], 1)
        assert ("1", "2") in report.pairs

    def test_distinct_words_distinct_matrices(self):
        fam = make_family(1)
        m13 = fam.maps[0].matrix @ fam.maps[2].matrix
        m23 = fam.maps[1].matrix @ fam.maps[2].matrix
        assert m13 != m23

    def test_other_parameters(self):
        for t in (F(1, 2), F(3), F(7, 5)):
            assert exact_overlap_search(t, 3).pairs == ()

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            exact_overlap_search(1, 0)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            overlap_search_maps(list(make_family(1).maps), 0)


class TestSescMetric:
    def test_shared_fixed_point_probe_collapses(self):
        report = sesc_metric(1, 1, [F(0)])
        assert report.delta == 0
        assert report.c_n == 0.0

    def test_right_endpoint_probe(self):
        report = sesc_metric(1, 1, [F(2, 3)])
        assert report.delta == F(1, 15)  # |f1 - f2| at 2/3; the other pairs are farther
        assert report.pairs_compared == 3

    def test_fixed_point_probe_helper(self):
        assert fixed_point_probe(1) == F(2, 3)
        assert fixed_point_probe(F(3)) == F(2)

    def test_positive_when_free_with_three_probes(self):
        # three probe points determine a Moebius map, so distinct matrices
        # at an overlap-free level must separate somewhere
        assert exact_overlap_search(1, 3).pairs == ()
        report = sesc_metric(1, 3, [F(0), F(1, 2), F(3, 5)])
        assert report.delta > 0
        assert report.c_n > 0

    def test_empty_probes_rejected(self):
        with pytest.raises(ValueError):
            sesc_metric(1, 1, [])

    @pytest.mark.parametrize("t", [F(1), F(3, 7)])
    def test_probes_outside_x_rejected(self, t):
        for probe in (F(100), F(-1, 7), 2 * t / 3 + F(1, 1000)):
            with pytest.raises(ValueError, match="outside the invariant interval"):
                sesc_metric(t, 2, [F(0), probe])

    @pytest.mark.parametrize("t", [F(1), F(3, 7)])
    def test_probes_at_both_ends_of_x_accepted(self, t):
        assert sesc_metric(t, 2, [F(0), 2 * t / 3]).probes == (F(0), 2 * t / 3)

    @pytest.mark.parametrize("probes", ["100", "-1/7", "1001/1500"])
    def test_cli_rejects_probes_outside_x(self, capsys, probes):
        code = main(["separation", "--t", "1", "--n", "2", "--variant", "sesc", f"--probes={probes}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "outside the invariant interval X = [0, 2/3]" in captured.err
        assert captured.out == ""


class TestDiophantineMetric:
    def test_level_one_strong_delta(self):
        report = diophantine_metric(1, 1, strong=True)
        assert report.delta == 1  # distance between second and third generators
        assert report.pairs_compared == 3
        assert report.equal_matrix_pairs == 0

    def test_generator_distances(self):
        fam = make_family(1)
        a, b, c = (f.matrix for f in fam.maps)
        assert a.entry_distance(b) == 2
        assert b.entry_distance(c) == 1
        assert a.entry_distance(c) == 2

    def test_strong_and_plain_agree_when_free(self):
        strong = diophantine_metric(1, 2, strong=True)
        plain = diophantine_metric(1, 2, strong=False)
        assert strong.delta == plain.delta
        assert strong.delta > 0


def sup_gap(p, q):
    return max(abs(a - b) for a, b in zip(p, q))


def oracle_pair_loop(items, distance, strong):
    """The hand-written minimum-distance loop the separation metrics used to copy."""
    best = None
    compared = zero_pairs = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            d = distance(items[i], items[j])
            compared += 1
            if d == 0:
                zero_pairs += 1
                if not strong:
                    continue
            if best is None or d < best:
                best = d
    return (F(0) if best is None else best), compared, zero_pairs


class TestPairLoopOracle:
    @pytest.mark.parametrize("t", [F(1, 2), F(1), F(3), F(37, 53)])
    @pytest.mark.parametrize("strong", [True, False])
    def test_diophantine_matches_oracle(self, t, strong):
        for n in (1, 2, 3):
            matrices = [m for _, m in iter_compositions(family_matrices(t), n)]
            delta, compared, zero_pairs = oracle_pair_loop(matrices, Matrix2.entry_distance, strong)
            report = diophantine_metric(t, n, strong=strong)
            assert (report.delta, report.pairs_compared, report.equal_matrix_pairs) == (delta, compared, zero_pairs)
            assert report.c_n == (float(delta) ** (1.0 / n) if delta > 0 else 0.0)

    @pytest.mark.parametrize("probes", [[F(0)], [F(2, 3)], [F(0), F(2, 3)], [F(1, 3), F(1, 2), F(3, 5)]])
    def test_sesc_matches_oracle(self, probes):
        for n in (1, 2, 3):
            values = [tuple(MoebiusMap(m)(x) for x in probes) for _, m in iter_compositions(family_matrices(1), n)]
            delta, compared, zero_pairs = oracle_pair_loop(values, sup_gap, True)
            report = sesc_metric(1, n, probes)
            assert (report.delta, report.pairs_compared, report.equal_matrix_pairs) == (delta, compared, zero_pairs)

    def test_every_coordinate_counts(self):
        vectors = [(F(0), F(0), F(0), F(0)), (F(0), F(0), F(0), F(1, 2)), (F(0), F(0), F(0), F(2))]
        assert separation._min_pair_distance(vectors) == (F(1, 2), 0)

    def test_coinciding_pairs_counted_and_collapse_delta(self):
        report = sesc_metric(1, 1, [F(0)])  # f1(0) = f2(0) = 0, f3(0) = 1/2
        assert report.delta == 0
        assert report.equal_matrix_pairs == 1
        assert report.pairs_compared == 3


small_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def vector_lists(draw):
    """2-40 vectors of 1-4 small rationals, with a repeated vector and ties on every coordinate.

    Each coordinate draws from a pool of at most four values, so vectors share
    coordinates without being equal; one vector is always listed twice.
    """
    width = draw(st.integers(1, 4))
    pools = [draw(st.lists(small_rationals, min_size=1, max_size=4, unique=True)) for _ in range(width)]
    vectors = draw(st.lists(st.tuples(*map(st.sampled_from, pools)), min_size=1, max_size=39))
    vectors.append(draw(st.sampled_from(vectors)))
    return draw(st.permutations(vectors))


@settings(max_examples=300, deadline=None)
@given(vectors=vector_lists())
def test_sweep_matches_oracle_pair_loop(vectors):
    delta, _, zero_pairs = oracle_pair_loop(vectors, sup_gap, strong=False)
    assert separation._min_pair_distance(vectors) == (delta, zero_pairs)


@settings(max_examples=50, deadline=None)
@given(vector=st.lists(small_rationals, min_size=1, max_size=4).map(tuple), count=st.integers(2, 40))
def test_sweep_all_identical(vector, count):
    assert separation._min_pair_distance([vector] * count) == (0, count * (count - 1) // 2)


def oracle_report(n, matrices, strong):
    """(delta, c_n, pairs compared, equal pairs) of the oracle loop over ``matrices``."""
    delta, compared, zero_pairs = oracle_pair_loop(matrices, Matrix2.entry_distance, strong)
    return str(delta), (float(delta) ** (1.0 / n) if delta > 0 else 0.0), compared, zero_pairs


def as_oracle_tuple(report):
    return report["delta"], report["c_n"], report["pairs_compared"], report["equal_matrix_pairs"]


def separation_json(capsys, t, n, variant="both"):
    assert main(["separation", "--t", str(t), "--n", str(n), "--variant", variant]) == 0
    return json.loads(capsys.readouterr().out)["result"]


class TestStrongFormOfOnePass:
    @pytest.mark.parametrize("t", [F(1, 2), F(1), F(3), F(37, 53)])
    def test_both_variant_matches_oracle(self, capsys, t):
        for n in (1, 2, 3):
            matrices = [m for _, m in iter_compositions(family_matrices(t), n)]
            result = separation_json(capsys, t, n)
            assert result["diophantine"]["strong"] is False
            assert result["diophantine_strong"]["strong"] is True
            assert as_oracle_tuple(result["diophantine"]) == oracle_report(n, matrices, strong=False)
            assert as_oracle_tuple(result["diophantine_strong"]) == oracle_report(n, matrices, strong=True)

    @pytest.mark.parametrize("n", [1, 2])
    def test_coinciding_matrices_zero_only_the_strong_delta(self, capsys, monkeypatch, n):
        first, second, _ = family_matrices(1)
        monkeypatch.setattr(separation, "family_matrices", lambda t: (first, second, second))
        matrices = [m for _, m in iter_compositions((first, second, second), n)]
        result = separation_json(capsys, 1, n, "diophantine")
        plain, strong = result["diophantine"], result["diophantine_strong"]
        assert plain["equal_matrix_pairs"] == strong["equal_matrix_pairs"] > 0
        assert F(plain["delta"]) > 0 and plain["c_n"] > 0
        assert (strong["delta"], strong["c_n"]) == ("0", 0.0)
        assert as_oracle_tuple(plain) == oracle_report(n, matrices, strong=False)
        assert as_oracle_tuple(strong) == oracle_report(n, matrices, strong=True)

    @pytest.mark.parametrize("variant, passes", [("both", 2), ("diophantine", 1), ("sesc", 1)])
    def test_one_pair_pass_per_metric(self, capsys, monkeypatch, variant, passes):
        calls = _count_calls(monkeypatch, separation, "_min_pair_distance")
        separation_json(capsys, 1, 2, variant)
        assert len(calls) == passes

    def test_strong_form_of_a_strong_report_is_itself(self):
        report = diophantine_metric(1, 2)
        assert report.strong_form() == report


@settings(max_examples=25, deadline=None)
@given(t=st.builds(F, st.integers(1, 200), st.integers(1, 97)), n=st.integers(1, 3))
def test_strong_form_matches_oracle_at_random_parameter(t, n):
    matrices = [m for _, m in iter_compositions(family_matrices(t), n)]
    strong = diophantine_metric(t, n, strong=False).strong_form()
    assert strong == diophantine_metric(t, n, strong=True)
    expected = oracle_report(n, matrices, strong=True)
    assert (str(strong.delta), strong.c_n, strong.pairs_compared, strong.equal_matrix_pairs) == expected


class TestConjugacy:
    def test_exact_identities(self):
        result = appendix_conjugacy_check()
        assert result.ok
        assert result.from_first == Matrix2(F(4), F(0), F(0), F(1))
        assert result.from_second == Matrix2(F(4), F(0), F(1), F(1))

    def test_target_determinants(self):
        assert E_MATRIX.det() == 4
        assert F_MATRIX.det() == 4


class TestResidues:
    def test_specific_products(self):
        assert integer_ef_matrix("E") @ E_MATRIX == Matrix2(F(16), F(0), F(0), F(1))
        assert integer_ef_matrix("F") @ F_MATRIX == Matrix2(F(16), F(0), F(5), F(1))
        assert integer_ef_matrix("") @ E_MATRIX == E_MATRIX

    def test_triangular_shape_exhaustive(self):
        # every product over {E, F} is [[4^k, 0], [m, 1]] with integer m
        words = [""]
        for _ in range(6):
            words = [w + ch for w in words for ch in "EF"]
            for w in words:
                m = integer_ef_matrix(w)
                assert m.b == 0 and m.d == 1
                assert m.a == 4 ** len(w)
                assert m.c.denominator == 1

    def test_random_samples_obstructed(self):
        checks = residue_freeness_check(200, 12, seed=7)
        assert len(checks) == 200
        assert all(c.ok for c in checks)
        assert all(c.xe_bottom_left % 4 == 0 for c in checks)
        assert all(c.yf_bottom_left % 4 == 1 for c in checks)

    @pytest.mark.parametrize("count", [0, -3])
    def test_needs_at_least_one_sample(self, count):
        with pytest.raises(ValueError, match="sample_count"):
            residue_freeness_check(count, 10, seed=1)

    @pytest.mark.parametrize(
        "sample_count, max_len",
        [(separation.MAX_RESIDUE_SAMPLES, 1), (1, separation.MAX_RESIDUE_WORD_LENGTH)],
    )
    def test_caps_admitted(self, sample_count, max_len):
        checks = residue_freeness_check(sample_count, max_len, seed=5)
        assert len(checks) == sample_count
        assert all(c.ok for c in checks)

    @pytest.mark.parametrize(
        "sample_count, max_len, message",
        [
            (separation.MAX_RESIDUE_SAMPLES + 1, 1, "sample_count must be >= 1 and <= 100000"),
            (1, separation.MAX_RESIDUE_WORD_LENGTH + 1, "max_len must be >= 1 and <= 1000"),
        ],
    )
    def test_over_cap_rejected_before_sampling(self, monkeypatch, sample_count, max_len, message):
        monkeypatch.setattr(separation, "_ef_product", must_not_run)
        with pytest.raises(ValueError, match=message):
            residue_freeness_check(sample_count, max_len, seed=5)

    def test_seed_reproducibility(self):
        first = residue_freeness_check(50, 10, seed=123)
        second = residue_freeness_check(50, 10, seed=123)
        assert [(c.x_word, c.y_word) for c in first] == [(c.x_word, c.y_word) for c in second]


def integer_ef_matrix(word):
    """The integer product the residue check builds for a word over {E, F}, as a Matrix2."""
    return Matrix2(*separation._ef_product(word))


def oracle_ef_matrix(word):
    """The Fraction product of a word over {E, F} that the residue check used to build."""
    result = Matrix2.identity()
    for ch in word:
        result = result @ (E_MATRIX if ch == "E" else F_MATRIX)
    return result


def oracle_residue_check(sample_count, max_len, seed):
    """The residue check over Fraction matrices, as it was before the integer products."""
    rng = random.Random(seed)
    checks = []
    for _ in range(sample_count):
        x_word = "".join(rng.choice("EF") for _ in range(rng.randint(0, max_len)))
        y_word = "".join(rng.choice("EF") for _ in range(rng.randint(0, max_len)))
        xe = oracle_ef_matrix(x_word) @ E_MATRIX
        yf = oracle_ef_matrix(y_word) @ F_MATRIX
        shape_ok = all(
            m.b == 0 and m.d == 1 and m.a == F(4) ** length and m.c.denominator == 1
            for m, length in ((xe, len(x_word) + 1), (yf, len(y_word) + 1))
        )
        checks.append(
            ResidueCheck(x_word, y_word, int(xe.c), int(yf.c), int(xe.c) % 4, int(yf.c) % 4, shape_ok)
        )
    return checks


class TestIntegerProductsMatchFractionOracle:
    def test_every_word_to_length_eight(self):
        for length in range(9):
            for word in map("".join, product("EF", repeat=length)):
                assert integer_ef_matrix(word) == oracle_ef_matrix(word), word

    @settings(max_examples=200, deadline=None)
    @given(word=st.text(alphabet="EF", max_size=20))
    def test_random_words_to_length_twenty(self, word):
        assert integer_ef_matrix(word) == oracle_ef_matrix(word)

    @pytest.mark.parametrize("seed", [20240901, 0, 987654321])
    def test_residue_check_matches_oracle(self, seed):
        assert residue_freeness_check(1000, 20, seed) == oracle_residue_check(1000, 20, seed)


class TestRelationSearch:
    def test_no_relations_at_unit_parameter(self):
        report = relation_search_ABC(1, 4)
        assert report.pairs == ()
        assert "pruned" in report.note

    def test_pruning_precondition_verified(self):
        # the third map's image [1/2, 2/3] is exactly disjoint from [0, 1/6]
        fam = make_family(1)
        third = fam.maps[2].image(fam.interval)
        first = fam.maps[0].image(fam.interval)
        second = fam.maps[1].image(fam.interval)
        assert max(first.right, second.right) < third.left

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            relation_search_ABC(1, 0)

    def test_two_generator_search_depth_eight(self):
        report = oracle_relation_search(1, 8, "12")
        assert report.pairs == ()
        assert report.words_searched == sum(2**k for k in range(1, 9))

    def test_duplicate_maps_would_collide(self):
        # same machinery flags exact coincidences when generators coincide
        f2 = make_family(1).maps[1]
        report = overlap_search_maps([f2, MoebiusMap(f2.matrix)], 2)
        assert report.pairs
