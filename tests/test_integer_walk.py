"""The integer word-tree walk against the Fraction walk it replaced.

``ifslab.words.iter_word_tree`` yields s^length times each word matrix as
plain integers.  Every consumer below is compared with its former code run
over ``fraction_walk.iter_word_tree``, the exact ``Matrix2`` walk kept as
the oracle: norm multisets and the distortion C, level cylinders, the
overlap and relation searches, both separation metrics and the subsystem
builds.
"""

from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_walk import iter_compositions as fraction_compositions
from fraction_walk import iter_word_tree as fraction_word_tree
from ifslab import (
    IFSInstance,
    Interval,
    Matrix2,
    MoebiusMap,
    SubsystemSpec,
    SubsystemVariant,
    build_subsystem,
    diophantine_metric,
    exact_overlap_search,
    family_matrices,
    invariant_interval,
    make_family,
    relation_search_ABC,
    sesc_metric,
)
from ifslab import separation
from ifslab.geometry import _level_cylinders
from ifslab.pressure import _norm_counter
from ifslab.separation import MATRIX_ENTRY, POINTWISE_ON_X, _keys_by_length, _separation_report
from ifslab.words import iter_word_tree, word_scale
from test_one_walk import oracle_build_subsystem
from test_word_sources import oracle_overlap_search, oracle_relation_search

T_VALUES = (F(1, 2), F(1), F(3), F(37, 53), F(2, 59))
LEVELS = range(1, 7)


# -- the oracle: each consumer's former code over the Fraction walk -------------------


def oracle_norm_counter(ifs, levels, distortion=False):
    counters = {n: {} for n in levels}
    ratios = [F(1)] * (max(levels) + 1)
    for length, _, matrix in fraction_word_tree([f.matrix for f in ifs.maps], max(levels)):
        if length in counters or (distortion and length):
            inf, sup = MoebiusMap(matrix).derivative_bounds(ifs.interval)
            if distortion:
                ratios[length] = max(ratios[length], sup / inf)
            if length in counters:
                counters[length][sup] = counters[length].get(sup, 0) + 1
    return [(counters[n], max(ratios[: n + 1])) for n in levels]


def oracle_level_cylinders(ifs, levels):
    cylinders = {n: [] for n in levels}
    for length, _, matrix in fraction_word_tree([f.matrix for f in ifs.maps], max(levels)):
        if length in cylinders:
            cylinders[length].append(MoebiusMap(matrix).image(ifs.interval))
    return [cylinders[n] for n in levels]


def oracle_diophantine(t, n, strong):
    entries = [matrix.entries() for _, matrix in fraction_compositions(family_matrices(t), n)]
    report = _separation_report(t, n, MATRIX_ENTRY, entries)
    return report.strong_form() if strong else report


def oracle_sesc(t, n, probes):
    values = [tuple(map(MoebiusMap(m), probes)) for _, m in fraction_compositions(family_matrices(t), n)]
    return _separation_report(t, n, POINTWISE_ON_X, values, tuple(probes)).strong_form()


# -- each consumer, integer against Fraction -------------------------------------------


@pytest.mark.parametrize("t", T_VALUES)
class TestConsumersMatchTheFractionWalk:
    def test_norm_multisets_and_distortion(self, t):
        fam = make_family(t)
        for distortion in (False, True):
            got = _norm_counter(fam, list(LEVELS), distortion)
            expected = oracle_norm_counter(fam, list(LEVELS), distortion)
            assert [(list(c.items()), ratio) for c, ratio in got] == [(list(c.items()), ratio) for c, ratio in expected]

    def test_level_cylinders(self, t):
        fam = make_family(t)
        assert _level_cylinders(fam, list(LEVELS)) == oracle_level_cylinders(fam, list(LEVELS))

    def test_overlap_and_relation_reports(self, t):
        for n in LEVELS:
            assert exact_overlap_search(t, n) == oracle_overlap_search(list(make_family(t).maps), n, t=t)
            assert relation_search_ABC(t, n) == oracle_relation_search(t, n)

    def test_separation_reports(self, t):
        probes = [F(0), t / 3, invariant_interval(t).right]
        for n in LEVELS:
            for strong in (False, True):
                assert diophantine_metric(t, n, strong) == oracle_diophantine(t, n, strong)
            assert sesc_metric(t, n, probes) == oracle_sesc(t, n, probes)

    def test_subsystem_builds(self, t):
        specs = [SubsystemSpec(t, n, SubsystemVariant.FULL) for n in range(1, 5)]
        specs += [SubsystemSpec(t, n, SubsystemVariant.TILDE) for n in range(1, 7)]
        for spec in specs:
            assert build_subsystem(spec) == oracle_build_subsystem(spec)


def test_decreasing_and_subsystem_maps_match():
    """Maps with negative entries, decreasing maps and many generators share one scale too."""
    sub = build_subsystem(SubsystemSpec(F(37, 53), 2, SubsystemVariant.FULL))
    decreasing = IFSInstance.build([MoebiusMap.from_entries(-F(1, 2), 1, F(1, 3), 2)], Interval(0, 1))
    for ifs, depth in ((sub, 2), (decreasing, 5)):
        levels = list(range(1, depth + 1))
        assert _norm_counter(ifs, levels, True) == oracle_norm_counter(ifs, levels, True)
        assert _level_cylinders(ifs, levels) == oracle_level_cylinders(ifs, levels)


# -- the integers are the scaled exact products -------------------------------------------


def _scaled_entries(generators, word, labels):
    """The walk's integer matrix of ``word`` (a string over ``labels``)."""
    index = "".join(str(labels.index(ch) + 1) for ch in word)
    return next(m for length, w, m in iter_word_tree(generators, len(word)) if w == index)


positive_rationals = st.builds(F, st.integers(1, 500), st.integers(1, 500))


@settings(max_examples=60, deadline=None)
@given(t=positive_rationals, word=st.text(alphabet="123", max_size=7))
def test_family_integers_over_the_scale_are_the_fraction_product(t, word):
    generators = family_matrices(t)
    s = word_scale(generators)
    assert s == (2 * t.denominator if t.denominator % 2 else t.denominator)  # lcm(2, q)
    expected = reduce(Matrix2.__matmul__, (generators[int(ch) - 1] for ch in word), Matrix2.identity())
    scaled = _scaled_entries(generators, word, "123")
    assert all(isinstance(x, int) for x in scaled)
    assert tuple(F(x, s ** len(word)) for x in scaled) == expected.entries()
    assert Matrix2.from_scaled(scaled, s ** len(word)) == expected


signed_rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(
    generators=st.lists(st.builds(Matrix2, signed_rationals, signed_rationals, signed_rationals, signed_rationals), min_size=1, max_size=4),
    data=st.data(),
)
def test_any_rational_generators_scale_to_integers(generators, data):
    word = data.draw(st.text(alphabet="".join(str(i + 1) for i in range(len(generators))), max_size=5))
    s = word_scale(generators)
    expected = reduce(Matrix2.__matmul__, (generators[int(ch) - 1] for ch in word), Matrix2.identity())
    assert Matrix2.from_scaled(_scaled_entries(generators, word, "1234"), s ** len(word)) == expected


# -- overlap keys -----------------------------------------------------------------------


class TestOverlapKeys:
    def test_relation_keys_bucket_equal_matrices_across_lengths(self):
        g = family_matrices(F(37, 53))[2]
        generators = [g, g @ g]
        keys = {w: k for level in _keys_by_length(generators, 3, across_lengths=True) for w, k in level}
        assert keys["11"] == keys["2"]
        assert keys["111"] == keys["12"] == keys["21"]
        assert keys["1"] != keys["2"]
        exact = [(w, m.entries()) for length, w, m in sorted(fraction_word_tree(generators, 3), key=lambda item: item[0]) if length]
        assert separation._bucket_pairs(keys.items()) == separation._bucket_pairs(exact)

    def test_equal_length_keys_are_the_walk_integers(self):
        g = family_matrices(F(37, 53))[2]
        levels = _keys_by_length([g, g @ g], 3)
        keys = {w: k for level in levels for w, k in level}
        assert keys["12"] == keys["21"]
        assert keys["11"] != keys["2"]  # s^2 and s times one matrix: only the exact key buckets them
        assert levels == [[(w, m) for length, w, m in iter_word_tree([g, g @ g], 3) if length == k] for k in (1, 2, 3)]
