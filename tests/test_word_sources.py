"""Geometry's one source of v3 cylinders and the one-walk overlap searches, against the code they replaced.

The oracle below is the former code: geometry built ``cylinder(v + "3", t)``
(and ``map_of_word(v, t)``) from the identity for every word at every
parameter, and the overlap searches walked the word tree again for every
length k.  Every report, the order of its counterexamples, missing pairs,
violations and pairs included, must come out exactly as the oracle's.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab import (
    Matrix2,
    MoebiusMap,
    as_fraction,
    chain_sorted,
    cylinder,
    find_common_disjoint_parameter,
    invariant_interval,
    iter_words,
    lemma3_find_threshold,
    lemma4_extremal_threshold,
    lex_successor,
    make_family,
    map_of_word,
    nondegeneracy_certificate,
    overlap_search_maps,
    relation_search_ABC,
    verify_lemma2,
    verify_lemma4,
)
from ifslab import geometry, separation, words
from ifslab.geometry import (
    CommonDisjointSearch,
    LemmaReport,
    NondegeneracyCertificate,
    OrderRelation,
    PairWitness,
    ParameterWindow,
    ThresholdWitness,
    WindowKind,
    prefix_maps,
    _v3_cylinders,
    classify_intervals,
)
from ifslab.moebius import IFSInstance, Interval
from ifslab.separation import OverlapReport, _bucket_pairs
from fraction_walk import iter_compositions
from ifslab.words import SubsystemSpec, SubsystemVariant, build_subsystem, tilde_prefixes
from test_traversal import _count_calls

T_VALUES = (F(1, 2), F(1), F(3), F(37, 53))


# -- the oracle: per-word cylinders and per-length re-walks ----------------------


def oracle_lemma2(k, t, samples=64, all_pairs=False):
    t = as_fraction(t)
    grid = invariant_interval(t).grid(samples)[1:]
    chain = chain_sorted(k)
    maps = {v: map_of_word(v, t) for v in chain}
    cylinders = {v: cylinder(v + "3", t) for v in chain}
    bad = []
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
    if all_pairs:
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                pairs += 1
                v, w = chain[i], chain[j]
                if classify_intervals(cylinders[v], cylinders[w]) not in (OrderRelation.PREC, OrderRelation.PRECSIM):
                    bad.append(f"cylinder order fails for ({v}3, {w}3)")
    return LemmaReport(ok=not bad, pairs_checked=pairs, points_checked=points, counterexamples=tuple(bad))


def oracle_lemma4(k, t):
    t = as_fraction(t)
    long_cyls = {v: cylinder(v + "3", t) for v in iter_words("12", k + 1)}
    short_cyls = {w: cylinder(w + "3", t) for w in iter_words("12", k)}
    bad = []
    pairs = 0
    for v, cv in long_cyls.items():
        for w, cw in short_cyls.items():
            pairs += 1
            if classify_intervals(cv, cw) is not OrderRelation.PREC:
                bad.append(f"({v}3, {w}3)")
    return LemmaReport(ok=not bad, pairs_checked=pairs, points_checked=0, counterexamples=tuple(bad))


def _oracle_gap(v, w, t):
    return cylinder(w + "3", t).left - cylinder(v + "3", t).right


def oracle_lemma3(v, w, t_max, resolution=F(1, 64)):
    t_max, resolution = as_fraction(t_max), as_fraction(resolution)
    t = resolution
    checked = 0
    best_t = best_gap = prev = None
    while True:
        probe = min(t, t_max)
        gap = _oracle_gap(v, w, probe)
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
            if _oracle_gap(v, w, mid) > 0:
                hi = mid
            else:
                lo = mid
    return ThresholdWitness(v, w, True, hi, lo, hi, _oracle_gap(v, w, hi), checked)


def _oracle_prefixes(n):
    return [v for k in range(n) for v in iter_words("12", k)]


def oracle_certificate(n, t_grid):
    grid = tuple(as_fraction(t) for t in t_grid)
    prefixes = _oracle_prefixes(n)
    cyls = {t: {v: cylinder(v + "3", t) for v in prefixes} for t in grid}
    witnesses = []
    missing = []
    for i in range(len(prefixes)):
        for j in range(i + 1, len(prefixes)):
            v, w = prefixes[i], prefixes[j]
            for t in grid:
                if not cyls[t][v].intersects(cyls[t][w]):
                    witnesses.append(PairWitness(v, w, t, classify_intervals(cyls[t][v], cyls[t][w])))
                    break
            else:
                missing.append((v, w))
    window = ParameterWindow(n, min(grid), max(grid), WindowKind.PER_PAIR_CERTIFICATE) if grid and not missing else None
    return NondegeneracyCertificate(n, grid, not missing and bool(grid), window, tuple(witnesses), tuple(missing))


def oracle_common_disjoint(n, t_range, resolution):
    lo, hi = (as_fraction(x) for x in t_range)
    resolution = as_fraction(resolution)
    prefixes = _oracle_prefixes(n)
    grid = [lo]
    while grid[-1] < hi:
        grid.append(min(grid[-1] + resolution, hi))

    def violations_at(t):
        cyls = {v: cylinder(v + "3", t) for v in prefixes}
        found = []
        for i in range(len(prefixes)):
            for j in range(i + 1, len(prefixes)):
                if cyls[prefixes[i]].intersects(cyls[prefixes[j]]):
                    found.append((prefixes[i], prefixes[j]))
        return found

    per_point = [(t, violations_at(t)) for t in grid]
    ok_points = tuple(t for t, bad in per_point if not bad)
    best_run, run = [], []
    for t, bad in per_point:
        if not bad:
            run.append(t)
            if len(run) > len(best_run):
                best_run = list(run)
        else:
            run = []
    if best_run:
        window = ParameterWindow(n, best_run[0], best_run[-1], WindowKind.COMMON_DISJOINT)
        return CommonDisjointSearch(n, tuple(grid), True, window, ok_points, None, ())
    best_t, best_bad = min(per_point, key=lambda item: len(item[1]))
    return CommonDisjointSearch(n, tuple(grid), False, None, ok_points, best_t, tuple(best_bad))


def _oracle_bucket_pairs(buckets, restrict=None):
    pairs = []
    for words in buckets.values():
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                u, w = words[i], words[j]
                if restrict is None or restrict(u, w):
                    pairs.append((u, w))
    return pairs


def oracle_overlap_search(maps, n, t=None):
    generators = [f.matrix for f in maps]
    searched = 0
    pairs = []
    for k in range(1, n + 1):
        buckets = {}
        for word, matrix in iter_compositions(generators, k):
            searched += 1
            buckets.setdefault(matrix.entries(), []).append(word)
        pairs.extend(_oracle_bucket_pairs(buckets))
    return OverlapReport(t=t, level=n, pairs=tuple(pairs), words_searched=searched)


def oracle_relation_search(t, depth, alphabet="123"):
    """The former relation search; ``separation.make_family`` supplies its system, as it does the new one's."""
    t = as_fraction(t)
    family = separation.make_family(t)
    note = ""
    if "3" in alphabet:
        third = family.maps[2].image(family.interval)
        others = Interval(
            min(f.image(family.interval).left for f in family.maps[:2]),
            max(f.image(family.interval).right for f in family.maps[:2]),
        )
        if third.intersects(others):
            note = "third-symbol image overlaps the first two; pruning disabled"
        else:
            note = "third-symbol image disjoint from the first two; leading 3 pruned"
    generators = [family.maps[i].matrix for i in range(len(alphabet))]
    leaders = alphabet[:2] if not note.startswith("third-symbol image overlaps") else alphabet
    buckets = {}
    searched = 0
    for k in range(1, depth + 1):
        for word, matrix in iter_compositions(generators, k):  # alphabet is "12" or "123": positional labels
            searched += 1
            if word[0] in leaders:
                buckets.setdefault(matrix.entries(), []).append(word)
    pairs = _oracle_bucket_pairs(buckets, restrict=lambda u, w: u[0] != w[0])
    return OverlapReport(t=t, level=depth, pairs=tuple(pairs), words_searched=searched, note=note)


def _consecutive_pairs(k):
    return [(v, lex_successor(v)) for v in chain_sorted(k) if lex_successor(v) is not None]


def _commuting_maps():
    return [MoebiusMap.affine(F(1, 2), 0), MoebiusMap.affine(F(1, 4), 0), MoebiusMap.affine(F(1, 8), 0)]


# -- the cylinder source ---------------------------------------------------------


class TestCylinderSource:
    @pytest.mark.parametrize("t", T_VALUES)
    def test_equals_per_word_cylinders(self, t):
        prefixes = tilde_prefixes(6)
        assert _v3_cylinders(prefix_maps(prefixes), t) == {v: cylinder(v + "3", t) for v in prefixes}

    def test_maps_are_the_family_maps_at_every_parameter(self):
        maps = prefix_maps(tilde_prefixes(5))
        for t in T_VALUES:
            assert maps == {v: map_of_word(v, t) for v in tilde_prefixes(5)}

    def test_keeps_the_callers_order(self):
        order = ["21", "12", "", "2", "111"]
        assert list(prefix_maps(order)) == order
        assert list(_v3_cylinders(prefix_maps(order), F(3))) == order

    def test_rejects_non_positive_parameters(self):
        maps = prefix_maps(["1", "2"])
        for t in (F(0), F(-1)):
            with pytest.raises(ValueError, match="positive"):
                _v3_cylinders(maps, t)

    def test_tilde_prefixes_are_the_tilde_subsystem_words(self):
        for n in range(1, 6):
            assert [v + "3" for v in tilde_prefixes(n)] == list(build_subsystem(SubsystemSpec(1, n, SubsystemVariant.TILDE)).names)
            assert tilde_prefixes(n) == _oracle_prefixes(n)


rationals = st.builds(F, st.integers(1, 400), st.integers(1, 151))


@settings(max_examples=30, deadline=None)
@given(t=rationals)
def test_random_parameter_source_matches_per_word_cylinders(t):
    prefixes = tilde_prefixes(6)  # every v over {1,2} up to length 5
    cylinders = _v3_cylinders(prefix_maps(prefixes), t)
    for v in prefixes:
        assert cylinders[v] == cylinder(v + "3", t)


# -- whole reports against the oracle --------------------------------------------


@pytest.mark.parametrize("t", T_VALUES)
class TestGeometryMatchesOracle:
    def test_lemma2(self, t):
        for k in range(1, 6):
            assert verify_lemma2(k, t) == oracle_lemma2(k, t, all_pairs=True)

    def test_lemma4(self, t):
        for k in range(1, 5):
            assert verify_lemma4(k, t) == oracle_lemma4(k, t)

    def test_lemma3(self, t):
        for k in (1, 2, 3):
            for v, w in _consecutive_pairs(k):
                for t_max in (t, 8 * t, F(64)):
                    assert lemma3_find_threshold(v, w, t_max, F(1, 32)) == oracle_lemma3(v, w, t_max, F(1, 32))

    def test_certificate(self, t):
        for n in (2, 3, 4, 5):
            for grid in ([t], [t, 2 * t, 64 * t], [t / 8, t, 100]):
                assert nondegeneracy_certificate(n, grid) == oracle_certificate(n, grid)

    def test_common_disjoint_search(self, t):
        for n in (2, 3, 4):
            for t_range, resolution in (((t, 4 * t), t / 2), ((t / 3, t), t / 7), ((t, t), F(1))):
                found = find_common_disjoint_parameter(n, t_range, resolution)
                assert found == oracle_common_disjoint(n, t_range, resolution)


class TestFailingReportsKeepTheirOrder:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_lemma4_just_above_the_extremal_threshold(self, k):
        t = lemma4_extremal_threshold(k) + F(1, 1000)
        report = verify_lemma4(k, t)
        assert not report.ok
        assert report == oracle_lemma4(k, t)
        assert report.counterexamples[0] == f"({'2' * (k + 1)}3, {'1' * k}3)"

    def test_lemma4_well_past_the_threshold_fails_many_pairs(self):
        report = verify_lemma4(3, 12)
        assert len(report.counterexamples) > 10
        assert report == oracle_lemma4(3, 12)

    def test_certificate_missing_pairs(self):
        cert = nondegeneracy_certificate(4, [F(1, 4), F(1, 2)])
        assert len(cert.missing) > 1 and cert.witnesses
        assert cert == oracle_certificate(4, [F(1, 4), F(1, 2)])

    def test_common_disjoint_violations(self):
        search = find_common_disjoint_parameter(4, (F(1, 4), F(3, 2)), F(1, 4))
        assert not search.found and len(search.best_violations) > 1
        assert search == oracle_common_disjoint(4, (F(1, 4), F(3, 2)), F(1, 4))

    def test_common_disjoint_first_longest_run(self):
        # Two windows of two points each, 7/2..15/4 and 27/4..7: the first one is reported.
        search = find_common_disjoint_parameter(3, (F(7, 2), F(7)), F(1, 4))
        assert search.ok_points == (F(7, 2), F(15, 4), F(27, 4), F(7))
        assert (search.window.t_lo, search.window.t_hi) == (F(7, 2), F(15, 4))
        assert search == oracle_common_disjoint(3, (F(7, 2), F(7)), F(1, 4))


class TestLemma3Orientation:
    def test_successor_earlier_in_plain_order(self):
        # lex_successor("21") is "12", which comes first in plain order: the gap
        # must still be taken from v's cylinder to w's, never in tree order.
        assert lex_successor("21") == "12"
        for t in T_VALUES:
            maps = prefix_maps(["21", "12"])
            assert geometry._pair_gap(maps, "21", "12", t) == _oracle_gap("21", "12", t)
            assert geometry._pair_gap(maps, "21", "12", t) != _oracle_gap("12", "21", t)
        found = lemma3_find_threshold("21", "12", 64, F(1, 128))
        assert (found.v, found.w) == ("21", "12")
        assert found == oracle_lemma3("21", "12", 64, F(1, 128))

    def test_every_pair_with_a_late_successor(self):
        for k in (2, 3, 4):
            for v, w in _consecutive_pairs(k):
                if w < v:
                    assert lemma3_find_threshold(v, w, 16, F(1, 16)) == oracle_lemma3(v, w, 16, F(1, 16))


# -- the one-walk overlap searches -----------------------------------------------


class TestOverlapSearchOneWalk:
    def test_commuting_maps_pairs_in_length_then_plain_order(self):
        report = overlap_search_maps(_commuting_maps(), 2)
        assert report.pairs == (("12", "21"), ("13", "22"), ("13", "31"), ("22", "31"), ("23", "32"))
        assert report.words_searched == 3 + 9

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_commuting_maps_match_oracle(self, n):
        maps = _commuting_maps()
        assert overlap_search_maps(maps, n) == oracle_overlap_search(maps, n)

    @pytest.mark.parametrize("t", T_VALUES)
    def test_family_matches_oracle(self, t):
        maps = list(make_family(t).maps)
        assert overlap_search_maps(maps, 4, t) == oracle_overlap_search(maps, 4, t)

    def test_duplicate_generators(self):
        f2 = make_family(1).maps[1]
        assert overlap_search_maps([f2, f2, f2], 3) == oracle_overlap_search([f2, f2, f2], 3)

    def test_bucket_pairs_keep_first_seen_order(self):
        items = [("a", 1), ("b", 2), ("c", 1), ("d", 2), ("e", 1)]
        assert _bucket_pairs(items) == [("a", "c"), ("a", "e"), ("c", "e"), ("b", "d")]
        assert _bucket_pairs(items, restrict=lambda u, w: w != "e") == [("a", "c"), ("b", "d")]


class TestRelationSearchOneWalk:
    @pytest.fixture
    def commuting_family(self, monkeypatch):
        ifs = IFSInstance.build(_commuting_maps(), Interval(F(0), F(1)))
        monkeypatch.setattr(separation, "make_family", lambda t: ifs)

    def test_cross_length_bucket_fills_by_length_then_plain_order(self, commuting_family):
        report = relation_search_ABC(1, 3)
        assert report.note.startswith("third-symbol image overlaps")
        # x/4 is "2" at length 1 and "11" at length 2: depth-first order would list "11" first.
        assert report.pairs[0] == ("2", "11")
        assert report == oracle_relation_search(1, 3)

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_commuting_family_matches_oracle(self, commuting_family, depth):
        assert relation_search_ABC(1, depth) == oracle_relation_search(1, depth)

    @pytest.mark.parametrize("t", T_VALUES)
    def test_family_matches_oracle(self, t):
        for depth in (1, 3, 5):
            assert relation_search_ABC(t, depth) == oracle_relation_search(t, depth)


# -- work done ---------------------------------------------------------------------


class TestWorkCounts:
    @pytest.mark.parametrize("n, grid", [(2, [F(1)]), (4, [F(1, 2), F(1), F(3)]), (5, [F(37, 53), F(9)])])
    def test_certificate_products(self, monkeypatch, n, grid):
        integer = _count_calls(monkeypatch, words, "int_matmul")
        exact = _count_calls(monkeypatch, Matrix2, "__matmul__")
        nondegeneracy_certificate(n, grid)
        assert len(integer) + len(exact) <= 2**n - 2 + len(grid)

    def test_relation_search_products(self, monkeypatch):
        integer = _count_calls(monkeypatch, words, "int_matmul")
        exact = _count_calls(monkeypatch, Matrix2, "__matmul__")
        relation_search_ABC(1, 6)
        assert (len(integer), len(exact)) == (1092, 0)

    def test_overlap_search_products(self, monkeypatch):
        maps = list(make_family(1).maps)
        integer = _count_calls(monkeypatch, words, "int_matmul")
        exact = _count_calls(monkeypatch, Matrix2, "__matmul__")
        overlap_search_maps(maps, 5)
        assert (len(integer), len(exact)) == (3 + 9 + 27 + 81 + 243, 0)

    def test_one_third_cylinder_per_parameter(self, monkeypatch):
        calls = _count_calls(monkeypatch, geometry, "cylinder")
        grid = [F(1, 2), F(1), F(3)]
        nondegeneracy_certificate(4, grid)
        assert len(calls) == len(grid)
        calls.clear()
        search = find_common_disjoint_parameter(3, (F(2), F(4)), F(1, 2))
        assert len(calls) == len(search.grid)
        calls.clear()
        verify_lemma4(4, 3)
        verify_lemma2(4, 3)
        assert len(calls) == 2

    def test_lemma3_builds_its_maps_once(self, monkeypatch):
        walks = _count_calls(monkeypatch, words, "iter_word_tree")  # the t-free walk of words.prefix_maps
        calls = _count_calls(monkeypatch, geometry, "cylinder")
        found = lemma3_find_threshold("211", "121", 64, F(1, 128))
        assert len(walks) == 1
        assert len(calls) == found.checked + 1


class TestCommonDisjointGridBound:
    def test_grid_points_unchanged(self):
        for lo, hi, resolution in ((F(1), F(3), F(1, 2)), (F(1), F(3), F(2, 3)), (F(2), F(2), F(1)), (F(1, 3), F(1), F(5))):
            search = find_common_disjoint_parameter(2, (lo, hi), resolution)
            assert search.grid == oracle_common_disjoint(2, (lo, hi), resolution).grid

    def test_over_cap_is_rejected_before_the_grid_is_built(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_GRID_POINTS", 5)
        assert len(find_common_disjoint_parameter(2, (F(1), F(3)), F(1, 2)).grid) == 5
        with pytest.raises(ValueError, match="6 points"):
            find_common_disjoint_parameter(2, (F(1), F(3)), F(2, 5))

    def test_default_cap(self):
        with pytest.raises(ValueError, match="at most 10000"):
            find_common_disjoint_parameter(3, (F(1), F(1000)), F(1, 10**9))
