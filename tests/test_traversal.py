"""The shared word-tree traversal against the recursive walks it replaced.

The four recursions below are the hand-written walks the package used before
it had one traversal (compositions, leaf norms, distortion and level
cylinders).  They stay here as the oracle: every consumer of
``iter_word_tree`` must reproduce them exactly, order included.  The walk
yields s^length times each word matrix as integers; ``exact`` turns its
items back into ``Matrix2`` values for the comparison.
"""

from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab import (
    IFSInstance,
    Interval,
    Matrix2,
    MoebiusMap,
    SubsystemSpec,
    SubsystemVariant,
    build_subsystem,
    dimension_bracket,
    distortion_constant,
    family_matrices,
    iter_words,
    make_family,
    map_of_word,
    solve_level_dimension,
    subsystem_dimension_report,
)
from ifslab.geometry import _level_cylinders
from ifslab import pressure
from ifslab.pressure import _norm_counter, level_report
from fraction_walk import iter_word_tree as fraction_word_tree
from test_moebius import image_oracle
from ifslab import words
from ifslab.words import iter_compositions, iter_word_tree, word_scale

T_VALUES = (F(1, 2), F(1), F(3), F(37, 53))


# -- the oracle: the recursive walks the traversal replaced ----------------------


def oracle_compositions(generators, n, alphabet="123"):
    def walk(prefix, matrix):
        if len(prefix) == n:
            yield prefix, matrix
            return
        for ch, g in zip(alphabet, generators):
            yield from walk(prefix + ch, matrix @ g)

    yield from walk("", Matrix2.identity())


def oracle_norm_counter(ifs, n):
    generators = [f.matrix for f in ifs.maps]
    counter = {}

    def walk(matrix, depth):
        if depth == n:
            _, sup = oracle_derivative_bounds(MoebiusMap(matrix), ifs.interval)
            counter[sup] = counter.get(sup, 0) + 1
            return
        for g in generators:
            walk(matrix @ g, depth + 1)

    walk(Matrix2.identity(), 0)
    return counter


def oracle_distortion(ifs, depth):
    generators = [f.matrix for f in ifs.maps]
    best = F(1)

    def walk(matrix, level):
        nonlocal best
        if level > 0:
            inf, sup = oracle_derivative_bounds(MoebiusMap(matrix), ifs.interval)
            if sup / inf > best:
                best = sup / inf
        if level < depth:
            for g in generators:
                walk(matrix @ g, level + 1)

    walk(Matrix2.identity(), 0)
    return best


def oracle_level_cylinders(ifs, n):
    generators = [f.matrix for f in ifs.maps]
    out = []

    def walk(matrix, depth):
        if depth == n:
            out.append(image_oracle(MoebiusMap(matrix), ifs.interval))
            return
        for g in generators:
            walk(matrix @ g, depth + 1)

    walk(Matrix2.identity(), 0)
    return out


def exact(generators, items):
    """(word, Matrix2) of each (length, word, integer matrix) item of ``iter_word_tree(generators, ...)``."""
    s = word_scale(generators)
    return [(word, Matrix2.from_scaled(matrix, s**length)) for length, word, matrix in items]


def exact_compositions(generators, n):
    return exact(generators, ((n, word, matrix) for word, matrix in iter_compositions(generators, n)))


def oracle_derivative_bounds(f, interval):
    values = (abs(f.derivative(interval.left)), abs(f.derivative(interval.right)))
    return min(values), max(values)


def oracle_word_matrix(word, generators, alphabet="123"):
    result = Matrix2.identity()
    for ch in word:
        result = result @ generators[alphabet.index(ch)]
    return result


# -- systems and depths compared ------------------------------------------------


def _two_maps_without_names():
    fam = make_family(1)
    return IFSInstance.build([fam.maps[0], fam.maps[2]], fam.interval)


SYSTEMS = {
    **{f"family t={t}": (make_family(t), 5) for t in T_VALUES},
    "full:3": (build_subsystem(SubsystemSpec(1, 3, SubsystemVariant.FULL)), 2),
    "tilde:3": (build_subsystem(SubsystemSpec(1, 3, SubsystemVariant.TILDE)), 3),
    "two maps, names=None": (_two_maps_without_names(), 5),
    # Decreasing, with sup/inf 25/4 over the length-1 words but 225/49 over the length-2 ones:
    # the depth-n distortion is a maximum over all lengths 1..n, not over length n alone.
    "one decreasing map": (IFSInstance.build([MoebiusMap.from_entries(F(2, 3), 1, 3, 2)], Interval(0, 1)), 4),
}


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestTraversal:
    def test_every_word_to_length_six_in_order(self):
        generators = family_matrices(F(37, 53))
        items = list(iter_word_tree(generators, 6))
        words = sorted(w for k in range(7) for w in iter_words("123", k))  # depth-first order
        assert [(length, word) for length, word, _ in items] == [(len(w), w) for w in words]
        for word, matrix in exact(generators, items):
            assert matrix == oracle_word_matrix(word, generators)

    def test_each_length_comes_out_in_plain_order(self):
        items = list(iter_word_tree(family_matrices(1), 4))
        for k in range(5):
            assert [w for length, w, _ in items if length == k] == list(iter_words("123", k))

    def test_one_product_per_nonempty_word(self, monkeypatch):
        calls = _count_calls(monkeypatch, words, "int_matmul")
        assert sum(1 for _ in iter_word_tree(family_matrices(1), 5)) == 1 + 3 + 9 + 27 + 81 + 243
        assert len(calls) == 3 + 9 + 27 + 81 + 243

    def test_map_of_word_starts_from_the_first_letter(self, monkeypatch):
        t = F(37, 53)
        generators = family_matrices(t)
        s = word_scale(generators)
        scaled = {ch: tuple(int(x * s) for x in g.entries()) for ch, g in zip("123", generators)}
        expected = {word: oracle_word_matrix(word, generators) for word in ("", "1", "3", "21", "3123", "1232132")}
        products = []
        original = words.int_matmul

        def recording(m, g):
            products.append((m, g))
            return original(m, g)

        monkeypatch.setattr(words, "int_matmul", recording)
        exact = _count_calls(monkeypatch, Matrix2, "__matmul__")
        for word, matrix in expected.items():
            products.clear()
            assert map_of_word(word, t).matrix == matrix
            # One integer product per letter after the first, each the running product times that letter.
            assert [g for _, g in products] == [scaled[ch] for ch in word[1:]]
            assert [m for m, _ in products[:1]] == [scaled[ch] for ch in word[:1]][: len(products)]
        assert expected[""] == Matrix2.identity()
        assert exact == []

    def test_streams_depth_first(self):
        # A materialized level 12 would be 3^12 products; the first 13 items need 36.
        first = list(islice(iter_word_tree(family_matrices(1), 12), 13))
        assert [word for _, word, _ in first] == ["1" * k for k in range(13)]

    def test_default_labels_count_from_one(self):
        sub = build_subsystem(SubsystemSpec(1, 3, SubsystemVariant.FULL))
        level_one = [w for length, w, _ in iter_word_tree([f.matrix for f in sub.maps], 1) if length == 1]
        assert level_one == [str(i + 1) for i in range(len(sub))]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            next(iter_word_tree(family_matrices(1), -1))

    def test_level_cap_applies(self, monkeypatch):
        monkeypatch.setenv("IFSLAB_MAX_LEVEL", "3")
        with pytest.raises(ValueError, match="cap"):
            next(iter_word_tree(family_matrices(1), 4))

    @pytest.mark.parametrize("width, n, admitted", [(9, 2, True), (10, 2, False), (2, 4, True), (3, 4, True)])
    def test_word_budget_is_three_to_the_cap(self, monkeypatch, width, n, admitted):
        # Cap 4: a walk may visit 3^4 = 81 words, so 9^2 passes and 10^2 does not, before any product.
        monkeypatch.setenv("IFSLAB_MAX_LEVEL", "4")
        calls = _count_calls(monkeypatch, words, "int_matmul")
        walk = iter_word_tree([Matrix2.identity()] * width, n)
        if admitted:
            assert sum(1 for length, _, _ in walk if length == n) == width**n
        else:
            with pytest.raises(ValueError, match=f"visits {width}\\^{n} words, over the cap 3\\^4"):
                next(walk)
            assert calls == []

    @pytest.mark.parametrize("t", T_VALUES)
    def test_compositions_match_oracle(self, t):
        generators = family_matrices(t)
        for n in range(6):
            assert exact_compositions(generators, n) == list(oracle_compositions(generators, n))


@pytest.mark.parametrize("name", list(SYSTEMS))
class TestConsumersMatchOracle:
    def test_norm_counter(self, name):
        ifs, depth = SYSTEMS[name]
        for n in range(1, depth + 1):
            expected = list(oracle_norm_counter(ifs, n).items())
            assert list(_norm_counter(ifs, [n])[0][0].items()) == expected
            assert list(_norm_counter(ifs, [n], distortion=True)[0][0].items()) == expected

    def test_distortion_constant(self, name):
        ifs, depth = SYSTEMS[name]
        for n in range(1, depth + 1):
            expected = oracle_distortion(ifs, n)
            assert distortion_constant(ifs, n).value == expected
            assert _norm_counter(ifs, [n], distortion=True)[0][1] == expected

    def test_level_cylinders(self, name):
        ifs, depth = SYSTEMS[name]
        for n in range(1, depth + 1):
            assert _level_cylinders(ifs, [n]) == [oracle_level_cylinders(ifs, n)]

    def test_every_level_from_one_walk(self, name):
        ifs, depth = SYSTEMS[name]
        levels = [depth, 1, depth, *range(1, depth)]
        norms = _norm_counter(ifs, levels, distortion=True)
        assert [list(counter.items()) for counter, _ in norms] == [list(oracle_norm_counter(ifs, n).items()) for n in levels]
        assert [ratio for _, ratio in norms] == [oracle_distortion(ifs, n) for n in levels]
        assert [ratio for _, ratio in _norm_counter(ifs, levels)] == [1] * len(levels)
        assert _level_cylinders(ifs, levels) == [oracle_level_cylinders(ifs, n) for n in levels]


class TestOneWalkPerLevel:
    @pytest.mark.parametrize("t", T_VALUES)
    def test_level_report_equals_the_separate_calls(self, t):
        fam = make_family(t)
        for n in (1, 2, 4):
            for tol in (1e-12, 1e-8):
                [(level, bracket)] = level_report(fam, [n], tol)
                assert level == solve_level_dimension(fam, n, tol)
                assert bracket == dimension_bracket(fam, n, distortion_constant(fam, n).value, tol)

    def test_level_report_walks_the_tree_once(self, monkeypatch):
        fam = make_family(1)
        products = _count_calls(monkeypatch, words, "int_matmul")
        bounds = _count_calls(monkeypatch, pressure, "int_endpoint_denominators")
        sups = _count_calls(monkeypatch, pressure, "int_abs_derivative")
        level_report(fam, [4])
        assert len(products) == 3 + 9 + 27 + 81
        assert len(bounds) == 3 + 9 + 27 + 81
        assert len(sups) == 81

    def test_one_determinant_per_word(self, monkeypatch):
        # Every word of length 1..6 gets one pole check for the distortion ratio; only the counted
        # words (lengths 2 and 6) get an integer determinant, through the one |f'| rule; no Fraction det.
        fam = make_family(1)
        bounds = _count_calls(monkeypatch, pressure, "int_endpoint_denominators")
        sups = _count_calls(monkeypatch, pressure, "int_abs_derivative")
        dets = _count_calls(monkeypatch, Matrix2, "det")
        level_report(fam, [2, 6])
        assert len(bounds) == 3 + 9 + 27 + 81 + 243 + 729
        assert len(sups) == 9 + 729
        assert dets == []

    def test_leaf_walks_bound_only_the_leaves(self, monkeypatch):
        fam = make_family(1)
        bounds = _count_calls(monkeypatch, pressure, "int_endpoint_denominators")
        sups = _count_calls(monkeypatch, pressure, "int_abs_derivative")
        solve_level_dimension(fam, 4)
        assert len(bounds) == len(sups) == 81

    def test_subsystem_report_uses_the_one_walk(self):
        report = subsystem_dimension_report(F(7, 5), 2)
        sub = build_subsystem(SubsystemSpec(F(7, 5), 2, SubsystemVariant.FULL))
        assert report.s1 == solve_level_dimension(sub, 1)
        assert report.bracket == dimension_bracket(sub, 1, distortion_constant(sub, 1).value)


class TestDerivativeBounds:
    @pytest.mark.parametrize("t", T_VALUES)
    def test_match_the_endpoint_derivatives(self, t):
        fam = make_family(t)
        for _, _, matrix in fraction_word_tree(family_matrices(t), 4):
            f = MoebiusMap(matrix)
            assert f.derivative_bounds(fam.interval) == oracle_derivative_bounds(f, fam.interval)


rationals = st.builds(F, st.integers(1, 200), st.integers(1, 97))


@settings(max_examples=25, deadline=None)
@given(t=rationals, n=st.integers(1, 4))
def test_random_parameter_matches_oracle(t, n):
    fam = make_family(t)
    generators = family_matrices(t)
    assert exact_compositions(generators, n) == list(oracle_compositions(generators, n))
    assert list(_norm_counter(fam, [n])[0][0].items()) == list(oracle_norm_counter(fam, n).items())
    assert distortion_constant(fam, n).value == oracle_distortion(fam, n)
    assert _level_cylinders(fam, [n]) == [oracle_level_cylinders(fam, n)]
    [(level, bracket)] = level_report(fam, [n])
    assert level == solve_level_dimension(fam, n)
    assert bracket == dimension_bracket(fam, n, distortion_constant(fam, n).value)
    for _, _, matrix in fraction_word_tree(generators, n):
        f = MoebiusMap(matrix)
        assert f.derivative_bounds(fam.interval) == oracle_derivative_bounds(f, fam.interval)
