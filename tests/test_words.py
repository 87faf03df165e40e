"""Word enumeration, the chain order, cylinders and derived subsystems."""

import itertools
from fractions import Fraction as F

import pytest

from ifslab import (
    Interval,
    MoebiusMap,
    SubsystemSpec,
    SubsystemVariant,
    build_subsystem,
    chain_sorted,
    cylinder,
    invariant_interval,
    lex_successor,
    map_of_word,
    make_family,
)
from ifslab.words import check_level, iter_words, max_level
from test_moebius import closed_form_power_first


def chain_position(word):
    return chain_sorted(len(word)).index(word)


class TestEnumeration:
    def test_two_symbol_level_two(self):
        assert list(iter_words("12", 2)) == ["11", "12", "21", "22"]

    def test_three_symbol_level_one(self):
        assert list(iter_words("123", 1)) == ["1", "2", "3"]

    def test_count_level_five(self):
        assert sum(1 for _ in iter_words("123", 5)) == 3**5

    def test_streaming_matches_list(self):
        words = iter_words("123", 3)
        assert next(words) == "111"  # a lazy stream, not a list
        assert ["111", *words] == ["".join(p) for p in itertools.product("123", repeat=3)]

    def test_empty_level(self):
        assert list(iter_words("123", 0)) == [""]


class TestChainOrder:
    def test_chain_examples(self):
        assert chain_position("111") < chain_position("211")
        assert chain_position("122") < chain_position("222")
        assert chain_position("21") < chain_position("12")

    def test_rejects_third_symbol(self):
        with pytest.raises(ValueError):
            lex_successor("13")

    def test_chain_endpoints(self):
        for k in range(1, 7):
            chain = chain_sorted(k)
            assert chain[0] == "1" * k
            assert chain[1] == "2" + "1" * (k - 1)
            assert chain[-2] == "1" + "2" * (k - 1)
            assert chain[-1] == "2" * k
            assert len(chain) == 2**k

    def test_consecutive_pairs_have_flip_shape(self):
        # every consecutive pair is (2^m 1 u, 1^m 2 u) for some m >= 0
        for k in range(1, 7):
            chain = chain_sorted(k)
            for v, w in zip(chain, chain[1:]):
                m = 0
                while v[m] == "2":
                    m += 1
                assert v[m] == "1"
                assert w == "1" * m + "2" + v[m + 1:]
                assert lex_successor(v) == w
        assert lex_successor("2" * 5) is None

    def test_chain_agrees_with_compare(self):
        # the leftmost symbol is least significant: the chain order is plain order on reversed words
        chain = chain_sorted(4)
        for i in range(len(chain)):
            for j in range(len(chain)):
                v, w = chain[i][::-1], chain[j][::-1]
                assert (i > j) - (i < j) == (v > w) - (v < w)


class TestWordMaps:
    def test_power_word_matches_closed_form(self):
        assert map_of_word("1" * 5, 1).matrix == closed_form_power_first(5)

    def test_two_two_one_word(self):
        # f_{221}(x) = x / (4^3 (1 + x))
        f = map_of_word("221", 1)
        assert f(1) == F(1, 128)
        assert f(F(1, 2)) == F(1, 2) / (64 * F(3, 2))

    def test_empty_word_is_identity(self):
        f = map_of_word("", 1)
        assert f(F(3, 7)) == F(3, 7)

    def test_fold_evaluation_matches_matrix_exhaustive(self):
        # homomorphism: matrix action equals symbol-by-symbol evaluation,
        # exhaustively for all words of length <= 8
        fam = make_family(1)
        by_symbol = dict(zip("123", fam.maps))
        x = F(1, 3)
        frontier = [("", map_of_word("", 1))]
        for _ in range(8):
            frontier = [(u + ch, MoebiusMap(f.matrix @ by_symbol[ch].matrix)) for u, f in frontier for ch in "123"]
            for u, f in frontier:
                value = x
                for ch in reversed(u):
                    value = by_symbol[ch](value)
                assert f(x) == value


class TestCylinders:
    def test_unit_parameter_cylinders(self):
        assert cylinder("3", 1) == Interval(F(1, 2), F(2, 3))
        assert cylinder("23", 1) == Interval(F(1, 8), F(1, 6))
        assert cylinder("13", 1) == Interval(F(1, 12), F(1, 10))
        assert cylinder("", 1) == invariant_interval(1)

    def test_nesting_exhaustive_to_length_four(self):
        t = F(1)
        words = [u for k in range(1, 5) for u in iter_words("123", k)]
        cyls = {u: cylinder(u, t) for u in words}
        maps = {u: map_of_word(u, t) for u in words}
        for u in words:
            for v in words:
                inner = maps[u].image(cyls[v])  # cylinder of uv
                assert cyls[u].contains_interval(inner)

    def test_subsystem_cylinder_equals_full_cylinder(self):
        spec = SubsystemSpec(F(1), 2, SubsystemVariant.FULL)
        sub = build_subsystem(spec)
        for name, f in zip(sub.names, sub.maps):
            assert f.image(sub.interval) == cylinder(name, 1)


class TestSubsystems:
    def test_full_level_two_words(self):
        spec = SubsystemSpec(F(1), 2, SubsystemVariant.FULL)
        assert build_subsystem(spec).names == ("13", "23", "31", "32", "33")

    def test_tilde_level_three_words(self):
        spec = SubsystemSpec(F(1), 3, SubsystemVariant.TILDE)
        assert build_subsystem(spec).names == ("3", "13", "23", "113", "123", "213", "223")

    def test_full_level_one(self):
        assert build_subsystem(SubsystemSpec(F(1), 1, SubsystemVariant.FULL)).names == ("3",)

    def test_counts(self):
        for n in range(1, 6):
            for variant, size in ((SubsystemVariant.FULL, 3**n - 2**n), (SubsystemVariant.TILDE, 2**n - 1)):
                spec = SubsystemSpec(F(1), n, variant)
                assert spec.size() == size
                assert len(build_subsystem(spec).names) == size

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SubsystemSpec(F(1), 0, SubsystemVariant.FULL)
        with pytest.raises(ValueError):
            SubsystemSpec(F(0), 2, SubsystemVariant.FULL)

    def test_built_subsystem_is_contracting(self):
        sub = build_subsystem(SubsystemSpec(F(1), 2, SubsystemVariant.FULL))
        assert len(sub) == 5
        assert sub.gamma_upper == F(1, 16)
        assert sub.interval == invariant_interval(1)

    def test_block_decomposition(self):
        # any concatenation of keep-a-3 level-2 words splits into blocks v3
        # of length <= 3 plus a tail over {1,2} of length <= 1
        n = 2
        alphabet = build_subsystem(SubsystemSpec(F(1), n, SubsystemVariant.FULL)).names
        stack = [""]
        for _ in range(2 * n):  # up to 4 blocks = length 4n
            stack = [w + a for w in stack for a in alphabet]
            for word in stack:
                segments = word.split("3")
                tail = segments.pop()
                assert set(tail) <= {"1", "2"} and len(tail) <= n - 1
                for v in segments:
                    assert len(v + "3") <= 2 * n - 1


class TestLevelCap:
    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv("IFSLAB_MAX_LEVEL", raising=False)
        assert max_level() == 12
        with pytest.raises(ValueError):
            check_level(13)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("IFSLAB_MAX_LEVEL", "5")
        assert max_level() == 5
        with pytest.raises(ValueError):
            chain_sorted(6)
        monkeypatch.setenv("IFSLAB_MAX_LEVEL", "not-a-number")
        with pytest.raises(ValueError):
            max_level()
