"""Exact overlap search, semigroup freeness certification and separation metrics.

An *exact overlap* is a pair of distinct words inducing literally the same
matrix.  All generator products here have determinant 1 and nonnegative
entries, so matrix equality coincides with equality of the induced maps, and
every verdict below is a pure rational computation, reproducible bit for bit.

Freeness of the sub-semigroup generated by the first two maps is certified by
conjugating the (scaled) inverse generators into the integer matrices

    E = [[4, 0], [0, 1]],   F = [[4, 0], [1, 1]],

whose products are lower triangular with bottom row (m, 1): any product
ending in E has bottom-left divisible by 4, any ending in F has residue 1
mod 4, so no word in E can equal a word in F.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, groupby
from operator import itemgetter

from .moebius import Interval, Matrix2, MoebiusMap, RationalLike, as_fraction, family_matrices, int_value, invariant_interval, make_family
from .words import check_level, iter_compositions, iter_word_tree, word_scale

POINTWISE_ON_X = "POINTWISE_ON_X"
MATRIX_ENTRY = "MATRIX_ENTRY"
MAX_RESIDUE_SAMPLES = 100_000  # most random word pairs one residue check draws
MAX_RESIDUE_WORD_LENGTH = 1_000  # longest random word a residue check draws


@dataclass(frozen=True)
class OverlapReport:
    """Outcome of an exhaustive exact-equality search over composition words."""

    t: Fraction | None
    level: int
    pairs: tuple[tuple[str, str], ...]
    words_searched: int
    note: str = ""


def _bucket_pairs(items, restrict=None) -> list[tuple[str, str]]:
    """All ordered pairs of words with equal exact matrix entries, from (word, entries) items.

    Buckets and the words in each keep their first-seen order.
    """
    buckets: dict[tuple, list[str]] = {}
    for word, key in items:
        buckets.setdefault(key, []).append(word)
    return [(u, w) for words in buckets.values() for u, w in combinations(words, 2) if restrict is None or restrict(u, w)]


def check_depth(n: int) -> int:
    """``n`` if it is a search depth in 1..cap, else ValueError."""
    if n < 1:
        raise ValueError(f"search depth must be >= 1, got {n}")
    return check_level(n)


def _matrix_key(matrix: tuple, scale: int) -> tuple:
    """A key of the exact matrix ``matrix / scale``: its primitive integer tuple and the scalar in lowest terms."""
    g = math.gcd(*matrix)
    h = math.gcd(g, scale)
    return (*(x // g for x in matrix), g // h, scale // h)


def _keys_by_length(generators: list[Matrix2], n: int, across_lengths: bool = False) -> list[list[tuple[str, tuple]]]:
    """(word, matrix key) of every word, one list per length 1..n in plain order, from one walk.

    Two words of one length share the walk's scale s^length, so their
    integer matrices are keys as they are.  ``across_lengths`` keys each
    word by its exact matrix instead, equal for equal matrices of any lengths.
    """
    levels: list[list[tuple[str, tuple]]] = [[] for _ in range(n + 1)]
    s = word_scale(generators)
    for length, word, matrix in iter_word_tree(generators, n):
        levels[length].append((word, _matrix_key(matrix, s**length) if across_lengths else matrix))
    return levels[1:]


def overlap_search_maps(maps: list[MoebiusMap], n: int, t: Fraction | None = None) -> OverlapReport:
    """Exact overlap search for arbitrary user-supplied maps (equal lengths 1..n)."""
    levels = _keys_by_length([f.matrix for f in maps], check_depth(n))
    pairs = [pair for level in levels for pair in _bucket_pairs(level)]
    return OverlapReport(t=t, level=n, pairs=tuple(pairs), words_searched=sum(map(len, levels)))


def exact_overlap_search(t: RationalLike, n: int) -> OverlapReport:
    """Search the family at parameter t for equal matrices among distinct words."""
    t = as_fraction(t)
    return overlap_search_maps(list(make_family(t).maps), n, t=t)


@dataclass(frozen=True)
class SeparationReport:
    """Closest pair of distinct level-n words under the sup norm of their exact vectors, and c_n = delta^(1/n).

    A word's vector is its map's values at the probes (``POINTWISE_ON_X``) or
    its matrix entries (``MATRIX_ENTRY``).  ``delta`` is an exact rational;
    only the root c_n is floating point.  The plain report skips pairs whose
    vectors coincide exactly and counts them in ``equal_matrix_pairs``; its
    :meth:`strong_form` ranges over all distinct word pairs, so there a
    coinciding pair makes delta 0.  ``pairs_compared`` is the N(N-1)/2 pairs
    of the N words that the pass covers, not the number of distances it
    evaluates.
    """

    t: Fraction
    level: int
    metric_variant: str
    delta: Fraction
    c_n: float
    strong: bool
    pairs_compared: int
    equal_matrix_pairs: int
    probes: tuple[Fraction, ...] | None = None

    def strong_form(self) -> "SeparationReport":
        """The same pass read over all distinct word pairs: a coinciding pair makes delta 0."""
        if self.equal_matrix_pairs:
            return replace(self, strong=True, delta=Fraction(0), c_n=0.0)
        return replace(self, strong=True)


def _min_pair_distance(vectors: list[tuple]) -> tuple[Fraction | int, int]:
    """(smallest nonzero sup-norm distance or 0, pairs at distance 0) over all pairs of vectors.

    A sort-and-sweep (Bentley & Shamos, STOC 1976): a run of r identical
    vectors holds r(r-1)/2 zero pairs and is kept once.  The distinct vectors
    are then ordered on the coordinate with the most distinct values (the
    lowest index on a tie), and each is compared only with the earlier ones
    whose gap on that coordinate is below the best distance so far, which
    bounds their sup-norm distance from below.
    """
    zero_pairs = 0
    distinct = []
    for vector, run in groupby(sorted(vectors)):
        r = sum(1 for _ in run)
        zero_pairs += r * (r - 1) // 2
        distinct.append(vector)
    if len(distinct) < 2:
        return Fraction(0), zero_pairs
    axis = max(range(len(distinct[0])), key=lambda k: len({v[k] for v in distinct}))
    distinct.sort(key=itemgetter(axis))
    best: Fraction | None = None
    for j, q in enumerate(distinct):
        x = q[axis]
        for i in range(j - 1, -1, -1):
            p = distinct[i]
            if best is not None and x - p[axis] >= best:
                break
            d = max(abs(a - b) for a, b in zip(p, q))
            if best is None or d < best:
                best = d
    return best, zero_pairs


def _separation_report(t: Fraction, n: int, variant: str, vectors: list[tuple], probes=None, scale: int = 1) -> SeparationReport:
    """The plain report of the closest pair of distinct words' vectors, read as ``vector / scale``."""
    if len(vectors) < 2:
        raise ValueError("need at least two words to compare")
    distance, zero_pairs = _min_pair_distance(vectors)
    delta = Fraction(distance, scale)
    try:
        c_n = float(delta) ** (1.0 / n) if delta > 0 else 0.0
    except OverflowError:
        raise ValueError(f"the separation delta at level {n} overflows a float") from None
    compared = len(vectors) * (len(vectors) - 1) // 2
    return SeparationReport(t, n, variant, delta, c_n, False, compared, zero_pairs, probes)


def sesc_metric(t: RationalLike, n: int, probes: list[RationalLike]) -> SeparationReport:
    """Pointwise separation sup_{x in probes} |f_u(x) - f_w(x)|, minimized over pairs (strong form).

    The maps are the family's at t, and every probe must lie in its
    invariant interval X = [0, 2t/3].
    """
    t = as_fraction(t)
    if not probes:
        raise ValueError("probe set must be nonempty")
    xs = tuple(as_fraction(x) for x in probes)
    interval = invariant_interval(t)
    for x in xs:
        if not interval.contains(x):
            raise ValueError(f"probe {x} lies outside the invariant interval X = {interval}")
    points = [(x.numerator, x.denominator) for x in xs]
    walk = iter_compositions(family_matrices(t), n)
    values = [tuple(int_value(m, p, q) for p, q in points) for _, m in walk]
    return _separation_report(t, n, POINTWISE_ON_X, values, xs).strong_form()


def fixed_point_probe(t: RationalLike) -> Fraction:
    """The right endpoint 2t/3 (the third map's fixed point), a natural probe."""
    return invariant_interval(t).right


def diophantine_metric(t: RationalLike, n: int, strong: bool = True) -> SeparationReport:
    """Entrywise matrix separation min over distinct word pairs of max |entry diff|.

    ``strong=True`` takes all distinct word pairs; ``strong=False`` only
    pairs with distinct matrices (exact coincidences are excluded and counted).
    """
    t = as_fraction(t)
    generators = family_matrices(t)
    entries = [matrix for _, matrix in iter_compositions(generators, n)]  # s^n times the entries: one scale
    report = _separation_report(t, n, MATRIX_ENTRY, entries, scale=word_scale(generators) ** n)
    return report.strong_form() if strong else report


# Integer conjugates of the (scaled, inverted) first two generators.
E_MATRIX = Matrix2(Fraction(4), Fraction(0), Fraction(0), Fraction(1))
F_MATRIX = Matrix2(Fraction(4), Fraction(0), Fraction(1), Fraction(1))
CONJUGATOR = Matrix2(Fraction(4), Fraction(0), Fraction(4, 3), Fraction(1))


@dataclass(frozen=True)
class ConjugacyResult:
    ok: bool
    from_first: Matrix2
    from_second: Matrix2
    expected_e: Matrix2 = E_MATRIX
    expected_f: Matrix2 = F_MATRIX
    conjugator: Matrix2 = CONJUGATOR


def appendix_conjugacy_check() -> ConjugacyResult:
    """Verify exactly that 2*R*G^-1*R^-1 maps the first two generators to E and F."""
    gen_a, gen_b, _ = family_matrices(Fraction(1))
    r_inv = CONJUGATOR.inverse()
    from_first = (CONJUGATOR @ gen_a.inverse() @ r_inv).scaled(2)
    from_second = (CONJUGATOR @ gen_b.inverse() @ r_inv).scaled(2)
    ok = from_first == E_MATRIX and from_second == F_MATRIX
    return ConjugacyResult(ok=ok, from_first=from_first, from_second=from_second)


#: E and F as integer 4-tuples (a, b, c, d), the form their products are built in.
_EF_INTEGER = {symbol: tuple(map(int, m.entries())) for symbol, m in zip("EF", (E_MATRIX, F_MATRIX))}


def _ef_product(word: str) -> tuple[int, int, int, int]:
    """Integer entries of the product of a word over {E, F} (left to right)."""
    a, b, c, d = 1, 0, 0, 1
    for symbol in word:
        ea, eb, ec, ed = _EF_INTEGER[symbol]
        a, b, c, d = a * ea + b * ec, a * eb + b * ed, c * ea + d * ec, c * eb + d * ed
    return a, b, c, d


@dataclass(frozen=True)
class ResidueCheck:
    """One random word pair (X, Y) over {E, F} and the mod-4 obstruction data."""

    x_word: str
    y_word: str
    xe_bottom_left: int
    yf_bottom_left: int
    xe_residue: int
    yf_residue: int
    shape_ok: bool

    @property
    def ok(self) -> bool:
        return self.shape_ok and self.xe_residue == 0 and self.yf_residue == 1


def _triangular_shape_ok(m: tuple[int, int, int, int], length: int) -> bool:
    """``m`` is [[4^length, 0], [c, 1]]; c is an integer because the product is built in integers."""
    a, b, _, d = m
    return b == 0 and d == 1 and a == 4**length


def residue_freeness_check(sample_count: int, max_len: int, seed: int) -> list[ResidueCheck]:
    """Seeded random word pairs: bottom-left of X*E is 0 mod 4, of Y*F is 1 mod 4.

    The two residues can never agree, so no product ending in E equals one
    ending in F; together with cancellation this certifies freeness of the
    {E, F} semigroup, hence of the first two family generators.
    """
    if not 1 <= sample_count <= MAX_RESIDUE_SAMPLES:
        raise ValueError(f"sample_count must be >= 1 and <= {MAX_RESIDUE_SAMPLES}, got {sample_count}")
    if not 1 <= max_len <= MAX_RESIDUE_WORD_LENGTH:
        raise ValueError(f"max_len must be >= 1 and <= {MAX_RESIDUE_WORD_LENGTH}, got {max_len}")
    rng = random.Random(seed)
    checks = []
    for _ in range(sample_count):
        x_word = "".join(rng.choice("EF") for _ in range(rng.randint(0, max_len)))
        y_word = "".join(rng.choice("EF") for _ in range(rng.randint(0, max_len)))
        xe = _ef_product(x_word + "E")
        yf = _ef_product(y_word + "F")
        shape_ok = _triangular_shape_ok(xe, len(x_word) + 1) and _triangular_shape_ok(yf, len(y_word) + 1)
        checks.append(
            ResidueCheck(
                x_word=x_word,
                y_word=y_word,
                xe_bottom_left=xe[2],
                yf_bottom_left=yf[2],
                xe_residue=xe[2] % 4,
                yf_residue=yf[2] % 4,
                shape_ok=shape_ok,
            )
        )
    return checks


def relation_search_ABC(t: RationalLike, depth: int) -> OverlapReport:
    """Search for semigroup relations between words with distinct leading symbols.

    Any minimal relation must start with different symbols (products are
    invertible, so common prefixes cancel), and the third symbol cannot lead
    either side because its image interval is verified disjoint from the
    images of the first two.  The remaining candidates - one word leading
    with symbol 1, the other with symbol 2, any lengths up to ``depth`` - are
    compared by exact matrix equality.
    """
    t = as_fraction(t)
    check_depth(depth)
    family = make_family(t)
    first, second, third = (f.image(family.interval) for f in family.maps)
    if third.intersects(Interval(min(first.left, second.left), max(first.right, second.right))):
        note, leaders = "third-symbol image overlaps the first two; pruning disabled", "123"
    else:
        note, leaders = "third-symbol image disjoint from the first two; leading 3 pruned", "12"
    levels = _keys_by_length([f.matrix for f in family.maps], depth, across_lengths=True)
    leading = (item for level in levels for item in level if item[0][0] in leaders)
    pairs = _bucket_pairs(leading, restrict=lambda u, w: u[0] != w[0])
    return OverlapReport(t=t, level=depth, pairs=tuple(pairs), words_searched=sum(map(len, levels)), note=note)
