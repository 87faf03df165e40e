"""Words over the alphabet {1,2,3}: enumeration, ordering, maps and cylinders.

A word is a plain digit string like ``"123"`` (the empty string is the
identity).  The word ``u = u1...un`` addresses the composition
``f_{u1} o ... o f_{un}`` and the cylinder interval ``f_u(I)``.

Two orders appear:

* plain enumeration order: ordinary string order with 1 < 2 < 3;
* the chain order on {1,2}^k used by the cylinder-geometry results, in which
  the *leftmost* symbol is least significant (1^k is smallest, 2^k largest,
  and the successor of ``2^m 1 u`` is ``1^m 2 u``).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from typing import Iterator, Sequence

from .moebius import (
    FIXED_ZERO_MATRICES,
    IFSInstance,
    IntMatrix,
    Interval,
    Matrix2,
    MoebiusMap,
    RationalLike,
    as_fraction,
    family_matrices,
    int_matmul,
    integer_matrices,
    invariant_interval,
)

DEFAULT_MAX_LEVEL = 12


def max_level() -> int:
    """Enumeration depth cap; override with the IFSLAB_MAX_LEVEL env var."""
    raw = os.environ.get("IFSLAB_MAX_LEVEL")
    if raw is None:
        return DEFAULT_MAX_LEVEL
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"IFSLAB_MAX_LEVEL must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"IFSLAB_MAX_LEVEL must be >= 1, got {value}")
    return value


def check_level(n: int, width: int = 3) -> int:
    """Refuse level n over the cap, or a walk to it over ``width`` maps of more than 3^cap words."""
    if n > max_level():
        raise ValueError(f"level {n} exceeds the enumeration cap {max_level()} (set IFSLAB_MAX_LEVEL to raise it)")
    if width**n > 3 ** max_level():
        raise ValueError(f"a level-{n} walk over {width} maps visits {width}^{n} words, over the cap 3^{max_level()}")
    return n


def iter_words(alphabet: str, n: int) -> Iterator[str]:
    """All length-n words in plain order, streamed (never materialized)."""
    if n < 0:
        raise ValueError("word length must be >= 0")
    symbols = sorted(alphabet)
    for combo in itertools.product(symbols, repeat=n):
        yield "".join(combo)


def tilde_prefixes(n: int) -> list[str]:
    """Every v over {1,2} of length < n, by length then plain order: the v of each tilde:n word v3."""
    check_level(n)
    return [v for k in range(n) for v in iter_words("12", k)]


def _chain_key(word: str) -> int:
    key = 0
    for i, ch in enumerate(word):
        if ch == "2":
            key |= 1 << i
        elif ch != "1":
            raise ValueError(f"chain order is defined on {{1,2}} words only, got {word!r}")
    return key


def chain_sorted(k: int) -> list[str]:
    """All of {1,2}^k listed in chain order, from 1^k up to 2^k."""
    check_level(k)
    return sorted(iter_words("12", k), key=_chain_key)


def lex_successor(v: str) -> str | None:
    """The chain-order successor of v in {1,2}^|v|: 2^m 1 u -> 1^m 2 u."""
    _chain_key(v)
    m = 0
    while m < len(v) and v[m] == "2":
        m += 1
    if m == len(v):
        return None  # v = 2^k is the maximum
    return "1" * m + "2" + v[m + 1:]


def map_of_word(u: str, t: RationalLike) -> MoebiusMap:
    """The composition f_{u1} o ... o f_{un} of the family at parameter t, multiplied from the first letter on integers."""
    t = as_fraction(t)
    if t <= 0:
        raise ValueError(f"parameter must be positive, got {t}")
    scale, scaled = integer_matrices(family_matrices(t))
    by_label = dict(zip("123", scaled))
    product = reduce(int_matmul, (by_label[ch] for ch in u)) if u else (1, 0, 0, 1)
    return MoebiusMap(Matrix2.from_scaled(product, scale ** len(u)))


def cylinder(u: str, t: RationalLike) -> Interval:
    """The exact cylinder interval f_u([0, 2t/3])."""
    return map_of_word(u, t).image(invariant_interval(t))


def word_scale(generators: Sequence[Matrix2]) -> int:
    """s: the least common denominator of every generator entry, so s*g is an integer matrix for each g.

    For the family at t = p/q (in lowest terms) it is lcm(2, q).
    """
    return integer_matrices(generators)[0]


def iter_word_tree(generators: Sequence[Matrix2], n: int) -> Iterator[tuple[int, str, IntMatrix]]:
    """(length, word, s^length * M_word) for every word of length 0..n, depth first.

    ``s`` is :func:`word_scale` of the generators, so each matrix is a plain
    integer 4-tuple (a, b, c, d) and ``Matrix2.from_scaled(m, s**length)``
    is the exact word matrix.  Generator i is labelled ``str(i + 1)``.  Each
    word's matrix is its parent's times one scaled generator, so the walk
    makes one integer product per nonempty word.  The words of each length
    come out in plain order (by generator position), and only the pending
    siblings along the current path are held, never a whole level.  Lengths
    come from the stack, not from ``len(word)``: labels of ten or more
    generators have several characters.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    check_level(n, len(generators))
    children = [(str(i + 1), g) for i, g in enumerate(integer_matrices(generators)[1])][::-1]
    stack = [(0, "", (1, 0, 0, 1))]
    while stack:
        length, word, matrix = stack.pop()
        yield length, word, matrix
        if length < n:
            stack.extend((length + 1, word + ch, int_matmul(matrix, g)) for ch, g in children)


def iter_compositions(generators: Sequence[Matrix2], n: int) -> Iterator[tuple[str, IntMatrix]]:
    """(word, s^n * M_word) for every length-n word: the leaves of :func:`iter_word_tree`."""
    return ((word, matrix) for length, word, matrix in iter_word_tree(generators, n) if length == n)


def prefix_maps(prefixes: Sequence[str]) -> dict[str, MoebiusMap]:
    """f_v for each v over {1,2} in ``prefixes``, in that order, from one walk of the t-free {1,2} tree."""
    wanted = set(prefixes)
    walk = iter_word_tree(FIXED_ZERO_MATRICES, max(map(len, prefixes)))
    s = word_scale(FIXED_ZERO_MATRICES)
    found = {v: MoebiusMap(Matrix2.from_scaled(matrix, s**length)) for length, v, matrix in walk if v in wanted}
    return {v: found[v] for v in prefixes}


class SubsystemVariant(Enum):
    """Which derived word set generates the subsystem.

    FULL: every length-n word containing at least one 3 (3^n - 2^n words).
    TILDE: every word v3 with v over {1,2} and total length <= n (2^n - 1 words).
    """

    FULL = "full"
    TILDE = "tilde"


@dataclass(frozen=True)
class SubsystemSpec:
    t: Fraction
    level: int
    variant: SubsystemVariant

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", as_fraction(self.t))
        if self.t <= 0:
            raise ValueError(f"parameter must be positive, got {self.t}")
        if self.level < 1:
            raise ValueError(f"subsystem level must be >= 1, got {self.level}")

    def size(self) -> int:
        """The number of subsystem maps (3^N - 2^N or 2^N - 1), once N is checked against the cap."""
        check_level(self.level)
        return 3**self.level - 2**self.level if self.variant is SubsystemVariant.FULL else 2**self.level - 1


def build_subsystem(spec: SubsystemSpec) -> IFSInstance:
    """Realize the subsystem words as an IFS on the family's invariant interval, from one walk.

    full:N keeps the length-N leaves that contain a 3, in plain order; tilde:N
    follows each f_v of the t-free {1,2} walk to depth N - 1 by f_3.
    """
    generators = family_matrices(spec.t)
    if spec.variant is SubsystemVariant.FULL:
        scale = word_scale(generators) ** spec.level
        words = {u: Matrix2.from_scaled(m, scale) for u, m in iter_compositions(generators, spec.level) if "3" in u}
    else:  # tilde_prefixes checks N against the cap
        words = {v + "3": f.matrix @ generators[2] for v, f in prefix_maps(tilde_prefixes(spec.level)).items()}
    return IFSInstance.build([MoebiusMap(m) for m in words.values()], invariant_interval(spec.t), names=list(words))
