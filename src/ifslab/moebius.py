"""Exact 2x2 rational matrices and the linear-fractional maps they induce.

Everything in this module is exact: entries, interval endpoints and all
derived quantities are ``fractions.Fraction`` values, so equality tests,
overlap detection and cylinder comparisons are decidable with no rounding.
Floating point enters the package only where irrational exponents force it
(see :mod:`ifslab.pressure`).

Maps are evaluated on integer 4-tuples ``(a, b, c, d)``: a rational matrix
times a common denominator ``k``.  A Moebius map is projective (``k*M``
induces the map of ``M``), so the pole check, image, |f'| and value rules
(the ``int_*`` functions) are written once, on integers, for the word-tree
walk and :class:`MoebiusMap` alike; :meth:`Matrix2.from_scaled` gives back
the exact matrix.

A matrix ``[[a, b], [c, d]]`` acts on the line as ``x -> (a*x + b)/(c*x + d)``
with derivative ``det/(c*x + d)**2``.  Composition of maps corresponds to the
matrix product in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

RationalLike = Union[Fraction, int, str]
IntMatrix = tuple[int, int, int, int]  # row-major integer entries (a, b, c, d)

#: Default width of the rational enclosure returned for irrational fixed points.
DEFAULT_ROOT_WIDTH = Fraction(1, 10**30)


class PoleError(ZeroDivisionError):
    """The pole of a map lies at an evaluation point or inside a working interval."""


class DegenerateMapError(ValueError):
    """The map is the identity (or has determinant zero) where that is not allowed."""


def as_fraction(x: RationalLike) -> Fraction:
    """Convert ``x`` to an exact Fraction.

    Accepts Fractions, ints and strings in either "p/q" or decimal form;
    decimal strings are converted exactly, never through binary floats.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to convert a binary float; pass a string or Fraction")
    return Fraction(x)


@dataclass(frozen=True)
class Matrix2:
    """A 2x2 matrix with exact rational entries (row-major a, b, c, d)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))

    @classmethod
    def identity(cls) -> "Matrix2":
        return cls(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    @classmethod
    def from_scaled(cls, entries: IntMatrix, scale: int) -> "Matrix2":
        """The exact matrix whose ``scale`` multiple has the integer ``entries``."""
        return cls(*(Fraction(x, scale) for x in entries))

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def scaled(self, k: RationalLike) -> "Matrix2":
        k = as_fraction(k)
        return Matrix2(k * self.a, k * self.b, k * self.c, k * self.d)

    def inverse(self) -> "Matrix2":
        det = self.det()
        if det == 0:
            raise DegenerateMapError("matrix is singular")
        return Matrix2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def entry_distance(self, other: "Matrix2") -> Fraction:
        """Max absolute entrywise difference (the metric used on matrix sets)."""
        return max(abs(p - q) for p, q in zip(self.entries(), other.entries()))

    def is_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d != 0

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


@dataclass(frozen=True)
class Interval:
    """A nonempty closed interval with exact rational endpoints."""

    left: Fraction
    right: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", as_fraction(self.left))
        object.__setattr__(self, "right", as_fraction(self.right))
        if self.left > self.right:
            raise ValueError(f"empty interval [{self.left}, {self.right}]")

    def length(self) -> Fraction:
        return self.right - self.left

    def contains(self, x: RationalLike) -> bool:
        x = as_fraction(x)
        return self.left <= x <= self.right

    def contains_interval(self, other: "Interval") -> bool:
        return self.left <= other.left and other.right <= self.right

    def intersects(self, other: "Interval") -> bool:
        return max(self.left, other.left) <= min(self.right, other.right)

    def grid(self, count: int) -> list[Fraction]:
        """``count + 1`` equally spaced rational points, both ends included."""
        step = self.length() / count
        return [self.left + i * step for i in range(count + 1)]

    def __str__(self) -> str:
        return f"[{self.left}, {self.right}]"


@dataclass(frozen=True)
class MoebiusMap:
    """The line map ``x -> (a*x + b)/(c*x + d)`` of an invertible rational matrix."""

    matrix: Matrix2
    det: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "det", self.matrix.det())
        if self.det == 0:
            raise DegenerateMapError("determinant zero does not define a Moebius map")

    @classmethod
    def from_entries(cls, a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike) -> "MoebiusMap":
        return cls(Matrix2(a, b, c, d))

    @classmethod
    def affine(cls, ratio: RationalLike, offset: RationalLike) -> "MoebiusMap":
        """The affine map ``x -> ratio*x + offset`` (ratio nonzero)."""
        return cls.from_entries(ratio, offset, 0, 1)

    @cached_property
    def integer(self) -> IntMatrix:
        """The matrix times the least common denominator of its entries: the integer form the rules read."""
        return integer_matrices([self.matrix])[1][0]

    def __call__(self, x: RationalLike) -> Fraction:
        x = as_fraction(x)
        try:
            return int_value(self.integer, x.numerator, x.denominator)
        except PoleError:
            raise PoleError(f"pole of {self} at x = {x}") from None

    def derivative(self, x: RationalLike) -> Fraction:
        x = as_fraction(x)
        m = self.matrix
        denom = m.c * x + m.d
        if denom == 0:
            raise PoleError(f"pole of {self} at x = {x}")
        return self.det / denom**2

    def _on_interval(self, rule, interval: Interval):
        """``rule`` of the integer form and the integer ends of ``interval``, a pole reported in terms of this map."""
        try:
            return rule(self.integer, integer_ends(interval))
        except PoleError:
            raise PoleError(f"pole of {self} inside {interval}") from None

    def derivative_bounds(self, interval: Interval) -> tuple[Fraction, Fraction]:
        """Exact (inf, sup) of |derivative| over ``interval`` (see :func:`int_derivative_bounds`)."""
        return self._on_interval(int_derivative_bounds, interval)

    def image(self, interval: Interval) -> Interval:
        """Exact image interval (see :func:`int_image`)."""
        return self._on_interval(int_image, interval)

    def fixed_points(self, width: Fraction = DEFAULT_ROOT_WIDTH) -> list[tuple[Fraction, Fraction]]:
        """Real fixed points as (lo, hi) rational enclosures, ascending.

        Rational roots come back exact (lo == hi); irrational roots as
        enclosures no wider than ``width``.  The identity map has every point
        fixed and is rejected.
        """
        m = self.matrix
        if m.is_identity():
            raise DegenerateMapError("identity map fixes every point")
        # Fixed points solve c*x^2 + (d - a)*x - b = 0.
        qa, qb, qc = m.c, m.d - m.a, -m.b
        if qa == 0:
            if qb == 0:
                return []  # pure translation, no finite fixed point
            root = -qc / qb
            return [(root, root)]
        disc = qb * qb - 4 * qa * qc
        if disc < 0:
            return []
        if disc == 0:
            root = -qb / (2 * qa)
            return [(root, root)]
        sq = _sqrt_enclosure(disc, width * 2 * abs(qa))
        roots = []
        for sgn in (-1, 1):
            lo = (-qb + sgn * sq[1 if sgn < 0 else 0]) / (2 * qa)
            hi = (-qb + sgn * sq[0 if sgn < 0 else 1]) / (2 * qa)
            roots.append((min(lo, hi), max(lo, hi)))
        return sorted(roots)

    def __str__(self) -> str:
        m = self.matrix
        return f"x -> ({m.a}*x + {m.b})/({m.c}*x + {m.d})"


def integer_matrices(matrices: Sequence[Matrix2]) -> tuple[int, list[IntMatrix]]:
    """(s, [s*m for each m]): s is the least common denominator of every entry, so each s*m is an integer matrix."""
    s = math.lcm(*(x.denominator for m in matrices for x in m.entries()))
    return s, [tuple(x.numerator * (s // x.denominator) for x in m.entries()) for m in matrices]


def int_matmul(m: IntMatrix, g: IntMatrix) -> IntMatrix:
    """The product m*g of two integer matrices."""
    a, b, c, d = m
    p, q, r, u = g
    return (a * p + b * r, a * q + b * u, c * p + d * r, c * q + d * u)


def integer_ends(interval: Interval) -> tuple[int, int, int]:
    """(L, R, D): ``interval`` is [L/D, R/D] with D the least common denominator of its endpoints."""
    den = math.lcm(interval.left.denominator, interval.right.denominator)
    return int(interval.left * den), int(interval.right * den), den


def int_endpoint_denominators(m: IntMatrix, ends: tuple[int, int, int]) -> tuple[int, int]:
    """c*L + d*D and c*R + d*D for an integer matrix m and ``ends`` = :func:`integer_ends` of an interval.

    These are c*x + d at both ends, times the positive D (and the matrix's
    scale), so they share a sign unless the pole lies in the interval.
    """
    left, right, den = ends
    c, d = m[2], m[3]
    lo_den, hi_den = c * left + d * den, c * right + d * den
    if lo_den == 0 or hi_den == 0 or (lo_den > 0) != (hi_den > 0):
        raise PoleError(f"pole of the integer matrix {m} inside [{left}/{den}, {right}/{den}]")
    return lo_den, hi_den


def int_image(m: IntMatrix, ends: tuple[int, int, int]) -> Interval:
    """The image of ``ends`` = [L/D, R/D] under m: the map is monotone off its pole, so its ends are the images
    (a*L + b*D)/(c*L + d*D) and (a*R + b*D)/(c*R + d*D), ordered by cross-multiplying integers."""
    lo_den, hi_den = int_endpoint_denominators(m, ends)
    left, right, den = ends
    a, b = m[0], m[1]
    lo_num, hi_num = a * left + b * den, a * right + b * den
    u, v = Fraction(lo_num, lo_den), Fraction(hi_num, hi_den)
    return Interval(u, v) if lo_num * hi_den <= hi_num * lo_den else Interval(v, u)


def int_abs_derivative(m: IntMatrix, den_squared: int, end_squared: int) -> tuple[int, int]:
    """|f'| = |ad - bc| * D^2 / e^2 at an end X/D with e = c*X + d*D (see :func:`int_endpoint_denominators`),
    as a lowest-terms integer pair.  The matrix's scale cancels: it enters det and e^2 squared."""
    a, b, c, d = m
    top = abs(a * d - b * c) * den_squared
    g = math.gcd(top, end_squared)
    return top // g, end_squared // g


def int_derivative_bounds(m: IntMatrix, ends: tuple[int, int, int]) -> tuple[Fraction, Fraction]:
    """Exact (inf, sup) of |f'| over ``ends`` = [L/D, R/D]: |f'| is monotone off the pole, so both sit at the ends."""
    values = [Fraction(*int_abs_derivative(m, ends[2] ** 2, e * e)) for e in int_endpoint_denominators(m, ends)]
    return min(values), max(values)


def int_value(m: IntMatrix, p: int, q: int) -> Fraction:
    """(a*p + b*q)/(c*p + d*q): the value at x = p/q of the map of the integer matrix m, at any scale."""
    a, b, c, d = m
    den = c * p + d * q
    if den == 0:
        raise PoleError(f"pole of the integer matrix {m} at x = {Fraction(p, q)}")
    return Fraction(a * p + b * q, den)


def _sqrt_enclosure(q: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= sqrt(q) <= hi and hi - lo <= width; exact when possible."""
    if q < 0:
        raise ValueError("negative radicand")
    p, r = q.numerator, q.denominator
    sp, sr = math.isqrt(p), math.isqrt(r)
    if sp * sp == p and sr * sr == r:
        exact = Fraction(sp, sr)
        return exact, exact
    # sqrt(p/r) = isqrt(p*r*M^2) / (r*M) up to 1/(r*M).
    scale = (Fraction(1) / (width * r)).__ceil__() + 1
    root = math.isqrt(p * r * scale * scale)
    lo = Fraction(root, r * scale)
    return lo, lo + Fraction(1, r * scale)


#: f1 = x/(4x+4) and f2 = x/4, the same at every parameter: only the third map depends on t.
FIXED_ZERO_MATRICES = (
    Matrix2(Fraction(1, 2), Fraction(0), Fraction(2), Fraction(2)),
    Matrix2(Fraction(1, 2), Fraction(0), Fraction(0), Fraction(2)),
)


def family_matrices(t: RationalLike) -> tuple[Matrix2, Matrix2, Matrix2]:
    """The three generator matrices of the one-parameter family at parameter t."""
    t = as_fraction(t)
    return (*FIXED_ZERO_MATRICES, Matrix2(Fraction(1, 2), t, Fraction(0), Fraction(2)))


@dataclass(frozen=True)
class IFSInstance:
    """A hyperbolic IFS: contracting maps of a common invariant interval.

    ``gamma_lower``/``gamma_upper`` are the exact global derivative bounds
    0 < gamma_lower <= |f'| <= gamma_upper < 1 over the interval, taken over
    all maps.  ``names`` optionally labels the maps (e.g. by generating word).
    """

    maps: tuple[MoebiusMap, ...]
    interval: Interval
    gamma_lower: Fraction
    gamma_upper: Fraction
    names: tuple[str, ...] | None = None

    @classmethod
    def build(
        cls,
        maps: Sequence[MoebiusMap],
        interval: Interval,
        names: Sequence[str] | None = None,
    ) -> "IFSInstance":
        """Validate invariance and strict contraction, computing the gamma bounds."""
        if not maps:
            raise ValueError("an IFS needs at least one map")
        if names is not None and len(names) != len(maps):
            raise ValueError("names must match maps one-to-one")
        infs, sups = [], []
        for f in maps:
            if not interval.contains_interval(f.image(interval)):
                raise ValueError(f"map {f} does not send {interval} into itself")
            lo, hi = f.derivative_bounds(interval)
            infs.append(lo)
            sups.append(hi)
        gamma_lower, gamma_upper = min(infs), max(sups)
        if gamma_lower <= 0:
            raise ValueError("derivative vanishes on the interval")
        if gamma_upper >= 1:
            raise ValueError(f"not a strict contraction: sup |f'| = {gamma_upper}")
        return cls(
            maps=tuple(maps),
            interval=interval,
            gamma_lower=gamma_lower,
            gamma_upper=gamma_upper,
            names=tuple(names) if names is not None else None,
        )

    def __len__(self) -> int:
        return len(self.maps)


def invariant_interval(t: RationalLike) -> Interval:
    """[0, 2t/3]: from the common fixed point 0 to the fixed point of the third map."""
    t = as_fraction(t)
    if t <= 0:
        raise ValueError(f"parameter must be positive, got {t}")
    return Interval(Fraction(0), 2 * t / 3)


def make_family(t: RationalLike) -> IFSInstance:
    """The three-map family at parameter t > 0 on its invariant interval.

    The maps are x/(4x+4), x/4 and x/4 + t/2; the first two share the fixed
    point 0 and the interval runs up to 2t/3, the fixed point of the third.
    """
    t = as_fraction(t)
    interval = invariant_interval(t)
    maps = tuple(MoebiusMap(m) for m in family_matrices(t))
    return IFSInstance.build(maps, interval, names=("1", "2", "3"))
