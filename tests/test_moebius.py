"""Exact matrix/map algebra: frozen oracle values and exhaustive identities."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifslab import (
    DegenerateMapError,
    IFSInstance,
    Interval,
    Matrix2,
    MoebiusMap,
    PoleError,
    family_matrices,
    make_family,
)
from ifslab.moebius import (
    as_fraction,
    int_abs_derivative,
    int_derivative_bounds,
    int_endpoint_denominators,
    int_image,
    int_value,
    integer_ends,
)


def mul_oracle(m, n):
    """Independent 2x2 rational multiplication, kept separate from the library."""
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


def closed_form_power_first(m):
    """Exact m-th power of the first generator: [[2^-m, 0], [2^(m+2)(1-4^-m)/3, 2^m]]."""
    return Matrix2(
        F(1, 2**m),
        F(0),
        F(2 ** (m + 2), 1) * (1 - F(1, 4**m)) / 3,
        F(2**m),
    )


class TestMatrix2:
    def test_product_matches_oracle(self):
        gen_a, gen_b, gen_c = family_matrices(F(1, 3))
        for left in (gen_a, gen_b, gen_c):
            for right in (gen_a, gen_b, gen_c):
                got = left @ right
                assert got.entries() == mul_oracle(left.entries(), right.entries())

    def test_first_generator_squared(self):
        gen_a = family_matrices(1)[0]
        assert (gen_a @ gen_a) == Matrix2(F(1, 4), F(0), F(5), F(4))

    def test_square_matches_closed_form(self):
        gen_a = family_matrices(1)[0]
        assert gen_a @ gen_a == closed_form_power_first(2)
        assert closed_form_power_first(2).c == 5  # 2^4 (1 - 4^-2) / 3

    def test_identity_neutral(self):
        gen = family_matrices(1)[2]
        assert gen @ Matrix2.identity() == gen
        assert Matrix2.identity() @ gen == gen

    def test_inverse(self):
        gen_a = family_matrices(1)[0]
        assert gen_a @ gen_a.inverse() == Matrix2.identity()

    def test_determinants(self):
        for gen in family_matrices(F(7, 3)):
            assert gen.det() == 1

    def test_entry_distance(self):
        gen_a, gen_b, gen_c = family_matrices(1)
        assert gen_a.entry_distance(gen_b) == 2
        assert gen_b.entry_distance(gen_c) == 1
        assert gen_a.entry_distance(gen_a) == 0

    def test_rejects_float_entries(self):
        with pytest.raises(TypeError):
            Matrix2(0.5, 0, 2, 2)


class TestEvaluation:
    def test_spot_values(self):
        f1, f2, f3 = make_family(1).maps
        assert f1(1) == F(1, 8)
        assert f2(0) == 0
        assert f1(0) == 0
        assert f3(F(2, 3)) == F(2, 3)

    def test_repeated_second_map_scales(self):
        f2 = make_family(1).maps[1]
        g = MoebiusMap(f2.matrix @ f2.matrix @ f2.matrix)
        assert g(1) == F(1, 64)  # 4^-3

    def test_pole_raises(self):
        f = MoebiusMap.from_entries(1, 0, 2, -1)
        with pytest.raises(PoleError):
            f(F(1, 2))

    def test_composition_is_matrix_product(self):
        f1, f2, f3 = make_family(1).maps
        x = F(5, 7)
        assert MoebiusMap(f1.matrix @ f3.matrix)(x) == f1(f3(x))
        assert MoebiusMap(f3.matrix @ f1.matrix @ f2.matrix)(x) == f3(f1(f2(x)))


class TestDerivatives:
    def test_determinant_kept_outside_equality_and_repr(self):
        m = Matrix2(F(2), F(1), F(3), F(5, 7))
        f = MoebiusMap(m)
        assert f.det == m.det() == F(-11, 7)
        assert f == MoebiusMap(m) and hash(f) == hash(MoebiusMap(m))
        assert "det" not in repr(f)
        assert f.derivative(F(1, 3)) == m.det() / (m.c * F(1, 3) + m.d) ** 2

    def test_bounds_of_first_map(self):
        fam = make_family(1)
        assert fam.maps[0].derivative_bounds(fam.interval) == (F(9, 100), F(1, 4))

    def test_affine_maps_constant(self):
        fam = make_family(1)
        probe = Interval(F(1, 5), F(3, 5))
        for f in fam.maps[1:]:
            assert f.derivative_bounds(probe) == (F(1, 4), F(1, 4))

    def test_bounds_bracket_interior_samples(self):
        fam = make_family(1)
        f1 = fam.maps[0]
        lo, hi = f1.derivative_bounds(fam.interval)
        for x in fam.interval.grid(100)[1:-1]:
            assert lo <= abs(f1.derivative(x)) <= hi

    def test_pole_inside_interval_rejected(self):
        f = MoebiusMap.from_entries(1, 0, 2, -1)  # pole at 1/2
        with pytest.raises(PoleError):
            f.derivative_bounds(Interval(0, 1))

    def test_chain_rule_exact(self):
        f1, _, f3 = make_family(1).maps
        g = MoebiusMap(f1.matrix @ f3.matrix)
        for x in (F(0), F(1, 3), F(2, 3)):
            assert abs(g.derivative(x)) == abs(f1.derivative(f3(x))) * abs(f3.derivative(x))

    def test_chain_rule_exhaustive_to_length_four(self):
        fam = make_family(1)
        x = F(2, 5)
        words = [Matrix2.identity()]
        pool = []
        for _ in range(4):
            words = [m @ g.matrix for m in words for g in fam.maps]
            pool.extend(map(MoebiusMap, words))
        for outer in pool:
            for inner in pool:
                combined = MoebiusMap(outer.matrix @ inner.matrix)
                assert abs(combined.derivative(x)) == abs(outer.derivative(inner(x))) * abs(
                    inner.derivative(x)
                )


class TestImage:
    def test_family_images_at_unit_parameter(self):
        fam = make_family(1)
        f1, f2, f3 = fam.maps
        assert f1.image(fam.interval) == Interval(0, F(1, 10))
        assert f2.image(fam.interval) == Interval(0, F(1, 6))
        assert f3.image(fam.interval) == Interval(F(1, 2), F(2, 3))

    def test_first_image_at_parameter_three(self):
        fam = make_family(3)
        assert fam.interval == Interval(0, 2)
        assert fam.maps[0].image(fam.interval) == Interval(0, F(1, 6))

    def test_decreasing_map_image_swaps_endpoints(self):
        f = MoebiusMap.from_entries(0, 1, 1, 0)  # x -> 1/x, decreasing
        assert f.image(Interval(1, 2)) == Interval(F(1, 2), 1)


def value_oracle(f, x):
    """The former value: (a*x + b)/(c*x + d) in Fractions, refused where c*x + d = 0."""
    m = f.matrix
    denom = m.c * x + m.d
    if denom == 0:
        raise PoleError(f"pole of {f} at x = {x}")
    return (m.a * x + m.b) / denom


def image_oracle(f, interval):
    """The former image: find the pole -d/c, then evaluate both endpoints through :func:`value_oracle`."""
    m = f.matrix
    if m.c != 0 and interval.contains(-m.d / m.c):
        raise PoleError(f"pole of {f} inside {interval}")
    u, v = value_oracle(f, interval.left), value_oracle(f, interval.right)
    return Interval(min(u, v), max(u, v))


def bounds_oracle(f, interval):
    """(inf, sup) of |f'| from the two endpoint derivatives, under the same pole rule."""
    image_oracle(f, interval)
    values = (abs(f.derivative(interval.left)), abs(f.derivative(interval.right)))
    return min(values), max(values)


def outcome(method, *args):
    try:
        return method(*args)
    except PoleError as exc:
        return ("PoleError", str(exc))


class TestPoleCheck:
    """``image`` and ``derivative_bounds`` share one endpoint-denominator check."""

    POLE_AT_HALF = MoebiusMap.from_entries(1, 0, 2, -1)  # x -> x/(2x - 1)

    @pytest.mark.parametrize(
        "interval, has_pole",
        [
            (Interval(F(1, 2), 1), True),  # pole at the left endpoint
            (Interval(0, F(1, 2)), True),  # pole at the right endpoint
            (Interval(F(1, 2), F(1, 2)), True),  # the pole itself
            (Interval(0, 1), True),  # pole inside
            (Interval(1, 2), False),  # pole left of the interval
            (Interval(-1, F(1, 4)), False),  # pole right of the interval
        ],
    )
    def test_matches_oracle_around_the_pole(self, interval, has_pole):
        f = self.POLE_AT_HALF
        expected = outcome(image_oracle, f, interval)
        assert isinstance(expected, tuple) is has_pole
        assert outcome(f.image, interval) == expected
        assert outcome(f.derivative_bounds, interval) == outcome(bounds_oracle, f, interval)

    def test_pole_error_text_kept(self):
        f = self.POLE_AT_HALF
        for method in (f.image, f.derivative_bounds):
            with pytest.raises(PoleError, match=r"^pole of x -> \(1\*x \+ 0\)/\(2\*x \+ -1\) inside \[0, 1\]$"):
                method(Interval(0, 1))

    @pytest.mark.parametrize("ratio, offset", [(3, 1), (F(-1, 2), 2), (F(1, 4), F(1, 2))])
    def test_affine_maps_have_no_pole(self, ratio, offset):
        f = MoebiusMap.affine(ratio, offset)
        for interval in (Interval(-5, 5), Interval(0, 0), Interval(F(1, 3), F(7, 2))):
            assert f.image(interval) == image_oracle(f, interval)
            assert f.derivative_bounds(interval) == bounds_oracle(f, interval) == (abs(F(ratio)),) * 2

    def test_image_checks_the_pole_once(self, monkeypatch):
        def refuse(self, x):
            raise AssertionError("image evaluated an endpoint through __call__")

        f = make_family(1).maps[0]
        monkeypatch.setattr(MoebiusMap, "__call__", refuse)
        assert f.image(Interval(0, F(2, 3))) == Interval(0, F(1, 10))

    def test_family_cylinders_match_oracle(self):
        fam = make_family(F(37, 53))
        matrices = [Matrix2.identity()]
        for _ in range(4):
            matrices = [m @ g.matrix for m in matrices for g in fam.maps]
            for f in map(MoebiusMap, matrices):
                assert f.image(fam.interval) == image_oracle(f, fam.interval)
                assert f.derivative_bounds(fam.interval) == bounds_oracle(f, fam.interval)


small = st.integers(-6, 6)
points = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(entries=st.tuples(small, small, small, small), ends=st.tuples(points, points))
def test_image_and_bounds_match_oracle(entries, ends):
    a, b, c, d = entries
    assume(a * d - b * c != 0)
    f = MoebiusMap.from_entries(a, b, c, d)
    interval = Interval(min(ends), max(ends))
    assert outcome(f.image, interval) == outcome(image_oracle, f, interval)
    assert outcome(f.derivative_bounds, interval) == outcome(bounds_oracle, f, interval)
    for x in ends:
        assert outcome(f, x) == outcome(value_oracle, f, x)


def verdict(rule, *args):
    """The rule's value, or PoleError itself: the integer rules word their pole errors in integers."""
    try:
        return rule(*args)
    except PoleError:
        return PoleError


rational_entries = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(
    entries=st.tuples(rational_entries, rational_entries, rational_entries, rational_entries),
    multiple=st.integers(-3, 3).filter(bool),
    ends=st.tuples(points, points),
    at_pole=st.booleans(),
)
def test_integer_rules_match_fraction_oracles(entries, multiple, ends, at_pole):
    """Each integer rule, on any nonzero integer multiple of the matrix, against the test-side Fraction oracle."""
    a, b, c, d = entries
    assume(a * d != b * c)
    f = MoebiusMap(Matrix2(*entries))
    scale = math.lcm(*(x.denominator for x in entries)) * multiple
    m = tuple(int(x * scale) for x in entries)
    if at_pole and c != 0:  # put the pole -d/c at an end, so both sides must refuse
        ends = (-d / c, ends[1])
    interval = Interval(min(ends), max(ends))
    integer = integer_ends(interval)
    image = verdict(image_oracle, f, interval)
    assert verdict(int_image, m, integer) == image
    assert verdict(int_derivative_bounds, m, integer) == verdict(bounds_oracle, f, interval)
    if image is PoleError:
        assert verdict(int_endpoint_denominators, m, integer) is PoleError
    else:
        for x, e in zip((interval.left, interval.right), int_endpoint_denominators(m, integer)):
            top, bottom = int_abs_derivative(m, integer[2] ** 2, e * e)
            assert math.gcd(top, bottom) == 1
            assert F(top, bottom) == abs(f.derivative(x))
    for x in ends:
        assert verdict(int_value, m, x.numerator, x.denominator) == verdict(value_oracle, f, x)


class TestFixedPoints:
    def test_third_map_fixed_point(self):
        f3 = make_family(1).maps[2]
        assert f3.fixed_points() == [(F(2, 3), F(2, 3))]

    def test_linear_map(self):
        f2 = make_family(1).maps[1]
        assert f2.fixed_points() == [(F(0), F(0))]

    def test_first_map_roots(self):
        f1 = make_family(1).maps[0]
        assert f1.fixed_points() == [(F(-3, 4), F(-3, 4)), (F(0), F(0))]

    def test_irrational_root_enclosure(self):
        f = MoebiusMap.from_entries(2, 1, 1, 1)  # golden-ratio fixed point
        width = F(1, 10**30)
        roots = f.fixed_points(width)
        assert len(roots) == 2
        for lo, hi in roots:
            assert hi - lo <= width
            # sign change of x^2 - x - 1 across each enclosure
            poly = lambda x: x * x - x - 1
            assert poly(lo) * poly(hi) <= 0

    def test_identity_rejected(self):
        with pytest.raises(DegenerateMapError):
            MoebiusMap(Matrix2.identity()).fixed_points()

    def test_translation_has_no_fixed_point(self):
        assert MoebiusMap.from_entries(1, 5, 0, 1).fixed_points() == []


class TestFamilyConstruction:
    def test_unit_parameter_maps(self):
        f1, f2, f3 = make_family(1).maps
        for x in (F(1, 7), F(1, 2), F(2, 3)):
            assert f1(x) == x / (4 * x + 4)
            assert f2(x) == x / 4
            assert f3(x) == x / 4 + F(1, 2)

    def test_invalid_parameters(self):
        for t in (0, -1, F(-2, 3)):
            with pytest.raises(ValueError):
                make_family(t)

    def test_gamma_bounds(self):
        for t in (F(1, 2), F(1), F(3)):
            fam = make_family(t)
            assert fam.gamma_upper == F(1, 4)
            assert 0 < fam.gamma_lower <= fam.gamma_upper

    def test_invariance_enforced(self):
        expanding = MoebiusMap.affine(2, 0)
        with pytest.raises(ValueError):
            IFSInstance.build([expanding], Interval(0, 1))

    def test_non_contraction_rejected(self):
        with pytest.raises(ValueError):
            IFSInstance.build([MoebiusMap.affine(1, 0)], Interval(0, 1))


class TestGeneratorProducts:
    def test_det_one_and_nonnegative_exhaustive(self):
        for t in (F(1, 2), F(1), F(3)):
            gens = family_matrices(t)
            frontier = [Matrix2.identity()]
            for _ in range(5):
                frontier = [m @ g for m in frontier for g in gens]
                for m in frontier:
                    assert m.det() == 1
                    assert all(e >= 0 for e in m.entries())

    def test_det_one_to_depth_eight_unit_parameter(self):
        gens = family_matrices(1)
        frontier = [Matrix2.identity()]
        for _ in range(8):
            frontier = [m @ g for m in frontier for g in gens]
        assert all(m.det() == 1 for m in frontier)
        assert all(e >= 0 for m in frontier for e in m.entries())

    def test_contraction_norm_decay(self):
        # sup|f_u'| <= 4^-|u| on the invariant interval, all generators
        for t in (F(1, 2), F(1), F(3)):
            fam = make_family(t)
            frontier = [(Matrix2.identity(), 0)]
            for _ in range(4):
                frontier = [(m @ g.matrix, depth + 1) for m, depth in frontier for g in fam.maps]
                for m, depth in frontier:
                    _, sup = MoebiusMap(m).derivative_bounds(fam.interval)
                    assert sup <= F(1, 4**depth)


def test_as_fraction_parsing():
    assert as_fraction("3/7") == F(3, 7)
    assert as_fraction("0.125") == F(1, 8)
    assert as_fraction(4) == 4
    with pytest.raises(TypeError):
        as_fraction(0.125)
