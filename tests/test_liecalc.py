"""Derivations, brackets, and formal flow series.

The bracket's coordinate formula is checked against the definition as a
commutator of derivations, applied to each coordinate function; flow
series of linear fields are checked against exact truncated matrix
exponentials in test_acceptance.  The derivation, the bracket and both
flow series, which sum their products in one packed kernel over a common
denominator, are also checked against the term-by-term `RatFunc` loops
they replaced, kept here as the reference, on all three tiers of the
polynomial engine: one box of packed keys for a whole computation, one
order at a time, and one `_dot` per component.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings

from conftest import (
    XY,
    XYZ,
    assert_value_type,
    field_strategy,
    partials,
    random_field,
    random_poly,
    random_ratfunc,
)
from liefol import (
    ChartMismatchError,
    FlowSeries,
    Poly,
    RatFunc,
    VectorField,
    apply_derivation,
    flow_series_field,
    flow_series_function,
    lie_bracket,
)
from liefol import liecalc as liecalc_module
from liefol import poly as poly_module

X, Y = XY.vars()
ZERO = Poly.zero(XY)
ONE = Poly.one(XY)


def vf(*coeffs):
    return VectorField.from_coefficients(XY, coeffs)


def commutator_on_coordinates(v, w):
    """[v, w] computed as the commutator of derivations.

    The bracket of two derivations is itself a derivation, so it is
    determined by its values on the coordinate functions.
    """
    chart = v.chart
    out = []
    for name in chart.variables:
        coord = RatFunc(chart.var(name))
        out.append(
            apply_derivation(v, apply_derivation(w, coord))
            - apply_derivation(w, apply_derivation(v, coord))
        )
    return VectorField.from_coefficients(chart, tuple(out))


# --- reference: RatFunc arithmetic one term at a time ----------------------


def _reference_apply_derivation(v, f):
    g = f if isinstance(f, RatFunc) else RatFunc(f)
    total = RatFunc.zero(v.chart)
    for k, coeff in enumerate(v.coefficients):
        if coeff.is_zero():
            continue
        total = total + coeff * g.partial(k)
    return total


def _reference_lie_bracket(v, w):
    chart = v.chart
    out = []
    for i in range(chart.size):
        acc = RatFunc.zero(chart)
        wi = w.coefficients[i]
        vi = v.coefficients[i]
        for j in range(chart.size):
            vj = v.coefficients[j]
            wj = w.coefficients[j]
            if not vj.is_zero():
                acc = acc + vj * wi.partial(j)
            if not wj.is_zero():
                acc = acc - wj * vi.partial(j)
        out.append(acc)
    return VectorField(chart, tuple(out))


def _reference_flow_series_function(v, f, order):
    """v^k(f)/k!, each v^k(f) by a derivation of the one before."""
    current = f if isinstance(f, RatFunc) else RatFunc(f)
    coeffs = []
    for k in range(order + 1):
        coeffs.append(current * Fraction(1, factorial(k)))
        if k < order:
            current = apply_derivation(v, current)
    return tuple(coeffs)


def _reference_flow_series_field(v, w, order):
    """[v, -]^k(w)/k!, each bracket by `_reference_lie_bracket` of the
    one before."""
    current = w
    coeffs = []
    for k in range(order + 1):
        coeffs.append(current.scale(Fraction(1, factorial(k))))
        if k < order:
            current = _reference_lie_bracket(v, current)
    return tuple(coeffs)


def _dense_poly(rng, chart, degree=3, top_den=3):
    """Every monomial of total degree <= ``degree``, with coefficients
    n/d, 0 < |n| <= 9 and d <= ``top_den``."""
    return Poly(
        chart,
        {
            e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, top_den))
            for e in itertools.product(range(degree + 1), repeat=chart.size)
            if sum(e) <= degree
        },
    )


def _dense_fields(rng, chart=XYZ):
    """A dense cubic field with integer coefficients, one with fractions
    and one with fractions and a zero component."""
    integral = [_dense_poly(rng, chart, top_den=1) for _ in range(chart.size)]
    fractional = [_dense_poly(rng, chart) for _ in range(chart.size)]
    holed = [_dense_poly(rng, chart) for _ in range(chart.size)]
    holed[rng.randrange(chart.size)] = Poly.zero(chart)
    return [VectorField(chart, cs) for cs in (integral, fractional, holed)]


def _paths(monkeypatch):
    """The tiers that polynomial brackets and flow series take while the
    test runs, as `liecalc._iterates` asks `_series_box` for a box: "box"
    (one box for a whole computation, or for one order of a series),
    "per order" (no box for a series, which then takes one order at a
    time) or "dot" (no box for one order: one `_dot` per component)."""
    taken = set()
    real = liecalc_module._series_box

    def spy(vs, base, order):
        box = real(vs, base, order)
        if order:
            taken.add("box" if box is not None else "per order" if order > 1 else "dot")
        return box

    monkeypatch.setattr(liecalc_module, "_series_box", spy)
    return taken


def _mixed_field(rng, chart):
    """Coefficients drawn from zero, polynomials and rational functions."""
    coeffs = []
    for _ in range(chart.size):
        kind = rng.randrange(4)
        if kind == 0:
            coeffs.append(Poly.zero(chart))
        elif kind == 1:
            coeffs.append(random_poly(rng, chart, 2, 5))
        else:
            coeffs.append(random_ratfunc(rng, chart))
    return VectorField.from_coefficients(chart, coeffs)


def _functions(rng, chart):
    """A rational function, a polynomial, a nonzero constant and zero."""
    return [
        random_ratfunc(rng, chart),
        RatFunc(random_poly(rng, chart, 3, 5)),
        RatFunc.constant(chart, Fraction(rng.randint(1, 9), rng.randint(1, 9))),
        RatFunc.zero(chart),
    ]


class TestAgainstReference:
    def test_derivations_match(self):
        rng = random.Random(41)
        for chart in (XY, XYZ):
            zero = VectorField.zero(chart)
            for _ in range(20):
                v = _mixed_field(rng, chart)
                for f in _functions(rng, chart):
                    assert apply_derivation(v, f) == _reference_apply_derivation(v, f)
                    assert apply_derivation(zero, f).is_zero()
                    if f.is_constant():
                        assert apply_derivation(v, f).is_zero()

    def test_brackets_match(self, monkeypatch):
        """Sparse and rational fields, whose polynomial brackets take one
        `_dot` per component, and dense cubic fields on XYZ with fractions
        and a zero component, which take one box."""
        paths = _paths(monkeypatch)
        rng = random.Random(42)
        for chart in (XY, XYZ):
            zero = VectorField.zero(chart)
            for _ in range(15):
                v = _mixed_field(rng, chart)
                w = _mixed_field(rng, chart)
                p = random_field(rng, chart, max_degree=2, coeff_bound=5)
                for a, b in ((v, w), (v, p), (p, v), (v, zero), (zero, w), (v, v)):
                    assert lie_bracket(a, b) == _reference_lie_bracket(a, b)
                assert lie_bracket(zero, w).is_zero() and lie_bracket(v, v).is_zero()
        for _ in range(2):
            dense = _dense_fields(rng)
            sparse = random_field(rng, XYZ, max_degree=2, coeff_bound=5)
            for a, b in itertools.permutations([*dense, sparse], 2):
                assert lie_bracket(a, b) == _reference_lie_bracket(a, b)
        assert paths == {"box", "dot"}

    def test_one_reduction_per_rational_derivation(self, monkeypatch):
        """v(a/b) is put over one denominator and reduced once, where the
        reference loop reduces every partial, product and partial sum."""
        rng = random.Random(43)
        v = random_field(rng, XYZ, max_degree=2, coeff_bound=5, nonzero=True)
        x, y, z = XYZ.vars()
        f = RatFunc(x * y - 2 * z + 1, x**2 + y * z - 3)
        expected = _reference_apply_derivation(v, f)
        calls = []
        real_gcd = poly_module._gcd

        def counting_gcd(p, q):
            calls.append((p, q))
            return real_gcd(p, q)

        monkeypatch.setattr(poly_module, "_gcd", counting_gcd)
        assert apply_derivation(v, f) == expected
        fused = len(calls)
        calls.clear()
        _reference_apply_derivation(v, f)
        assert fused <= 2 < len(calls)

    def test_flow_series_function_matches(self, monkeypatch):
        """The recurrence over powers of the base denominator against the
        loop of derivations.  Rational fields stop at order 2: past it the
        reference's gcds reach the PRS fallback and take seconds.  So do
        rational functions under dense cubic fields, which stay on XY.
        Polynomial series take all three tiers: sparse ones go one order
        at a time, and dense cubic fields on XYZ, with fractions and a
        zero component, take one box on dense polynomials from some order
        on."""
        paths = _paths(monkeypatch)
        rng = random.Random(44)
        zero = VectorField.zero(XY)
        for _ in range(12):
            for v in (_mixed_field(rng, XY), random_field(rng, XY, 2, 5), zero):
                top = 4 if v.is_polynomial() else 2
                for f in _functions(rng, XY):
                    for order in range(top + 1):
                        got = flow_series_function(v, f, order).coefficients
                        assert got == _reference_flow_series_function(v, f, order)
        for v in _dense_fields(rng):
            for f in (_dense_poly(rng, XYZ), _dense_poly(rng, XYZ, 1)):
                expected = _reference_flow_series_function(v, f, 4)
                for order in range(5):
                    got = flow_series_function(v, f, order).coefficients
                    assert got == expected[: order + 1]
        assert paths == {"box", "per order", "dot"}

    def test_flow_series_field_matches(self, monkeypatch):
        """Iterated brackets against the loop of `_reference_lie_bracket`:
        sparse polynomial fields one order at a time, rational ones up to
        order 2, as above, and dense cubic fields on XYZ, with fractions
        and a zero component, on one box from some order on."""
        paths = _paths(monkeypatch)
        rng = random.Random(45)
        for chart in (XY, XYZ):
            for _ in range(6):
                v, w = _mixed_field(rng, chart), random_field(rng, chart, 2, 5)
                for a, b in ((v, w), (w, v)):
                    top = 4 if a.is_polynomial() and b.is_polynomial() else 2
                    expected = _reference_flow_series_field(a, b, top)
                    for order in range(top + 1):
                        got = flow_series_field(a, b, order).coefficients
                        assert got == expected[: order + 1]
        dense = _dense_fields(rng)
        for a, b in zip(dense, dense[1:] + dense[:1]):
            expected = _reference_flow_series_field(a, b, 4)
            for order in range(5):
                assert flow_series_field(a, b, order).coefficients == expected[: order + 1]
        assert paths == {"box", "per order", "dot"}

    def test_field_series_packs_each_coefficient_once(self, monkeypatch):
        """A polynomial flow series packs each coefficient of v and w once
        into one box, 2n packs in all, and stays on its keys through every
        order; the box's radix for x_k is deg_k w + order * deg_k v + 1."""
        rng = random.Random(46)
        v, w = (VectorField(XYZ, [_dense_poly(rng, XYZ) for _ in "xyz"]) for _ in range(2))
        vs, ws = v.polynomial_coefficients(), w.polynomial_coefficients()
        assert poly_module._series_box(vs, ws, 3).radices == [13, 13, 13]
        expected = flow_series_field(v, w, 3).coefficients
        packed = []
        real = poly_module._Box.pack

        def spy(box, num):
            packed.append(num)
            return real(box, num)

        monkeypatch.setattr(poly_module._Box, "pack", spy)
        assert flow_series_field(v, w, 3).coefficients == expected
        assert sorted(map(id, packed)) == sorted(id(p._num) for p in vs + ws)

    def test_series_box_over_the_bound_takes_the_per_order_path(self):
        """ROADMAP item 4's 97-byte field at order 30 with f = xyz + 1: the
        series forms more than `_SMALL_SUM_PRODUCTS` products, but its box
        has 92 slots a variable, 92^3 in all, more than
        `_DENSE_SLOTS_PER_TERM` times its 9 terms, so it takes the
        per-order path.  Only the decision is checked."""
        x, y, z = XYZ.vars()
        v = (x**3 * y + z**2 - 1, y**3 * z + x, z**3 * x - y)
        f = x * y * z + 1
        terms = sum(len(p) for p in v) + len(f)
        assert 30 * (terms - len(f)) * len(f) > poly_module._SMALL_SUM_PRODUCTS
        assert (1 + 30 * 3 + 1) ** 3 > poly_module._DENSE_SLOTS_PER_TERM * terms == 128 * 9
        assert poly_module._series_box(v, (f,), 30) is None

    def test_series_over_the_bound_take_one_box_per_order(self, monkeypatch):
        """Item 4's field at order 6, where neither series gets a box for
        the whole computation: each takes one order at a time, its first
        order (on the small f or w) in `_dot` and every later one on a
        box of its own.  Both equal the reference and a run with every
        box refused, which takes `_dot` for every order."""
        x, y, z = XYZ.vars()
        v = VectorField(XYZ, (x**3 * y + z**2 - 1, y**3 * z + x, z**3 * x - y))
        w = VectorField(XYZ, (y * z, x - z, x * y + 1))
        f = RatFunc(x * y * z + 1)
        order = 6
        cases = [
            (flow_series_function, f, _reference_flow_series_function(v, f, order)),
            (flow_series_field, w, _reference_flow_series_field(v, w, order)),
        ]
        taken = []
        real = liecalc_module._series_box

        def spy(vs, base, k):
            box = real(vs, base, k)
            taken.append((k, box is not None))
            return box

        monkeypatch.setattr(liecalc_module, "_series_box", spy)
        for series, base, expected in cases:
            taken.clear()
            assert series(v, base, order).coefficients == expected
            assert taken == [(order, False), (1, False)] + [(1, True)] * (order - 1)
        monkeypatch.setattr(liecalc_module, "_series_box", lambda *args: None)
        for series, base, expected in cases:
            assert series(v, base, order).coefficients == expected

    def test_order_zero_computes_nothing(self, monkeypatch):
        """Order 0 returns the base: no sum of products is formed."""
        rng = random.Random(47)
        v, w = _dense_fields(rng)[:2]
        f = _dense_poly(rng, XYZ)
        def no_dot(*args):
            raise AssertionError("a sum of products at order 0")

        monkeypatch.setattr(liecalc_module, "_dot", no_dot)
        monkeypatch.setattr(poly_module, "_dot", no_dot)
        assert flow_series_function(v, f, 0).coefficients == (RatFunc(f),)
        assert flow_series_field(v, w, 0).coefficients == (w,)

    def test_flow_series_function_special_denominators(self):
        """Square factors in b, and factors of b that are invariant curves
        of v (they divide v(b)), where the numerators do share factors with
        the denominator and each order is reduced."""
        y2 = Y**2 - 1
        fields = [
            vf(X * Y, y2),  # y^2 - 1 is invariant: v(y^2 - 1) = 2y(y^2 - 1)
            vf(X, Y),  # radial: every homogeneous factor is invariant
            vf(Y, -X),
            vf(X**2 - Y, X * Y + 1),
            vf(RatFunc(X, y2), Y),
        ]
        functions = [
            RatFunc(X + 1, y2),
            RatFunc(X * Y - 3, y2 * (X + 2)),
            RatFunc(X, (Y - 1) ** 2),
            RatFunc(ONE, (X + Y) ** 2 * (X - 2 * Y + 1)),
            RatFunc(X**2 + Y, X * Y),
        ]
        for v in fields:
            for f in functions:
                for order in range(5):
                    got = flow_series_function(v, f, order).coefficients
                    assert got == _reference_flow_series_function(v, f, order)

    def test_one_gcd_per_polynomial_flow_series(self, monkeypatch):
        """For a polynomial field and f = a/b with gcd(b, v(b)) = 1 the
        only gcd of a series is that coprimality test; the loop of
        derivations reduces every order."""
        v = vf(X**2 - Y, X * Y + 1)
        f = RatFunc(X * Y - 2, X**2 + Y + 3)
        assert poly_module.gcd(f.den, apply_derivation(v, f.den).num).is_one()
        expected = _reference_flow_series_function(v, f, 4)
        calls = []
        real_gcd = poly_module._gcd

        def counting_gcd(p, q):
            calls.append((p, q))
            return real_gcd(p, q)

        monkeypatch.setattr(poly_module, "_gcd", counting_gcd)
        assert flow_series_function(v, f, 4).coefficients == expected
        assert len(calls) == 1
        calls.clear()
        _reference_flow_series_function(v, f, 4)
        assert len(calls) >= 4


class TestApplyDerivation:
    def test_first_integral_of_radial_field(self):
        v = vf(X, Y)
        assert apply_derivation(v, RatFunc(Y, X)).is_zero()

    def test_constant_field(self):
        v = vf(ONE, ZERO)
        assert apply_derivation(v, RatFunc(X)) == RatFunc(ONE)

    def test_inverse_coordinate(self):
        v = vf(X**2, ZERO)
        assert apply_derivation(v, RatFunc(ONE, X)) == RatFunc.constant(XY, -1)

    @given(field_strategy(XY))
    @settings(max_examples=settings.default.max_examples // 2)
    def test_derivation_leibniz(self, v):
        f = RatFunc(X + 1, Y**2 + 1)
        g = RatFunc(X * Y)
        assert apply_derivation(v, f * g) == apply_derivation(v, f) * g + f * apply_derivation(v, g)


class TestBracket:
    def test_constant_fields_commute(self):
        assert lie_bracket(vf(ONE, ZERO), vf(ZERO, ONE)).is_zero()

    def test_radial_and_rotation_commute(self):
        assert lie_bracket(vf(X, Y), vf(-Y, X)).is_zero()

    def test_scaling_against_translation(self):
        v = vf(X, ZERO)
        w = vf(ONE, ZERO)
        assert lie_bracket(v, w) == vf(-ONE, ZERO)

    @given(field_strategy(XY), field_strategy(XY))
    @settings(max_examples=settings.default.max_examples * 5 // 12)
    def test_antisymmetry(self, v, w):
        assert lie_bracket(v, w) == -lie_bracket(w, v)

    @given(field_strategy(XY, max_degree=1), field_strategy(XY, max_degree=1), field_strategy(XY, max_degree=1))
    @settings(max_examples=settings.default.max_examples // 4)
    def test_jacobi(self, u, v, w):
        total = (
            lie_bracket(u, lie_bracket(v, w))
            + lie_bracket(v, lie_bracket(w, u))
            + lie_bracket(w, lie_bracket(u, v))
        )
        assert total.is_zero()

    def test_matches_commutator_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            v = random_field(rng, XYZ, max_degree=2, coeff_bound=4)
            w = random_field(rng, XYZ, max_degree=2, coeff_bound=4)
            assert lie_bracket(v, w) == commutator_on_coordinates(v, w)

    def test_chart_mismatch(self):
        other = VectorField.from_coefficients(XYZ, XYZ.vars())
        with pytest.raises(ChartMismatchError):
            lie_bracket(vf(X, Y), other)


class TestJacobian:
    def test_entries(self):
        jac = partials(vf(X * Y, Y**2).coefficients, XY)
        assert jac[0][0] == RatFunc(Y)
        assert jac[0][1] == RatFunc(X)
        assert jac[1][0].is_zero()
        assert jac[1][1] == RatFunc(2 * Y)

    @given(field_strategy(XY, max_degree=2), field_strategy(XY, max_degree=2))
    @settings(max_examples=settings.default.max_examples // 3)
    def test_bracket_is_derivative_minus_jacobian(self, v, w):
        """[v, w]_i = v(w_i) - sum_j (dv_i/dx_j) w_j: the Lie derivative
        along v acts on coefficient columns as d/dv minus v's Jacobian."""
        jac = partials(v.coefficients, XY)
        bracket = lie_bracket(v, w)
        for i in range(XY.size):
            moved = apply_derivation(v, w.coefficients[i])
            for j in range(XY.size):
                moved = moved - jac[i][j] * w.coefficients[j]
            assert bracket.coefficients[i] == moved


class TestValueTypes:
    def test_vector_field(self):
        v = VectorField(XY, (X, 1))
        same = VectorField(chart=XY, coefficients=[RatFunc(X), Fraction(1)])
        assert_value_type(v, same, vf(X, ZERO))
        assert v.coefficients == (RatFunc(X), RatFunc.constant(XY, 1))
        assert VectorField.from_coefficients(XY, (X, ONE)) == v

    def test_vector_field_errors(self):
        with pytest.raises(ValueError, match=r"need 2 coefficients for chart \(x, y\), got 1"):
            VectorField(XY, (X,))
        with pytest.raises(ChartMismatchError, match="coefficient lives on a different chart"):
            VectorField(XY, (X, XYZ.var("z")))
        with pytest.raises(TypeError, match="bad coefficient: str"):
            VectorField(XY, (X, "y"))

    def test_vector_field_difference(self):
        v, w = vf(Y, -X), VectorField(XY, (X**2, RatFunc(Y, X + 1)))
        assert v - w == v + (-w)
        assert v - w == VectorField(XY, (Y - X**2, -X - RatFunc(Y, X + 1)))

    def test_flow_series(self):
        series = flow_series_function(vf(X, Y), X, 2)
        same = FlowSeries(kind="function", order=2, coefficients=tuple(series.coefficients))
        other = FlowSeries("function", 0, (RatFunc(X),))
        assert_value_type(series, same, other)

    def test_flow_series_errors(self):
        with pytest.raises(ValueError, match="bad series kind 'vector'"):
            FlowSeries("vector", 0, (RatFunc(X),))
        with pytest.raises(ValueError, match="order must be non-negative"):
            FlowSeries("function", -1, ())
        with pytest.raises(ValueError, match=r"need order \+ 1 coefficients"):
            FlowSeries("field", 1, (vf(X, Y),))


class TestFlowSeries:
    def test_translation_of_coordinate(self):
        v = vf(ONE, ZERO)
        series = flow_series_function(v, X, 3)
        assert [str(c) for c in series.coefficients] == ["x", "1", "0", "0"]

    def test_display(self):
        series = flow_series_function(vf(Y, -X), X, 2)
        assert str(series) == "x + (y)*t + (-1/2*x)*t^2"

    def test_order_zero_truncation(self):
        v = vf(X**2, Y)
        series = flow_series_function(v, X * Y, 0)
        assert series.coefficients == (RatFunc(X * Y),)

    def test_scaling_of_coordinate(self):
        v = vf(X, ZERO)
        series = flow_series_function(v, X, 2)
        assert series.coefficients == (
            RatFunc(X),
            RatFunc(X),
            RatFunc(X, Poly.constant(XY, 2)),
        )

    def test_field_series_translation(self):
        v = vf(ONE, ZERO)
        w = vf(X, ZERO)
        series = flow_series_field(v, w, 2)
        assert series.coefficients[0] == w
        assert series.coefficients[1] == vf(ONE, ZERO)
        assert series.coefficients[2].is_zero()

    def test_field_series_commuting_is_constant(self):
        v = vf(X, Y)
        w = vf(-Y, X)
        series = flow_series_field(v, w, 4)
        assert series.coefficients[0] == w
        assert all(c.is_zero() for c in series.coefficients[1:])

    def test_field_series_alternating(self):
        v = vf(X, ZERO)
        w = vf(ONE, ZERO)
        series = flow_series_field(v, w, 2)
        assert series.coefficients[1] == vf(-ONE, ZERO)
        assert series.coefficients[2] == vf(ONE * Fraction(1, 2), ZERO)

    def test_derivative_identity(self):
        """d/dt of the series equals the series of the derivative.

        For function series: coefficient k of the derivative is
        (k+1) * coefficient_{k+1}, which must equal the series of
        apply_derivation(v, f) one order lower.
        """
        rng = random.Random(3)
        for _ in range(10):
            v = random_field(rng, XY, max_degree=2, coeff_bound=3)
            f = random_poly(rng, XY, max_degree=2, coeff_bound=3)
            series = flow_series_function(v, f, 5)
            derived = flow_series_function(v, apply_derivation(v, f), 4)
            # formal d/dt: coefficient k becomes (k+1) * c_{k+1}
            dt = tuple(c * Fraction(k + 1) for k, c in enumerate(series.coefficients[1:]))
            assert dt == derived.coefficients

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            flow_series_function(vf(X, Y), X, -1)
