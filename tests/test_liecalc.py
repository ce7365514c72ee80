"""Derivations, brackets, Jacobians, and formal flow series.

The bracket's coordinate formula is checked against the definition as a
commutator of derivations, applied to each coordinate function; flow
series of linear fields are checked against exact truncated matrix
exponentials in test_acceptance.  The derivation and the bracket, which
sum their products in one packed kernel over a common denominator, are
also checked against the term-by-term `RatFunc` loops they replaced,
kept here as the reference.
"""

from __future__ import annotations

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
    jacobian_matrix,
    lie_bracket,
)
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

    def test_brackets_match(self):
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

    def test_flow_series_function_matches(self):
        """The recurrence over powers of the base denominator against the
        loop of derivations.  Rational fields stop at order 2: past it the
        reference's gcds reach the PRS fallback and take seconds."""
        rng = random.Random(44)
        zero = VectorField.zero(XY)
        for _ in range(12):
            for v in (_mixed_field(rng, XY), random_field(rng, XY, 2, 5), zero):
                top = 4 if v.is_polynomial() else 2
                for f in _functions(rng, XY):
                    for order in range(top + 1):
                        got = flow_series_function(v, f, order).coefficients
                        assert got == _reference_flow_series_function(v, f, order)

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
    @settings(max_examples=30)
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
    @settings(max_examples=25)
    def test_antisymmetry(self, v, w):
        assert lie_bracket(v, w) == -lie_bracket(w, v)

    @given(field_strategy(XY, max_degree=1), field_strategy(XY, max_degree=1), field_strategy(XY, max_degree=1))
    @settings(max_examples=15)
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
        jac = jacobian_matrix(vf(X * Y, Y**2))
        assert jac[0][0] == RatFunc(Y)
        assert jac[0][1] == RatFunc(X)
        assert jac[1][0].is_zero()
        assert jac[1][1] == RatFunc(2 * Y)

    @given(field_strategy(XY, max_degree=2), field_strategy(XY, max_degree=2))
    @settings(max_examples=20)
    def test_bracket_is_derivative_minus_jacobian(self, v, w):
        """[v, w]_i = v(w_i) - sum_j (dv_i/dx_j) w_j: the Lie derivative
        along v acts on coefficient columns as d/dv minus v's Jacobian."""
        jac = jacobian_matrix(v)
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
