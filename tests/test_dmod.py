"""Polynomial maps, their Jacobians and pullbacks, and the D-morphism check."""

from __future__ import annotations

import random

import pytest

from conftest import XY, assert_value_type, random_poly
from liefol import liecalc
from liefol import dmod as dmod_module
from liefol import (
    Chart,
    ChartMismatchError,
    MorphismPreconditionError,
    Poly,
    PolyMap,
    RatFunc,
    VectorField,
    check_dmorphism,
)

U_CHART = Chart(("u",))
UV_CHART = Chart(("u", "v"))
X, Y = XY.vars()


def r(p):
    return RatFunc(p)


def _denominators_of(monkeypatch, v, call):
    """The result of ``call()`` and how often it put v's coefficients over
    their common denominator, in ``dmod`` or through ``liecalc``."""
    seen = []
    real = dmod_module._common_denominator

    def counting(fs):
        fs = tuple(fs)
        seen.append(fs == v.coefficients)
        return real(fs)

    monkeypatch.setattr(dmod_module, "_common_denominator", counting)
    monkeypatch.setattr(liecalc, "_common_denominator", counting)
    return call(), sum(seen)


class TestValueTypes:
    def test_poly_map(self):
        phi = PolyMap(XY, UV_CHART, [X**2 + Y**2, X * Y])
        assert phi.components == (X**2 + Y**2, X * Y)
        same = PolyMap(source=XY, target=UV_CHART, components=(X**2 + Y**2, X * Y))
        assert_value_type(phi, same, PolyMap(XY, UV_CHART, (X, Y)))


class TestPolyMap:
    def test_jacobian(self):
        phi = PolyMap(XY, UV_CHART, (X**2 + Y**2, X * Y))
        jac = phi.jacobian()
        assert jac[0][0] == 2 * X
        assert jac[0][1] == 2 * Y
        assert jac[1][0] == Y
        assert jac[1][1] == X

    def test_display(self):
        assert str(PolyMap(XY, UV_CHART, (X + Y, X * Y))) == "(x + y, x*y)"

    def test_pull_back(self):
        phi = PolyMap(XY, U_CHART, (X**2,))
        u = U_CHART.var("u")
        assert phi.pull_back(u + 1) == r(X**2 + 1)

    def test_component_count_must_match_target(self):
        with pytest.raises(ValueError, match=r"map into \(u, v\) needs 2 components, got 1"):
            PolyMap(XY, UV_CHART, (X,))

    def test_components_live_on_source(self):
        u = U_CHART.var("u")
        with pytest.raises(ChartMismatchError, match="component not defined on the source chart"):
            PolyMap(XY, U_CHART, (u,))


def product_morphism(rng, base_degree=2, vertical_degree=2):
    """A morphism triple built as projection from a product.

    The source chart splits as (target vars) x (extra vars); v acts on
    the first block exactly as w does on the target (lifted), plus an
    arbitrary vertical component on the second block.
    """
    chart3 = Chart(("x", "y", "z"))
    target = XY
    x3, y3, z3 = chart3.vars()
    # w on the target, lifted through the projection (x, y, z) -> (x, y)
    w_coeffs = [random_poly(rng, target, base_degree, 4) for _ in range(2)]
    lift = [p.substitute((x3, y3)) for p in w_coeffs]
    vertical = random_poly(rng, chart3, vertical_degree, 4)
    v = VectorField.from_coefficients(chart3, (lift[0], lift[1], vertical))
    w = VectorField.from_coefficients(target, tuple(w_coeffs))
    phi = PolyMap(chart3, target, (x3, y3))
    return phi, v, w


class TestCheckDMorphism:
    def test_projection_of_radial(self):
        u = U_CHART.var("u")
        phi = PolyMap(XY, U_CHART, (X,))
        v = VectorField.from_coefficients(XY, (X, Y))
        w = VectorField.from_coefficients(U_CHART, (u,))
        result = check_dmorphism(phi, v, w)
        assert result.ok and result.witness is None

    def test_identity_morphism(self):
        phi = PolyMap(XY, XY, (X, Y))
        v = VectorField.from_coefficients(XY, (X * Y, Y**2 - 1))
        assert check_dmorphism(phi, v, v).ok

    def test_precondition_failure_names_coordinate(self):
        u = U_CHART.var("u")
        phi = PolyMap(XY, U_CHART, (X,))
        v = VectorField.from_coefficients(XY, (X, Y))
        w = VectorField.from_coefficients(U_CHART, (u**2,))
        with pytest.raises(MorphismPreconditionError) as exc:
            check_dmorphism(phi, v, w)
        assert exc.value.coordinate == 0
        assert "u" in str(exc.value)

    def test_product_family(self):
        rng = random.Random(31)
        for _ in range(40):
            phi, v, w = product_morphism(rng)
            result = check_dmorphism(phi, v, w)
            assert result.ok, result.witness

    def test_perturbed_product_family_rejected(self):
        rng = random.Random(32)
        rejected = 0
        for _ in range(40):
            phi, v, w = product_morphism(rng)
            # break one horizontal coefficient: the precondition compares
            # it directly with w's pullback, so any nonzero shift fires
            coeffs = list(v.coefficients)
            j = rng.randrange(2)
            shift = Poly.constant(phi.source, 0)
            while shift.is_zero():
                shift = random_poly(rng, phi.source, 1, 3)
            coeffs[j] = coeffs[j] + shift
            broken = VectorField.from_coefficients(phi.source, tuple(coeffs))
            with pytest.raises(MorphismPreconditionError) as exc:
                check_dmorphism(phi, broken, w)
            assert exc.value.coordinate == j
            rejected += 1
        assert rejected == 40

    def test_nonlinear_factor_map(self):
        # phi = x*y intertwines v = x dx - y dy with the zero field:
        # v(x*y) = x*y - x*y = 0
        u = U_CHART.var("u")
        phi = PolyMap(XY, U_CHART, (X * Y,))
        v = VectorField.from_coefficients(XY, (X, -Y))
        w = VectorField.zero(U_CHART)
        assert check_dmorphism(phi, v, w).ok
        # and the scaled target field requires the scaled source field
        v2 = VectorField.from_coefficients(XY, (X, Y))
        w2 = VectorField.from_coefficients(U_CHART, (2 * u,))
        assert check_dmorphism(phi, v2, w2).ok

    def test_identity_defect_returns_witness(self, monkeypatch):
        """A Jacobian that breaks the identity after the precondition
        passed comes back as ok=False with (row, col, defect)."""
        real = dmod_module.jacobian_matrix
        calls = []

        def shifted_first(field):
            jac = real(field)
            calls.append(field)
            if len(calls) > 1:
                return jac
            # v's Jacobian, the first one the check takes: add 1 at [0][0]
            top = (jac[0][0] + RatFunc.constant(field.chart, 1),) + jac[0][1:]
            return (top,) + jac[1:]

        monkeypatch.setattr(dmod_module, "jacobian_matrix", shifted_first)
        identity = PolyMap(XY, XY, (X, Y))
        v = VectorField.from_coefficients(XY, (X, Y))
        result = check_dmorphism(identity, v, v)
        assert result.ok is False
        assert result.witness == (0, 0, RatFunc.constant(XY, -1))
        assert calls == [v, v]

    def test_rational_field_denominator_taken_once(self, monkeypatch):
        """check_dmorphism derives n + n^2 functions along v over one
        common denominator, and still accepts the triples of
        test_rational_fields."""
        u = U_CHART.var("u")
        projection = PolyMap(XY, U_CHART, (X,))
        w = VectorField.from_coefficients(U_CHART, (RatFunc(u, u**2 + 1),))
        lifted = VectorField.from_coefficients(XY, (RatFunc(X, X**2 + 1), RatFunc(Y, X - 2)))
        result, count = _denominators_of(
            monkeypatch, lifted, lambda: check_dmorphism(projection, lifted, w)
        )
        assert result == (True, None) and count == 1
        identity = PolyMap(XY, XY, (X, Y))
        result, count = _denominators_of(
            monkeypatch, lifted, lambda: check_dmorphism(identity, lifted, lifted)
        )
        assert result == (True, None) and count == 1

    def test_rational_fields(self):
        """Rational coefficients: each sum runs over its common denominator."""
        identity = PolyMap(XY, XY, (X, Y))
        v = VectorField.from_coefficients(XY, (RatFunc(X, Y + 1), RatFunc(Y**2, X**2 + 1)))
        assert check_dmorphism(identity, v, v).ok
        u = U_CHART.var("u")
        projection = PolyMap(XY, U_CHART, (X,))
        w = VectorField.from_coefficients(U_CHART, (RatFunc(u, u**2 + 1),))
        lifted = VectorField.from_coefficients(XY, (RatFunc(X, X**2 + 1), RatFunc(Y, X - 2)))
        assert check_dmorphism(projection, lifted, w).ok
        wrong = VectorField.from_coefficients(U_CHART, (RatFunc(u, u**2 + 2),))
        with pytest.raises(MorphismPreconditionError):
            check_dmorphism(projection, lifted, wrong)
