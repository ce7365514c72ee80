"""Connections on free modules, pullbacks, and the flow-morphism check."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import XY, assert_value_type, random_field, random_poly
from liefol import liecalc
from liefol import dmod as dmod_module
from liefol import (
    Chart,
    ChartMismatchError,
    Connection,
    MorphismPreconditionError,
    Poly,
    PolyMap,
    RatFunc,
    VectorField,
    apply_derivation,
    check_dmorphism,
    lie_connection_matrix,
    nabla_apply,
    pullback_connection,
)

U_CHART = Chart(("u",))
UV_CHART = Chart(("u", "v"))
X, Y = XY.vars()


def r(p):
    return RatFunc.from_poly(p)


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


class TestNablaApply:
    def test_plain_derivative_when_matrix_zero(self):
        v = VectorField.from_coefficients(XY, (Poly.one(XY), Poly.zero(XY)))
        conn = Connection(v, ((RatFunc.zero(XY),) * 2,) * 2)
        out = nabla_apply(conn, (X, Poly.one(XY)))
        assert out == (r(Poly.one(XY)), RatFunc.zero(XY))

    def test_pure_matrix_action(self):
        chart = U_CHART
        zero_field = VectorField.zero(chart)
        one = RatFunc.constant(chart, 1)
        conn = Connection(zero_field, ((one,),))
        f = r(chart.var("u") ** 2)
        assert nabla_apply(conn, (f,)) == (f,)

    def test_leibniz_rule(self):
        rng = random.Random(21)
        for _ in range(25):
            v = random_field(rng, XY, max_degree=2, coeff_bound=4)
            mat = tuple(
                tuple(r(random_poly(rng, XY, 1, 3)) for _ in range(2)) for _ in range(2)
            )
            conn = Connection(v, mat)
            a = r(random_poly(rng, XY, 2, 4))
            section = (r(random_poly(rng, XY, 2, 4)), r(random_poly(rng, XY, 2, 4)))
            scaled = tuple(a * m for m in section)
            lhs = nabla_apply(conn, scaled)
            da = apply_derivation(v, a)
            rhs = tuple(
                da * m + a * nm for m, nm in zip(section, nabla_apply(conn, section))
            )
            assert lhs == rhs

    def test_connection_difference_is_function_linear(self):
        rng = random.Random(22)
        v = random_field(rng, XY, max_degree=2, coeff_bound=4)
        mat1 = tuple(tuple(r(random_poly(rng, XY, 1, 3)) for _ in range(2)) for _ in range(2))
        mat2 = tuple(tuple(r(random_poly(rng, XY, 1, 3)) for _ in range(2)) for _ in range(2))
        c1 = Connection(v, mat1)
        c2 = Connection(v, mat2)
        a = r(random_poly(rng, XY, 2, 4, allow_zero=False))
        section = (r(X + Y), r(X * Y - 1))
        scaled = tuple(a * m for m in section)

        def diff(sec):
            out1 = nabla_apply(c1, sec)
            out2 = nabla_apply(c2, sec)
            return tuple(p - q for p, q in zip(out1, out2))

        assert diff(scaled) == tuple(a * d for d in diff(section))

    def test_rational_field_matches_derivation(self, monkeypatch):
        """v(f_i) + sum_j A[i][j] f_j, with v's common denominator taken once."""
        v = VectorField.from_coefficients(XY, (RatFunc(X, Y + 1), RatFunc(Y**2, X**2 + 1)))
        conn = Connection(v, ((r(X), RatFunc(Y, X + 2)), (RatFunc.zero(XY), r(Y**2))))
        section = (RatFunc(X * Y, X - Y), r(X + 3))
        expected = tuple(
            apply_derivation(v, section[i])
            + sum((conn.matrix[i][j] * section[j] for j in range(2)), RatFunc.zero(XY))
            for i in range(2)
        )
        assert _denominators_of(monkeypatch, v, lambda: nabla_apply(conn, section)) == (
            expected,
            1,
        )

    def test_wrong_section_length(self):
        v = VectorField.zero(XY)
        conn = Connection(v, ((RatFunc.zero(XY),) * 2,) * 2)
        with pytest.raises(ValueError):
            nabla_apply(conn, (r(X),))


class TestValueTypes:
    def test_connection(self):
        v = VectorField.from_coefficients(XY, (X, Y))
        conn = Connection(v, [[r(X), r(Y)], [r(Y), r(X)]])
        assert conn.matrix == ((r(X), r(Y)), (r(Y), r(X)))
        same = Connection(base_field=v, matrix=((r(X), r(Y)), (r(Y), r(X))))
        assert_value_type(conn, same, Connection(v, ((r(X), r(Y)), (r(Y), r(Y)))))

    def test_connection_errors(self):
        v = VectorField.from_coefficients(XY, (X, Y))
        with pytest.raises(ValueError, match="empty connection matrix"):
            Connection(v, ())
        with pytest.raises(ValueError, match="connection matrix must be square"):
            Connection(v, ((r(X), r(Y)),))
        with pytest.raises(ChartMismatchError, match="matrix entry on a different chart"):
            Connection(v, ((RatFunc.constant(U_CHART, 1),),))

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


class TestPullbackConnection:
    def test_identity_map_keeps_matrix(self):
        ident = PolyMap(XY, XY, (X, Y))
        v = VectorField.from_coefficients(XY, (X, Y))
        conn = lie_connection_matrix(v)
        pulled = pullback_connection(conn, ident, v)
        assert pulled.matrix == conn.matrix

    def test_substitution(self):
        u = U_CHART.var("u")
        w = VectorField.from_coefficients(U_CHART, (u,))
        conn = Connection(w, ((r(u),),))
        phi = PolyMap(XY, U_CHART, (X**2,))
        v = VectorField.from_coefficients(XY, (X, Y))
        pulled = pullback_connection(conn, phi, v)
        assert pulled.matrix[0][0] == r(X**2)
        assert pulled.base_field == v

    def test_zero_matrix_stays_zero(self):
        w = VectorField.zero(U_CHART)
        conn = Connection(w, ((RatFunc.zero(U_CHART),),))
        phi = PolyMap(XY, U_CHART, (X * Y,))
        v = VectorField.zero(XY)
        pulled = pullback_connection(conn, phi, v)
        assert pulled.matrix[0][0].is_zero()


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
