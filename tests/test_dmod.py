"""Polynomial maps and their pullbacks, and the D-morphism check.

The intertwining identity B^phi . J = J . A + v(J) is checked here on the
side, entry by entry, to show that it holds whenever the compatibility
condition that ``check_dmorphism`` tests does."""

from __future__ import annotations

import random

import pytest

from conftest import XY, assert_value_type, partials, random_field, random_poly, random_ratfunc
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


def _jacobian(phi):
    """J[j][k] = d(phi_j)/dx_k, a (target x source) matrix."""
    return partials(phi.components, phi.source)


def _intertwining_defect(phi, v, w, jac_v=None):
    """The first entry (row, col, defect) where B^phi . J - J . A - v(J)
    is not zero, or None.

    J, A and B are the partials matrices of phi, v and w, and B^phi is B
    composed with phi; ``jac_v``, if given, stands in for A.  Plain
    ``RatFunc`` arithmetic, entry by entry, with no library derivation.
    """
    jac = [[RatFunc(entry) for entry in row] for row in _jacobian(phi)]
    a = partials(v.coefficients, v.chart) if jac_v is None else jac_v
    b = partials(w.coefficients, w.chart)
    b_phi = [[entry.substitute(phi.components) for entry in row] for row in b]
    p, q = phi.source.size, phi.target.size
    for i in range(q):
        for k in range(p):
            defect = RatFunc.zero(phi.source)
            for j in range(q):
                defect = defect + b_phi[i][j] * jac[j][k]
            for j in range(p):
                defect = defect - jac[i][j] * a[j][k]
                defect = defect - v.coefficients[j] * jac[i][k].partial(j)
            if not defect.is_zero():
                return (i, k, defect)
    return None


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
        jac = _jacobian(phi)
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


def triangular_morphism(rng, n, degree, rational=False):
    """A morphism triple (phi, v, w) with phi the triangular automorphism
    (x1, x2 + p2(x1), x3 + p3(x1, x2)) of an n-chart.

    w is a random field on the target, rational if asked, and
    v = Dphi^{-1} (w o phi), solved row by row since Dphi is unipotent.
    """
    source = Chart(("x", "y", "z")[:n])
    target = Chart(("u", "v", "s")[:n])
    xs = source.vars()
    comps = [xs[0]]
    for k in range(1, n):
        shift = random_poly(rng, Chart(("x", "y", "z")[:k]), 2, 3).substitute(xs[:k])
        comps.append(xs[k] + shift)
    if rational:
        coeffs = [random_ratfunc(rng, target, 1) for _ in range(n)]
        w = VectorField.from_coefficients(target, coeffs)
    else:
        w = random_field(rng, target, degree, 4)
    v_coeffs = []
    for k in range(n):
        acc = w.coefficients[k].substitute(comps)
        for j in range(k):
            acc = acc - comps[k].partial(j) * v_coeffs[j]
        v_coeffs.append(acc)
    phi = PolyMap(source, target, tuple(comps))
    return phi, VectorField.from_coefficients(source, v_coeffs), w


def _monomials_built(family):
    """The monomials of degree two or more whose images composing
    ``family`` builds: each exponent of a member and the chain below it
    that lowers the last variable with a positive exponent, one degree at
    a time."""
    built = set()
    for p in family:
        for e in p.terms:
            while sum(e) >= 2 and e not in built:
                built.add(e)
                k = max(i for i, d in enumerate(e) if d)
                e = e[:k] + (e[k] - 1,) + e[k + 1 :]
    return built


def rational_triples():
    """Three triples with rational fields: the identity map, and the
    projection (x, y) -> x with a lifted field."""
    identity = PolyMap(XY, XY, (X, Y))
    v = VectorField.from_coefficients(XY, (RatFunc(X, Y + 1), RatFunc(Y**2, X**2 + 1)))
    u = U_CHART.var("u")
    projection = PolyMap(XY, U_CHART, (X,))
    w = VectorField.from_coefficients(U_CHART, (RatFunc(u, u**2 + 1),))
    lifted = VectorField.from_coefficients(XY, (RatFunc(X, X**2 + 1), RatFunc(Y, X - 2)))
    return [(identity, v, v), (projection, lifted, w), (identity, lifted, lifted)]


def compatible_triples():
    """Every compatible triple below: 40 products (seed 31), 24 seeded
    triangular triples in n = 2 and 3, polynomial and rational, and
    ``rational_triples``."""
    rng = random.Random(31)
    triples = [product_morphism(rng) for _ in range(40)]
    rng = random.Random(33)
    for n in (2, 3):
        for degree in (1, 2):
            triples += [triangular_morphism(rng, n, degree) for _ in range(4)]
        triples += [triangular_morphism(rng, n, 1, rational=True) for _ in range(4)]
    return triples + rational_triples()


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

    def test_identity_defect_returns_witness(self):
        """The side check of the identity finds a defect where there is
        one: v's Jacobian shifted by 1 at [0][0] leaves -1 at (0, 0)."""
        identity = PolyMap(XY, XY, (X, Y))
        v = VectorField.from_coefficients(XY, (X, Y))
        assert check_dmorphism(identity, v, v) == (True, None)
        assert _intertwining_defect(identity, v, v) is None
        jac = partials(v.coefficients, XY)
        shifted = [[jac[0][0] + RatFunc.constant(XY, 1), jac[0][1]], jac[1]]
        assert _intertwining_defect(identity, v, v, shifted) == (0, 0, RatFunc.constant(XY, -1))

    def test_intertwining_identity_follows_from_compatibility(self):
        """The identity the check no longer tests holds on every triple
        the check accepts: products, triangular maps and rational fields."""
        triples = compatible_triples()
        assert len(triples) == 67
        for phi, v, w in triples:
            assert check_dmorphism(phi, v, w) == (True, None)
            assert _intertwining_defect(phi, v, w) is None

    def test_w_pulled_back_in_one_composition(self, monkeypatch):
        """The check pulls w back through phi in one composition, whose
        family is w's numerators and denominators in coordinate order, and
        which builds each monomial image of degree two or more by exactly
        one product of a lower image with a component of phi."""
        families, right, inside = [], [], [False]
        real_compose, real_mul = dmod_module._compose, Poly.__mul__

        def composing(polys, images):
            families.append(list(polys))
            inside[0] = True
            try:
                return real_compose(polys, images)
            finally:
                inside[0] = False

        def multiplying(a, b):
            if inside[0]:
                right.append(b)
            return real_mul(a, b)

        monkeypatch.setattr(dmod_module, "_compose", composing)
        monkeypatch.setattr(Poly, "__mul__", multiplying)
        built = 0
        for phi, v, w in compatible_triples():
            families.clear()
            right.clear()
            assert check_dmorphism(phi, v, w) == (True, None)
            assert len(families) == 1
            family = families[0]
            assert family == [f for c in w.coefficients for f in (c.num, c.den)]
            assert len(right) == len(_monomials_built(family))
            assert all(any(b is c for c in phi.components) for b in right)
            built += len(right)
        assert built  # the triples do reach monomials of degree two and more

    def test_denominator_pulled_back_to_zero_raises(self):
        """A rational w whose denominator vanishes on the image of phi:
        v - u^2 through the parabola (x, x^2).  The check raises the
        composition's ZeroDivisionError, unless an earlier coordinate
        already fails the condition."""
        x_squared = PolyMap(XY, UV_CHART, (X, X**2))
        u, w_var = UV_CHART.vars()
        v = VectorField.from_coefficients(XY, (1, Y))
        polar = RatFunc(Poly.one(UV_CHART), w_var - u**2)
        with pytest.raises(ZeroDivisionError, match="polar locus"):
            check_dmorphism(x_squared, v, VectorField.from_coefficients(UV_CHART, (1, polar)))
        with pytest.raises(MorphismPreconditionError) as exc:
            check_dmorphism(x_squared, v, VectorField.from_coefficients(UV_CHART, (2, polar)))
        assert exc.value.coordinate == 0

    def test_rational_field_denominator_taken_once(self, monkeypatch):
        """check_dmorphism derives every component of phi along v over
        one common denominator, and still accepts the triples of
        test_rational_fields."""
        for phi, v, w in rational_triples()[1:]:
            result, count = _denominators_of(monkeypatch, v, lambda: check_dmorphism(phi, v, w))
            assert result == (True, None) and count == 1

    def test_rational_fields(self):
        """Rational coefficients: a compatible triple is accepted, and a
        target field off by its denominator is rejected."""
        triples = rational_triples()
        for phi, v, w in triples:
            assert check_dmorphism(phi, v, w).ok
        projection, lifted, _ = triples[1]
        u = U_CHART.var("u")
        wrong = VectorField.from_coefficients(U_CHART, (RatFunc(u, u**2 + 2),))
        with pytest.raises(MorphismPreconditionError):
            check_dmorphism(projection, lifted, wrong)
