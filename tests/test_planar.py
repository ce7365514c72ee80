"""Behaviour of planar polynomial fields along the line at infinity."""

from __future__ import annotations

import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import XY, assert_value_type, random_poly
from liefol import (
    CONSISTENT,
    EXCLUDED,
    ChartMismatchError,
    PlanarField,
    Poly,
    VectorField,
    apply_derivation,
    content,
    divexact,
    divides,
    infinity_analysis,
    invariant_curve_constraint,
    normalize,
    q_polynomial,
    rational_roots,
    to_infinity_chart,
)
from liefol import planar
from liefol.planar import INFINITY_CHART, LINE_CHART

X, Y = XY.vars()
ZERO = Poly.zero(XY)

RADIAL = PlanarField(X, Y)
ROTATION = PlanarField(-Y, X)
HYPERBOLIC = PlanarField(X, -Y)  # x dx - y dy


class TestPlanarField:
    def test_common_factor_rejected(self):
        with pytest.raises(ValueError, match="coefficients share a common factor; saturate"):
            PlanarField(X**2, X * Y)

    def test_value_type(self):
        assert_value_type(PlanarField(X, -Y), PlanarField(a=X, b=-Y), ROTATION)
        # the skip of the coprimality check is a private constructor, not a flag
        assert PlanarField._trusted(X, Y) == RADIAL
        with pytest.raises(TypeError):
            PlanarField(X, Y, True)
        with pytest.raises(TypeError):
            PlanarField(X, Y, _coprime=True)
        other = __import__("liefol").Chart(("u", "v"))
        with pytest.raises(ChartMismatchError, match="coefficients on different charts"):
            PlanarField(X, other.var("u"))

    def test_display(self):
        assert str(PlanarField(X, -Y)) == "(x) d/dx + (-y) d/dy"

    def test_from_vector_field_saturates(self):
        v = VectorField.from_coefficients(XY, (X**2, X * Y))
        f = PlanarField.from_vector_field(v)
        assert (f.a, f.b) == (X, Y)

    def test_from_vector_field_takes_one_gcd(self, monkeypatch):
        """Saturation takes the content of (a, b) once.  The pair it
        returns is coprime by construction, so no second gcd checks it."""
        from liefol import poly

        gcds, contents = [], []

        def counted(record, function):
            def wrapper(*args):
                record.append(args)
                return function(*args)

            return wrapper

        monkeypatch.setattr(poly, "gcd", counted(gcds, poly.gcd))
        for module in (poly, planar):
            monkeypatch.setattr(module, "content", counted(contents, module.content))
        common = (X + Y + 1) ** 3
        v = VectorField.from_coefficients(XY, (common * X, common * (Y - 2)))
        f = PlanarField.from_vector_field(v)
        assert (f.a, f.b) == (X, Y - 2)
        assert (len(contents), len(gcds)) == (1, 1)
        # a direct construction still checks coprimality
        gcds.clear()
        contents.clear()
        with pytest.raises(ValueError, match="saturate"):
            PlanarField(common * X, common * Y)
        assert (len(contents), len(gcds)) == (1, 1)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError, match="the zero field has no direction at infinity"):
            PlanarField(ZERO, ZERO)

    def test_degree(self):
        assert RADIAL.degree == 1
        assert PlanarField(Poly.one(XY), ZERO).degree == 0
        assert PlanarField(X**2 + 1, Y).degree == 2

    def test_needs_two_variables(self):
        one_var = __import__("liefol").Chart(("x",))
        x = one_var.var("x")
        with pytest.raises(ValueError):
            PlanarField(x, x + 1)
        xyz = __import__("liefol").Chart(("x", "y", "z"))
        v = VectorField.from_coefficients(xyz, xyz.vars())
        with pytest.raises(ValueError, match="two-variable"):
            PlanarField.from_vector_field(v)


class TestChartTransform:
    def test_hyperbolic(self):
        w_s, w_t = to_infinity_chart(HYPERBOLIC)
        s, t = INFINITY_CHART.vars()
        assert (w_s, w_t) == (-s, -2 * t)

    def test_rotation(self):
        w_s, w_t = to_infinity_chart(ROTATION)
        s, t = INFINITY_CHART.vars()
        assert (w_s, w_t) == (s * t, t**2 + 1)

    def test_constant_field(self):
        w_s, w_t = to_infinity_chart(PlanarField(Poly.one(XY), ZERO))
        s, t = INFINITY_CHART.vars()
        assert (w_s, w_t) == (-s, -t)


class TestBoundaryForm:
    def test_worked_values(self):
        assert q_polynomial(HYPERBOLIC) == -2 * X * Y
        assert q_polynomial(ROTATION) == X**2 + Y**2
        assert q_polynomial(RADIAL).is_zero()

    def test_homogeneous_of_degree_n_plus_1(self):
        rng = random.Random(61)
        produced = 0
        while produced < 30:
            a = random_poly(rng, XY, 3, 5)
            b = random_poly(rng, XY, 3, 5)
            if a.is_zero() and b.is_zero():
                continue
            from liefol import content

            nonzero = [p for p in (a, b) if not p.is_zero()]
            if not content(nonzero).is_constant():
                continue
            field = PlanarField(a, b)
            produced += 1
            q = q_polynomial(field)
            n = field.degree
            if not q.is_zero():
                assert q.homogeneous_part(n + 1) == q


class TestRationalRoots:
    def test_linear(self):
        t = LINE_CHART.var("t")
        assert rational_roots(2 * t - 3) == [Fraction(3, 2)]

    def test_quadratic_with_two_roots(self):
        t = LINE_CHART.var("t")
        p = (t - 1) * (2 * t + 5)
        assert sorted(rational_roots(p)) == [Fraction(-5, 2), Fraction(1)]

    def test_root_at_zero(self):
        t = LINE_CHART.var("t")
        assert rational_roots(t**2 + t) == [Fraction(-1), Fraction(0)]

    def test_irrational_only(self):
        t = LINE_CHART.var("t")
        assert rational_roots(t**2 - 2) == []

    def test_no_real_roots(self):
        t = LINE_CHART.var("t")
        assert rational_roots(t**2 + 1) == []

    def test_root_on_a_bisection_point(self):
        t = LINE_CHART.var("t")
        # the one root of 2t - 1 in (-4, 4) is met by bisection while refining
        assert rational_roots(2 * t - 1) == [Fraction(1, 2)]
        # t^3 - t splits at 0, itself a root, and has roots at 1 and -1
        assert rational_roots(t**3 - t) == [Fraction(-1), Fraction(0), Fraction(1)]
        assert rational_roots((4 * t - 3) * (t - 2) * (t + 8)) == [
            Fraction(-8),
            Fraction(3, 4),
            Fraction(2),
        ]

    def test_irrational_root_next_to_a_rational_one(self):
        t = LINE_CHART.var("t")
        # lead 1: t^2 - 100 t - 1 has a root near -1/100, well within
        # 1/lead^2 of the root 0, whose interval must not report 0 again
        assert rational_roots(t * (t**2 - 100 * t - 1)) == [Fraction(0)]
        u = t - 1
        assert rational_roots(u * (u**2 - 100 * u - 1)) == [Fraction(1)]
        # lead 27: a root near 1/3 - 1/3000, within 1/27^2 of the root 1/3
        u = 3 * t - 1
        assert rational_roots(u * (u**2 - 1000 * u - 1)) == [Fraction(1, 3)]

    def test_repeated_roots(self):
        t = LINE_CHART.var("t")
        p = (t - 2) ** 3 * (3 * t + 1) ** 2 * (t**2 - 3)
        assert rational_roots(p) == [Fraction(-1, 3), Fraction(2)]

    def test_root_at_zero_with_multiplicity(self):
        t = LINE_CHART.var("t")
        assert rational_roots(t**5 * (t + 4)) == [Fraction(-4), Fraction(0)]
        assert rational_roots(7 * t**3) == [Fraction(0)]

    def test_constant_has_no_roots(self):
        assert rational_roots(Poly.constant(LINE_CHART, 5)) == []

    def test_rejects_zero_and_several_variables(self):
        with pytest.raises(ValueError):
            rational_roots(Poly.zero(LINE_CHART))
        with pytest.raises(ValueError):
            rational_roots(X + 1)

    @given(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(-12, 12)), min_size=1, max_size=5
        ),
        st.lists(st.integers(-6, 6), min_size=0, max_size=4),
    )
    def test_matches_divisor_search(self, linear, other):
        t = LINE_CHART.var("t")
        p = Poly.one(LINE_CHART)
        for den, num in linear:
            p = p * (den * t - num)
        if other:  # a factor with small coefficients and, mostly, no rational root
            p = p * (t ** len(other) + Poly(LINE_CHART, {(k,): c for k, c in enumerate(other)}))
        assert rational_roots(p) == _divisor_search(p)

    @given(st.lists(st.integers(-20, 20), min_size=2, max_size=7))
    def test_matches_divisor_search_on_dense_polys(self, coeffs):
        p = Poly(LINE_CHART, {(k,): c for k, c in enumerate(coeffs)})
        if p.is_zero():
            return
        assert rational_roots(p) == _divisor_search(p)

    @pytest.mark.parametrize("magnitude", [10**12, 10**40])
    def test_large_constants_against_sympy(self, magnitude):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(magnitude)
        t = LINE_CHART.var("t")
        s = sympy.Symbol("s")
        for _ in range(25):
            p = Poly.one(LINE_CHART)
            for _ in range(rng.randint(1, 3)):
                lead = rng.choice([1, 2, 3, 7, 12, rng.randint(2, 10**6)])
                p = p * (lead * t - rng.randint(-magnitude, magnitude))
            quadratic = rng.randint(1, 9) * t**2 + rng.randint(-9, 9) * t
            p = p * (quadratic + rng.randint(magnitude // 2, magnitude) * rng.choice((1, -1)))
            if rng.random() < 0.5:
                p = p + rng.randint(1, magnitude)  # usually no rational root left
            expected = sympy.Poly(
                [int(p.coefficient((k,))) for k in range(p.total_degree(), -1, -1)], s
            ).ground_roots()
            assert rational_roots(p) == sorted(Fraction(int(r.p), int(r.q)) for r in expected)

    def test_cost_grows_with_bit_length_not_magnitude(self, monkeypatch):
        t = LINE_CHART.var("t")
        calls = []
        eval_mod = planar._eval_mod
        monkeypatch.setattr(
            planar, "_eval_mod", lambda *args: calls.append(1) or eval_mod(*args)
        )

        def modular_evaluations(magnitude: int) -> int:
            calls.clear()
            p = (7 * t - magnitude) * (t**2 - 2) * (3 * t + 1) * (t**2 + magnitude)
            start = time.perf_counter()
            assert rational_roots(p) == [Fraction(-1, 3), Fraction(magnitude, 7)]
            assert time.perf_counter() - start < 2.0
            return len(calls)

        # 13 times the bits, 10^37 times the magnitude
        assert modular_evaluations(10**40) <= 4 * modular_evaluations(10**3)

    @staticmethod
    def _primes_tried(monkeypatch) -> list:
        """Spy on the Euclid mod q: the primes q at which gcd(f, f') was taken."""
        primes = []
        gcd_mod = planar._gcd_mod
        monkeypatch.setattr(
            planar, "_gcd_mod", lambda a, b, q: primes.append(q) or gcd_mod(a, b, q)
        )
        return primes

    def test_prime_skips_the_divisors_of_the_lead(self, monkeypatch):
        t = LINE_CHART.var("t")
        primes = self._primes_tried(monkeypatch)
        # lead 3 * 3*5*7*11*13: no root has a residue mod 3, 5, 7, 11 or 13
        p = (15015 * t - 4) * (t + 3) * (3 * t - 2) * (t**2 + t + 1)
        assert rational_roots(p) == _divisor_search(p)
        assert rational_roots(p) == [Fraction(-3), Fraction(4, 15015), Fraction(2, 3)]
        assert primes and not {3, 5, 7, 11, 13} & set(primes)

    def test_roots_that_collide_mod_small_primes(self, monkeypatch):
        t = LINE_CHART.var("t")
        primes = self._primes_tried(monkeypatch)
        # the two roots are congruent mod 3 to 17: f mod q is squarefree first at 19
        gap = 3 * 5 * 7 * 11 * 13 * 17
        assert rational_roots((t - 2) * (t - 2 - gap)) == [Fraction(2), Fraction(2 + gap)]
        assert primes == [3, 5, 7, 11, 13, 17, 19]

    def test_ten_linear_factors_with_the_root_zero(self):
        t = LINE_CHART.var("t")
        p = t * (5 * t - 2) * (3 * t + 1) * (2 * t - 3)
        for k in (1, -1, 2, -2, 5, -4):
            p = p * (t - k)
        expected = [-4, -2, -1, Fraction(-1, 3), 0, Fraction(2, 5), 1, Fraction(3, 2), 2, 5]
        assert rational_roots(p) == _divisor_search(p) == expected

    def test_denominator_is_the_whole_lead(self):
        t = LINE_CHART.var("t")
        p = (1001 * t - 5) * (t**2 + t + 7)
        assert rational_roots(p) == _divisor_search(p) == [Fraction(5, 1001)]
        # a prime lead near 10^9, next to an irrational root within 1/lead^2
        lead = 999999937
        u = lead * t - 123456789
        assert rational_roots(u * (u**2 - 1000 * u - 1)) == [Fraction(123456789, lead)]

    @pytest.mark.parametrize(
        "build",
        [
            # every prime below 4001 divides the constant, so f mod q is a
            # 41st power for each of them and the prime search walks past all
            lambda t: (t + 1) ** 41 - _primorial(4000),
            # a 1274-digit squarefree lead N: a root +-1/d needs N = d^2 (+-5 - d),
            # so d = 1, and neither 1 nor -1 is a root
            lambda t: _primorial(3000) * t**3 - 5 * t + 1,
        ],
        ids=["primorial_constant", "primorial_lead"],
    )
    def test_hostile_leads_and_constants_answer_quickly(self, build):
        p = build(LINE_CHART.var("t"))
        start = time.perf_counter()
        assert rational_roots(p) == []
        assert time.perf_counter() - start < 2.0

    def test_numerator_test_comes_before_the_exact_evaluation(self, monkeypatch):
        """The numerator of a root divides f(0) (rational root theorem).
        The one candidate of (t+1)^41 − N, N the product of the primes
        below 4000, is a q-adic root lifted to a numerator of some 5700
        bits, and this integer test rejects it with no evaluation.  A
        candidate that passes it, the root 0 among them, is still
        evaluated exactly."""
        t = LINE_CHART.var("t")
        evaluated, real = [], Poly.evaluate
        monkeypatch.setattr(
            Poly, "evaluate", lambda p, point: evaluated.append(point) or real(p, point)
        )
        assert rational_roots((t + 1) ** 41 - _primorial(4000)) == []
        assert evaluated == []
        assert rational_roots(t * (3 * t - 2) * (t**2 + 7)) == [0, Fraction(2, 3)]
        assert sorted(point[0] for point in evaluated) == [0, Fraction(2, 3)]


def _primorial(n: int) -> int:
    """The product of the primes below n."""
    sieve = [True] * n
    product = 1
    for k in range(2, n):
        if sieve[k]:
            product *= k
            sieve[k * k :: k] = [False] * len(range(k * k, n, k))
    return product


def _divisor_search(p: Poly) -> list:
    """The rational-root test by trial division: every +-num/den with num
    dividing the constant and den the leading coefficient (after factoring
    out t^low), checked by exact evaluation.  Its cost grows with the
    magnitude of those coefficients; it is the reference for small ones."""
    roots = []
    low = min(e[0] for e in p.terms)
    if low > 0:
        roots.append(Fraction(0))
        p = Poly(p.chart, {(e[0] - low,): c for e, c in p.terms.items()})
    scaled = normalize(p)
    if scaled.is_constant():
        return roots
    const = scaled.coefficient((0,)).numerator
    lead = scaled.leading_term()[1].numerator

    def divisors(n: int) -> list:
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    for num in divisors(const):
        for den in divisors(lead):
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                if cand not in roots and scaled.evaluate([cand]) == 0:
                    roots.append(cand)
    return sorted(roots)


class TestInfinityAnalysis:
    def test_hyperbolic_field(self):
        report = infinity_analysis(HYPERBOLIC)
        assert report.line_invariant
        assert str(report.sing_infinity) == "x*y"
        assert report.rational_points == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    def test_rotation_field(self):
        report = infinity_analysis(ROTATION)
        assert report.line_invariant
        assert str(report.sing_infinity) == "x^2 + y^2"
        assert report.rational_points == ()

    def test_radial_field_degenerates(self):
        report = infinity_analysis(RADIAL)
        assert not report.line_invariant
        assert report.q_form.is_zero()

    def test_restriction_matches_q(self):
        """w_t restricted to s = 0 equals Q(1, t)."""
        rng = random.Random(62)
        from liefol import content

        produced = 0
        while produced < 200:
            a = random_poly(rng, XY, 3, 6)
            b = random_poly(rng, XY, 3, 6)
            if a.is_zero() and b.is_zero():
                continue
            nonzero = [p for p in (a, b) if not p.is_zero()]
            if not content(nonzero).is_constant():
                continue
            field = PlanarField(a, b)
            q = q_polynomial(field)
            if q.is_zero():
                continue
            produced += 1
            report = infinity_analysis(field)
            # the line s = 0 is a trajectory: s divides w_s
            from liefol import divides

            s, t = INFINITY_CHART.vars()
            assert divides(s, report.w_s)
            # and the induced field on the line is Q(1, t)
            one_t = q.substitute((Poly.one(LINE_CHART), LINE_CHART.var("t")))
            assert report.p_restricted == one_t

    def test_transformed_pair_is_saturated(self):
        from liefol import content

        for field in (HYPERBOLIC, ROTATION):
            report = infinity_analysis(field)
            nonzero = [p for p in (report.w_s, report.w_t) if not p.is_zero()]
            assert content(nonzero).is_constant()


def _dense_poly(rng: random.Random, degree: int) -> Poly:
    """Every monomial of total degree <= degree, most with a nonzero coefficient."""
    terms = {
        (i, j): rng.randint(-5, 5) for i in range(degree + 1) for j in range(degree + 1 - i)
    }
    return Poly(XY, terms)


def _field_corpus(seed: int, count: int) -> list:
    """Coprime planar fields of degree 0-4 in five kinds, rotating: dense,
    sparse, a = 0, Q = 0 (a = x*h + l, b = y*h + m with deg l, m <= deg h),
    and sparse with a constant coefficient."""
    rng = random.Random(seed)
    fields = []
    while len(fields) < count:
        kind = len(fields) % 5
        if kind == 0:
            a, b = _dense_poly(rng, rng.randint(0, 4)), _dense_poly(rng, rng.randint(0, 4))
        elif kind == 1:
            a, b = random_poly(rng, XY, 4), random_poly(rng, XY, 4)
        elif kind == 2:
            a, b = ZERO, Poly.constant(XY, rng.choice([-3, -1, 1, 2, 7]))
        elif kind == 3:
            h = random_poly(rng, XY, rng.randint(0, 3), allow_zero=False)
            low = h.total_degree()
            a = X * h + random_poly(rng, XY, low)
            b = Y * h + random_poly(rng, XY, low)
        else:
            a, b = Poly.constant(XY, rng.randint(1, 9)), random_poly(rng, XY, 4)
            if rng.random() < 0.5:
                a, b = b, a
        try:
            fields.append(PlanarField(a, b))
        except ValueError:  # zero field, or a common factor
            continue
    return fields


class TestContentRule:
    """The content of the rescaled pair is s when Q = 0 and 1 otherwise;
    ``infinity_analysis`` reads it off Q, and a general gcd is the reference."""

    def test_rule_matches_the_general_gcd(self):
        s = INFINITY_CHART.var("s")
        one = Poly.one(INFINITY_CHART)
        fields = _field_corpus(seed=1101, count=2000)
        assert sum(f.a.is_zero() for f in fields) >= 200
        assert sum(q_polynomial(f).is_zero() for f in fields) >= 200
        assert sum(max(len(f.a), len(f.b)) >= 6 for f in fields) >= 200
        for field in fields:
            w_s, w_t = to_infinity_chart(field)
            common = content([w for w in (w_s, w_t) if not w.is_zero()])
            invariant = not q_polynomial(field).is_zero()
            assert common == (one if invariant else s), str(field)
            report = infinity_analysis(field)
            expected = dataclasses.replace(
                report,
                w_s=w_s if w_s.is_zero() else divexact(w_s, common),
                w_t=w_t if w_t.is_zero() else divexact(w_t, common),
            )
            assert report == expected, str(field)
            if invariant:  # the line s = 0 is a trajectory
                assert divides(s, report.w_s)

    def test_no_gcd_of_its_own(self, monkeypatch):
        fields = [
            RADIAL,
            ROTATION,
            PlanarField(X * (X + Y + 1) ** 6 + 1, Y * (X + Y + 1) ** 6),
            PlanarField((X + Y + 1) ** 6, (X - 2 * Y + 3) ** 6),
        ]
        expected = [infinity_analysis(f) for f in fields]

        def refuse(polys):
            raise AssertionError("infinity_analysis computed a content")

        monkeypatch.setattr(planar, "content", refuse)
        assert [infinity_analysis(f) for f in fields] == expected
        assert [r.line_invariant for r in expected] == [False, True, False, True]


class TestCurveConstraint:
    def test_hyperbola_consistent(self):
        assert invariant_curve_constraint(X * Y - 1, HYPERBOLIC) == CONSISTENT
        # cross-check: the curve really is invariant in the affine chart
        v = VectorField.from_coefficients(XY, (HYPERBOLIC.a, HYPERBOLIC.b))
        from liefol import divides

        d = apply_derivation(v, X * Y - 1)
        assert divides(X * Y - 1, d.as_poly())

    def test_line_excluded(self):
        assert invariant_curve_constraint(X + Y - 1, HYPERBOLIC) == EXCLUDED

    def test_conic_under_swap_field(self):
        field = PlanarField(Y, X)  # Q = x^2 - y^2
        assert invariant_curve_constraint(X**2 - Y**2 - 1, field) == CONSISTENT

    def test_degenerate_line_rejected(self):
        with pytest.raises(ValueError):
            invariant_curve_constraint(X * Y - 1, RADIAL)

    def test_constant_curve_rejected(self):
        with pytest.raises(ValueError):
            invariant_curve_constraint(Poly.one(XY), HYPERBOLIC)

    def test_first_integral_curves_never_excluded(self):
        """Level sets of first integrals pass the infinity constraint.

        For a Hamiltonian-style field (-f_y, f_x) every level f = c is
        invariant, so its top form must divide Q.
        """
        rng = random.Random(63)
        produced = 0
        while produced < 50:
            f = random_poly(rng, XY, 3, 5)
            if f.is_constant():
                continue
            fy = f.partial("y")
            fx = f.partial("x")
            if fy.is_zero() and fx.is_zero():
                continue
            v = VectorField.from_coefficients(XY, (-fy, fx))
            if v.is_zero():
                continue
            field = PlanarField.from_vector_field(v)
            if q_polynomial(field).is_zero():
                continue
            shift = f - Fraction(rng.randint(-5, 5))
            if shift.is_constant():
                continue
            produced += 1
            assert invariant_curve_constraint(shift, field) == CONSISTENT
