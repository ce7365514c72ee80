"""Exactness tests for the sparse polynomial and rational-function kernel.

The gcd contract is checked by dividing the result back out of both
inputs; printed forms are frozen strings computed by hand.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    XY,
    XYZ,
    assert_round_trips,
    assert_value_type,
    fraction_strategy,
    poly_strategy,
    random_poly,
    record_content_divisions,
)
from liefol import (
    Chart,
    ChartMismatchError,
    ExactDivisionError,
    Poly,
    RatFunc,
    clear_denominators,
    content,
    divexact,
    divides,
    format_poly,
    gcd,
    lcm,
    normalize,
    poly_det,
    squarefree_part,
)
from liefol import poly as poly_module
from liefol.expr import parse_polynomial
from liefol.poly import _as_ratfunc, clear_to_polynomials

X, Y = XY.vars()
CHARTS = [Chart(tuple("xyzw"[:n])) for n in range(1, 5)]


@st.composite
def _gcd_triples(draw):
    """p, q, h on one chart of 1-4 variables, degree <= 3, |coefficients| <= 10^6."""
    poly = poly_strategy(draw(st.sampled_from(CHARTS)), max_degree=3, coeff_bound=10**6)
    return draw(poly), draw(poly), draw(poly)


def _prs_gcd(p, q):
    """gcd with GCDHEU switched off at every level: the PRS alone."""
    with mock.patch.object(poly_module, "_heu_gcd", return_value=None):
        return gcd(p, q)


def _seed12_pair():
    """A calculus-workload input (seed 12) on which every GCDHEU
    candidate keeps a spurious integer factor, so the PRS answers."""
    p = parse_polynomial(
        "91/2*x^5 - 35*x^4*y - 21*x^3*y^2 - 35*x^2*y^3 + 91/2*x*y^4 - 261*x^4"
        " + 156*x^3*y + 111*x^2*y^2 + 60*x*y^3 - 66*y^4 + 573*x^3 - 249*x^2*y"
        " - 129*x*y^2 - 48*y^3 - 611*x^2 + 176*x*y + 36*y^2 + 639/2*x - 48*y - 66",
        XY,
    )
    return p, (X - Y - 1) ** 6


class TestChart:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate variable names in chart"):
            Chart(("x", "x"))

    def test_bad_identifier_rejected(self):
        with pytest.raises(ValueError, match="bad variable name: '2y'"):
            Chart(("x", "2y"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="a chart needs at least one variable"):
            Chart(())

    @pytest.mark.parametrize("variables", ["xy", "x", ("x", 1), ["x", b"y"], iter(("x", "y"))])
    def test_names_come_as_a_tuple_or_list_of_str(self, variables):
        with pytest.raises(TypeError, match="chart variables must be a tuple or list of str"):
            Chart(variables)

    def test_value_type(self):
        assert_value_type(Chart(("x", "y")), Chart(variables=["x", "y"]), Chart(("y", "x")))
        assert Chart(["x", "y"]).variables == ("x", "y")
        assert repr(XY) == "Chart(variables=('x', 'y'))"

    def test_mismatch_raises(self):
        other = Chart(("u",))
        with pytest.raises(ChartMismatchError):
            X + other.var("u")

    def test_var_by_name_and_by_index_is_the_parsed_variable(self):
        chart = Chart(("x", "y", "z"))
        for k, name in enumerate(chart.variables):
            parsed = parse_polynomial(name, chart)
            assert chart.var(name) == chart.var(k) == parsed == chart.vars()[k]
            assert chart.var(k)._num == parsed._num and chart.var(k)._den == parsed._den == 1
        for bad in ("w", 3, -1, 1.0):
            with pytest.raises(KeyError):
                chart.var(bad)

    def test_one_is_shared_per_chart(self):
        """``Poly.one`` returns one instance per chart, kept in the memo slot
        ``_one``; the repr does not show it, and a copied or unpickled chart
        is equal, hashes alike and builds its own."""
        chart = Chart(("x", "y"))
        one = Poly.one(chart)
        assert Poly.one(chart) is one and one.chart is chart and one.is_one()
        assert repr(chart) == "Chart(variables=('x', 'y'))"
        for clone in (copy.copy(chart), copy.deepcopy(chart), pickle.loads(pickle.dumps(chart))):
            assert clone is not chart and clone == chart and hash(clone) == hash(chart)
            own = Poly.one(clone)
            assert own is not one and own.chart is clone and Poly.one(clone) is own
            assert own == one and repr(clone) == repr(chart)


class TestArithmetic:
    def test_copy_and_pickle_round_trip(self):
        rng = random.Random(8)
        polys = [Poly.zero(XY), Poly.one(XYZ), X * Fraction(2, 3) + Y**5 - 7]
        polys += [random_poly(rng, XYZ) * Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(5)]
        for p in polys:
            assert_round_trips(p)

    @given(poly_strategy(XY), poly_strategy(XY), poly_strategy(XY))
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + Poly.zero(XY) == p
        assert p * Poly.one(XY) == p
        assert p - p == Poly.zero(XY)

    @given(poly_strategy(XY), st.integers(min_value=0, max_value=5))
    def test_power_is_repeated_product(self, p, n):
        expected = Poly.one(XY)
        for _ in range(n):
            expected = expected * p
        assert p**n == expected

    def test_power_of_a_monomial(self):
        m = Fraction(-2, 3) * X**2 * Y
        assert m**5 == Fraction(-32, 243) * X**10 * Y**5
        assert m**0 == Poly.one(XY)
        assert Poly.zero(XY) ** 3 == Poly.zero(XY)

    def test_scalar_coercion(self):
        assert X + 1 == X + Poly.one(XY)
        assert 2 * X == X + X
        assert X * Fraction(1, 2) + X * Fraction(1, 2) == X

    @given(poly_strategy(XY), poly_strategy(XY), fraction_strategy(), fraction_strategy())
    def test_evaluation_is_a_homomorphism(self, p, q, a, b):
        pt = (a, b)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)

    def test_evaluate_examples(self):
        p = X**2 + Y
        assert p.evaluate((2, 3)) == 7
        assert Poly.zero(XY).evaluate((5, -1)) == 0
        cubic = X**3 - 3 * X * Y + 1
        assert cubic.evaluate((Fraction(1, 2), Fraction(1, 3))) == Fraction(5, 8)

    @given(poly_strategy(XY), poly_strategy(XY))
    def test_substitute_commutes_with_product(self, p, q):
        images = (X + Y, X * Y)
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


class TestCalculusHelpers:
    def test_partial_examples(self):
        assert (X**2 * Y).partial("x") == 2 * X * Y
        assert (X**2).partial("y") == Poly.zero(XY)
        assert (X**3 - 3 * X * Y + 1).partial("x") == 3 * X**2 - 3 * Y

    @given(poly_strategy(XY), poly_strategy(XY))
    def test_partial_leibniz(self, p, q):
        lhs = (p * q).partial(0)
        assert lhs == p.partial(0) * q + p * q.partial(0)

    def test_homogeneous_part(self):
        p = X**2 + X * Y + X + 1
        assert p.homogeneous_part(2) == X**2 + X * Y
        assert (X + Y).homogeneous_part(0) == Poly.zero(XY)
        cube = (X + Y) ** 3
        assert cube.homogeneous_part(3) == cube
        assert cube.homogeneous_part(3) == X**3 + 3 * X**2 * Y + 3 * X * Y**2 + Y**3

    def test_degree_bookkeeping(self):
        p = X**2 * Y + X
        assert p.total_degree() == 3
        assert p.degree_in("x") == 2
        assert p.degree_in("y") == 1
        assert Poly.zero(XY).total_degree() == -1

    def test_variables_by_name_or_position(self):
        """A variable is named or given by its position in range(size),
        and both give the same answer."""
        p = X * Y + Y**2
        assert [XY.index(v) for v in ("x", "y", 0, 1)] == [0, 1, 0, 1]
        assert p.partial(1) == p.partial("y") == X + 2 * Y
        assert p.degree_in(1) == p.degree_in("y") == 2

    def test_negative_index_is_rejected_by_partial(self):
        """partial(-1) once built four-slot exponent tuples on a
        two-variable chart."""
        with pytest.raises(KeyError, match="-1"):
            (X * Y + Y**2).partial(-1)

    def test_negative_index_is_rejected_by_degree_in(self):
        with pytest.raises(KeyError, match="-1"):
            (X * Y + Y**2).degree_in(-1)

    def test_index_past_the_chart_is_rejected_by_partial(self):
        with pytest.raises(KeyError, match="2"):
            (X * Y).partial(2)
        with pytest.raises(KeyError, match="True"):
            (X * Y).partial(True)

    def test_negative_index_is_rejected_by_ratfunc_partial(self):
        with pytest.raises(KeyError, match="-1"):
            RatFunc(X, Y).partial(-1)

    def test_coefficient_rejects_a_tuple_of_the_wrong_length(self):
        p = X * Y + 3
        assert p.coefficient((1, 1)) == 1 and p.coefficient([0, 0]) == 3
        with pytest.raises(ValueError, match="does not fit"):
            p.coefficient((1, 1, 0))

    def test_coefficient_rejects_a_negative_exponent(self):
        p = X * Y + Y**2
        with pytest.raises(ValueError, match="negative exponent"):
            p.coefficient((-1, 2))


class TestNormalization:
    def test_normalize_sign(self):
        assert normalize(-2 * X) == X
        assert normalize(X * Fraction(-2, 3) + Y * Fraction(4, 3)) == X - 2 * Y
        assert normalize(Poly.zero(XY)).is_zero()

    @given(poly_strategy(XY))
    def test_normalize_idempotent(self, p):
        assert normalize(normalize(p)) == normalize(p)

    def test_clearing_divides_only_by_a_content_that_is_not_one(self, monkeypatch):
        """``clear_to_polynomials`` divides a vector of content 1 by
        nothing, and otherwise each entry once, by the content."""
        calls = record_content_divisions(monkeypatch)
        vec = (RatFunc(Y**2 - 1), RatFunc(X * Fraction(1, 2)), RatFunc.zero(XY))
        cleared = (Y**2 - 1, X * Fraction(1, 2), Poly.zero(XY))
        assert clear_to_polynomials(vec) == cleared and calls == []
        h = X + 3 * Y
        assert clear_to_polynomials([f * h for f in vec]) == cleared
        assert calls == [h] * 3


class TestGcd:
    def test_worked_examples(self):
        assert gcd(X**2, X * Y) == X
        assert gcd(X, Y) == Poly.one(XY)
        # rational units are absorbed by the normalization
        assert gcd(2 * X + 2 * Y, 4 * X + 4 * Y) == X + Y

    def test_gcd_of_zeros(self):
        z = Poly.zero(XY)
        assert gcd(z, z).is_zero()
        assert gcd(X, z) == X

    def test_divide_out_contract(self):
        """gcd(p*h, q*h) is divisible by h and divides both products."""
        rng = random.Random(2024)
        for _ in range(120):
            p = random_poly(rng, XY, max_degree=2, coeff_bound=5)
            q = random_poly(rng, XY, max_degree=2, coeff_bound=5)
            h = random_poly(rng, XY, max_degree=2, coeff_bound=5, allow_zero=False)
            g = gcd(p * h, q * h)
            if (p * h).is_zero() and (q * h).is_zero():
                assert g.is_zero()
                continue
            assert divides(g, p * h)
            assert divides(g, q * h)
            assert divides(normalize(h), g)

    def test_three_variable_gcd(self):
        x, y, z = XYZ.vars()
        h = x * y - z**2 + 1
        assert gcd(h * (x + y), h * (x - z)) == normalize(h)

    @given(_gcd_triples())
    def test_matches_prs(self, triple):
        """GCDHEU (or its fallback) returns the normalized PRS gcd."""
        p, q, h = triple
        a, b = p * h, q * h
        assert gcd(a, b) == _prs_gcd(a, b)

    def test_forced_fallback_gives_same_result(self, monkeypatch):
        x, y, z = XYZ.vars()
        h = 3 * x * y - z**2 + 7
        pairs = [
            (h * (x + y), h * (x - z)),
            ((x - y) ** 2 * (x + 2 * z), (x - y) * (x + 2 * z) ** 2),
            (x**3 - y * z, 5 * x**2 + 1),
            (h * x**2, h * h),
        ]
        fast = [gcd(a, b) for a, b in pairs]
        assert all(poly_module._heu_gcd(a, b) is not None for a, b in pairs)
        monkeypatch.setattr(poly_module, "_heu_gcd", lambda p, q: None)
        assert [gcd(a, b) for a, b in pairs] == fast
        assert squarefree_part(h**2 * x) == normalize(h * x)

    @pytest.mark.parametrize(
        "f, g",
        [
            # a binary form and its derivative: a Kronecker substitution
            # leaves both with a spurious power of X
            (
                1044 * X**3 + 3 * X**2 * Y - 4 * X * Y**2 + 3 * Y**3,
                3132 * X**2 + 6 * X * Y - 4 * Y**2,
            ),
            # forms that agree when y = x or y = x + 1
            (8 * Y - 4, (X - 3 * Y + 1) ** 2),
            (4 * Y - 3, (2 * X + 2 * Y - 1) ** 2),
        ],
    )
    def test_structured_inputs_take_the_heuristic(self, f, g):
        assert poly_module._heu_gcd(f, g) == Poly.one(XY)

    def test_constant_candidate_takes_no_trial_division(self, monkeypatch):
        """A constant candidate divides both inputs, so a coprime pair gets
        1 without a trial division; a candidate that is not constant still
        takes its two, and the one that passes is the gcd."""
        x, y, z = XYZ.vars()
        calls, real = [], poly_module.divides
        monkeypatch.setattr(poly_module, "divides", lambda g, f: calls.append(g) or real(g, f))
        coprime = [
            (x**2 + y * z - 3, x * y - 7 * z + 1),
            (3 * x * y - z**2 + 7, 5 * x**2 + 1),
            (Poly.constant(XYZ, 6) * (x + y), Poly.constant(XYZ, 4) * (x - y)),
        ]
        for a, b in coprime:
            assert poly_module._heu_gcd(a, b) == Poly.one(XYZ) == _prs_gcd(a, b)
        assert not calls
        h = 3 * x * y - z**2 + 7
        assert poly_module._heu_gcd(h * (x + y), h * (x - z)) == normalize(h)
        assert calls[-2:] == [normalize(h)] * 2

    def test_oversized_evaluation_goes_to_prs(self):
        (t,) = Chart(("t",)).vars()
        a, b = t**20000 - 1, t**15000 - 1
        assert poly_module._heu_gcd(a, b) is None
        assert gcd(a, b) == t**5000 - 1

    def test_planted_factor_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        chart = Chart(("x", "y", "z", "w"))
        rng = random.Random(7)
        monomials = [e for e in itertools.product(range(3), repeat=4) if sum(e) <= 2]

        def dense():
            return Poly(chart, {e: rng.randint(-9, 9) or 1 for e in monomials})

        a, b, h = dense(), dense(), dense()
        f, g = a * h, b * h
        expected = sympy.gcd(*(sympy.sympify(str(p).replace("^", "**")) for p in (f, g)))
        expected_text = str(sympy.expand(expected)).replace("**", "^")
        assert gcd(f, g) == normalize(parse_polynomial(expected_text, chart))
        assert gcd(f, g) == normalize(h)

    def test_heuristic_fallback_case_matches_prs(self):
        p, q = _seed12_pair()
        assert poly_module._heu_gcd(p, q) is None
        assert gcd(p, q) == _prs_gcd(p, q) == (X - Y - 1) ** 2
        # the reduction the workload asked for: p / q in lowest terms
        assert RatFunc(p, q).den == (X - Y - 1) ** 4

    def test_fallback_contents_try_the_heuristic(self):
        """The PRS takes its coefficient gcds through gcd, so GCDHEU runs
        again below the call it gave up on."""
        p, q = _seed12_pair()
        with mock.patch.object(poly_module, "_heu_gcd", wraps=poly_module._heu_gcd) as heu:
            assert gcd(p, q) == (X - Y - 1) ** 2
        assert heu.call_count > 1

    def test_content(self):
        assert content([X**2, X * Y]) == X
        assert content([X, Y]) == Poly.one(XY)
        assert content([Poly.zero(XY), X]) == X

    def test_lcm(self):
        assert lcm(X, Y) == X * Y
        assert lcm(X**2, X * Y) == X**2 * Y


class TestDivision:
    @given(poly_strategy(XY), poly_strategy(XY))
    def test_divexact_roundtrip(self, p, q):
        if q.is_zero():
            return
        assert divexact(p * q, q) == p

    def test_inexact_division_raises(self):
        with pytest.raises(ExactDivisionError):
            divexact(X**2 + 1, X)
        with pytest.raises(ZeroDivisionError):
            divexact(X, Poly.zero(XY))

    def test_divexact_cost_does_not_grow_with_a_key_function(self, monkeypatch):
        """Finding each next quotient term calls no per-term sort key, so
        the quotient's size cannot make the key calls grow with it."""
        g = 3 * X**2 - X * Y + 2
        quotients = []
        for d in (3, 13):
            below = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
            coeffs = {(i, j): (-1) ** (i * j) * (i + 2 * j + 1) for i, j in below}
            quotients.append(Poly(XY, coeffs))
        assert [len(q) for q in quotients] == [10, 105]
        calls = []
        real_key = poly_module.glex_key

        def counting_key(exponents):
            calls.append(exponents)
            return real_key(exponents)

        monkeypatch.setattr(poly_module, "glex_key", counting_key)
        counts = []
        for q in quotients:
            f = q * g
            calls.clear()
            assert divexact(f, g) == q
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_divides(self):
        assert divides(X, X**2 + X)
        assert not divides(X, X + 1)
        assert divides(X, Poly.zero(XY))


class TestSquarefree:
    def test_examples(self):
        assert squarefree_part(X**2 * Y) == X * Y
        assert squarefree_part(X**2 + Y**2) == X**2 + Y**2
        assert squarefree_part((X - Y) ** 3 * (X + Y)) == (X - Y) * (X + Y)

    @given(poly_strategy(XY, max_degree=2, coeff_bound=4))
    @settings(max_examples=settings.default.max_examples * 2 // 3)
    def test_square_collapses(self, p):
        if p.is_zero() or p.is_constant():
            return
        assert squarefree_part(p * p) == squarefree_part(p)

    @pytest.mark.parametrize("names", [("x",), ("x", "y"), ("x", "y", "z")])
    def test_repeated_factors_against_sympy(self, names):
        sympy = pytest.importorskip("sympy")
        chart = Chart(names)
        gens = sympy.symbols(names)
        rng = random.Random(len(names))
        repeated = 0
        for _ in range(12):
            p = Poly.constant(chart, Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3)):
                factor = random_poly(rng, chart, max_degree=2, coeff_bound=5, allow_zero=False)
                p = p * factor ** rng.randint(1, 3)
            if p.is_constant():
                continue
            radical = sympy.Poly(sympy.sympify(str(p).replace("^", "**")), *gens).sqf_part()
            expected = {e: Fraction(int(c.p), int(c.q)) for e, c in radical.terms()}
            assert squarefree_part(p) == normalize(Poly(chart, expected))
            repeated += squarefree_part(p) != normalize(p)
        assert repeated >= 6


class TestDeterminant:
    def test_2x2(self):
        d = poly_det([[X, Y], [Y, X]])
        assert d == X**2 - Y**2

    def test_singular(self):
        assert poly_det([[X, Y], [X, Y]]).is_zero()

    def test_3x3_with_zero_pivot(self):
        x, y, z = XYZ.vars()
        zero = Poly.zero(XYZ)
        one = Poly.one(XYZ)
        # row swap path: leading pivot is zero
        d = poly_det([[zero, one, zero], [one, zero, zero], [zero, zero, one]])
        assert d == -one

    def test_matches_cofactor_expansion(self):
        rng = random.Random(7)
        for _ in range(25):
            m = [[random_poly(rng, XY, 1, 3) for _ in range(3)] for _ in range(3)]
            cof = (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
            assert poly_det(m) == cof


class TestFormatting:
    def test_canonical_strings(self):
        assert format_poly(Poly.zero(XY)) == "0"
        assert format_poly(Poly.one(XY)) == "1"
        assert format_poly(X**2 + 2 * X * Y + Y**2) == "x^2 + 2*x*y + y^2"
        assert format_poly(-X + 1) == "-x + 1"
        assert format_poly(X * Fraction(-3, 2) + 1) == "-3/2*x + 1"
        assert format_poly(X**2 - Y**2) == "x^2 - y^2"

    def test_str_matches_format(self):
        p = X**3 - 3 * X * Y + 1
        assert str(p) == format_poly(p) == "x^3 - 3*x*y + 1"


class TestRatFunc:
    def test_copy_and_pickle_round_trip(self):
        for f in (RatFunc.zero(XY), RatFunc(X, 2 * Y), RatFunc(X**2 * Fraction(1, 3) - Y, X * Y + 1)):
            assert_round_trips(f)

    def test_a_polynomial_keeps_the_shared_one(self):
        """Every polynomial the constructor stores, given as one or reduced
        to one, takes the chart's shared 1 as its denominator."""
        p = X**2 * Fraction(1, 3) - Y
        one = Poly.one(XY)
        for f in (
            RatFunc(p),
            RatFunc(p, one),
            RatFunc(p, Poly.constant(XY, 1)),
            RatFunc(p * X, X),
            RatFunc(p, Poly.constant(XY, Fraction(-2, 3))),
            RatFunc(Poly.zero(XY), X),
            RatFunc(p).partial(0),
            RatFunc.constant(XY, 7),
        ):
            assert f.den is one

    @pytest.mark.parametrize(
        "args, name",
        [((3,), "int"), (("x",), "str"), ((X, 2), "int"), ((X, Fraction(1, 2)), "Fraction")],
    )
    def test_parts_that_are_not_polynomials_raise_type_error(self, args, name):
        with pytest.raises(TypeError, match=f"must be a Poly, not {name}$"):
            RatFunc(*args)

    def test_hash_agrees_with_equality(self):
        """A constant polynomial equals its value and hashes as it; a
        polynomial function equals its numerator and hashes as it."""
        one, half = Poly.one(XY), Poly.constant(XY, Fraction(1, 2))
        assert one == 1 and hash(one) == hash(1) and len({one, 1}) == 1
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        assert Poly.zero(XY) == 0 and hash(Poly.zero(XY)) == hash(0)
        assert RatFunc(X) == X and hash(RatFunc(X)) == hash(X) and len({RatFunc(X), X}) == 1
        assert RatFunc.constant(XY, 3) == 3 and hash(RatFunc.constant(XY, 3)) == hash(3)
        # any other polynomial hashes over its chart, denominator and terms
        p = X * Fraction(2, 3) + Y
        assert hash(p) == hash((XY, p._den, frozenset(p._num.items())))

    @given(poly_strategy(XY), st.one_of(st.integers(-3, 3), fraction_strategy()))
    def test_equal_values_hash_alike(self, p, c):
        f = RatFunc(p)
        assert f == p and hash(f) == hash(p)
        q = p * c
        if q.is_constant():
            value = q.coefficient((0, 0))
            assert q == value and hash(q) == hash(value) == hash(RatFunc(q))

    def test_reduction(self):
        f = RatFunc(X**2 - Y**2, X - Y)
        assert f == RatFunc(X + Y)
        assert f.is_polynomial()

    def test_scalar_minus_ratfunc(self):
        assert 1 - RatFunc(X, Y) == RatFunc(Y - X, Y)

    def test_den_normalization(self):
        f = RatFunc(X, 2 * Y)
        # integer-primitive positive-leading denominator
        assert str(f) == "(1/2*x)/(y)"
        g = RatFunc(X, -Y)
        assert str(g) == "(-x)/(y)"

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(X, Poly.zero(XY))

    def test_operands_on_another_chart(self):
        u = Chart(("u",)).var("u")
        f = RatFunc(X, Y)
        assert f != u and RatFunc(X) != Chart(("x",)).var("x")
        for op in (f.__add__, f.__sub__, f.__mul__, f.__truediv__, f.__rtruediv__):
            with pytest.raises(ChartMismatchError, match="coefficient lives on a different chart"):
                op(u)
        with pytest.raises(TypeError, match="bad coefficient: str"):
            f + "x"

    @given(
        poly_strategy(XY),
        poly_strategy(XY, coeff_bound=4),
        st.one_of(st.integers(-6, 6), fraction_strategy(), st.just(Fraction(0))),
    )
    def test_scalar_product_matches_coerced_product(self, p, q, c):
        """A scalar scales the numerator alone; the product is the one
        the constant-RatFunc product gives, in the same canonical form."""
        f = RatFunc(p, q if q else Poly.one(XY))
        expected = f * _as_ratfunc(XY, c)
        for product in (f * c, c * f):
            # Poly equality compares the canonical numerators and denominator
            assert (product.num, product.den) == (expected.num, expected.den)
        if not c:
            assert (f * c).den.is_one()

    @given(poly_strategy(XY), poly_strategy(XY, coeff_bound=4))
    def test_field_axioms(self, p, q):
        den = X**2 + 1  # never zero, never shared
        f = RatFunc(p, den)
        g = RatFunc(q, den)
        assert f + g == RatFunc(p + q, den)
        assert f * g == RatFunc(p * q, den * den)
        if not g.is_zero():
            assert (f / g) * g == f

    def test_partial_quotient_rule(self):
        f = RatFunc(Y, X)
        assert f.partial("x") == RatFunc(-Y, X**2)
        assert f.partial("y") == RatFunc(Poly.one(XY), X)

    @given(poly_strategy(XY, max_degree=2), poly_strategy(XY, max_degree=2))
    @settings(max_examples=settings.default.max_examples * 5 // 6)
    def test_partial_leibniz(self, p, q):
        den = X**2 + Y**2 + 1
        f = RatFunc(p, den)
        g = RatFunc(q, den)
        assert (f * g).partial(0) == f.partial(0) * g + f * g.partial(0)

    def test_evaluate_pole(self):
        f = RatFunc(Y, X)
        assert f.evaluate((2, 6)) == 3
        with pytest.raises(ZeroDivisionError):
            f.evaluate((0, 1))

    def test_clear_denominators(self):
        f = RatFunc(Y, X)
        g = RatFunc(Poly.one(XY), X * Y)
        num0, num1 = clear_denominators([f, g])
        # common denominator is x*y
        assert RatFunc(num0, X * Y) == f
        assert RatFunc(num1, X * Y) == g
