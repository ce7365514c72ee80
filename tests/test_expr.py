"""Parsing round-trips for the shared expression grammar."""

from __future__ import annotations

import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import XY, XYZ, poly_strategy
from liefol import (
    ParseError,
    Poly,
    VectorField,
    format_poly,
    parse_field_coefficients,
    parse_polynomial,
)
from liefol.expr import MAX_COEFF_BITS, MAX_POWER_DEGREE, MAX_TERMS, _tokenize, basis_names

X, Y = XY.vars()


def test_literals_and_precedence():
    assert parse_polynomial("1 + 2*3", XY) == Poly.constant(XY, 7)
    assert parse_polynomial("2^3", XY) == Poly.constant(XY, 8)
    assert parse_polynomial("-x^2", XY) == -(X**2)
    assert parse_polynomial("(x + y)^2", XY) == X**2 + 2 * X * Y + Y**2
    assert parse_polynomial("x - y - 1", XY) == X - Y - 1


def test_rational_literals():
    from fractions import Fraction

    assert parse_polynomial("3/2", XY) == Poly.constant(XY, Fraction(3, 2))
    assert parse_polynomial("1/2*x + 1/3", XY) == X * Fraction(1, 2) + Fraction(1, 3)


def test_tokens():
    from fractions import Fraction

    from liefol.expr import _Token, _tokenize

    assert _tokenize("3/2*x") == [
        _Token("num", "3/2", Fraction(3, 2), 0),
        _Token("*", "*", None, 3),
        _Token(kind="name", text="x", value=None, pos=4),
    ]


def test_unknown_name_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x + q", XY)


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x^-1", XY)


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_polynomial("(x + y", XY)
    with pytest.raises(ParseError):
        parse_polynomial("x + y)", XY)


def test_error_carries_position():
    try:
        parse_polynomial("x + ?", XY)
    except ParseError as err:
        assert err.position == 4
    else:  # pragma: no cover
        pytest.fail("expected a ParseError")



@pytest.mark.parametrize(
    "text, position",
    [
        ("\u0663*x", 0),  # ARABIC-INDIC DIGIT THREE
        ("\uff11\uff12*x", 0),  # FULLWIDTH DIGITS ONE, TWO
        ("x^\u00b2", 2),  # SUPERSCRIPT TWO
        ("2 + \u00b2", 4),
    ],
)
def test_tokens_are_ascii(text, position):
    """Digits and names outside ASCII are bad characters, reported with
    their column, not read as numbers."""
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_polynomial(text, XY)
    assert err.value.position == position
    assert f"(at column {position + 1})" in str(err.value)


# CPython's int/str conversion limit; 0 where the interpreter has none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no int/str conversion limit")


@needs_digit_limit
def test_literal_over_the_digit_limit():
    text = "x + 1/" + "7" * (DIGIT_LIMIT + 1)
    with pytest.raises(ParseError, match=f"integer literal of {DIGIT_LIMIT + 1} digits") as err:
        parse_polynomial(text, XY)
    assert err.value.position == 6
    # the limit still holds for the whole process
    with pytest.raises(ValueError):
        int("7" * (DIGIT_LIMIT + 1))


@needs_digit_limit
def test_coefficient_over_the_digit_limit_does_not_print():
    p = X * 10 ** (DIGIT_LIMIT + 1) + Y
    with pytest.raises(ValueError, match=f"bits has more than {DIGIT_LIMIT} digits"):
        format_poly(p)


_TOKEN_TEXT = st.text(
    st.sampled_from("0123456789xyz_aZ+-*^(),/ \t\n\x1c#.?"), max_size=30
) | st.text(st.characters(max_codepoint=127), max_size=30)


@given(_TOKEN_TEXT)
def test_tokens_tile_the_text(text):
    """On ASCII text the tokenizer either fails at a position inside the
    text, or returns tokens, in order, that are slices of the text and
    cover every character that is not whitespace."""
    try:
        tokens = _tokenize(text)
    except ParseError as err:
        assert 0 <= err.position < len(text)
        return
    covered = set()
    for t in tokens:
        assert text[t.pos : t.pos + len(t.text)] == t.text
        covered.update(range(t.pos, t.pos + len(t.text)))
    assert [t.pos for t in tokens] == sorted({t.pos for t in tokens})
    assert all(ch.isspace() for k, ch in enumerate(text) if k not in covered)


def test_power_degree_budget():
    n = MAX_POWER_DEGREE
    assert parse_polynomial(f"x^{n}", XY) == X**n
    assert parse_polynomial(f"(x*y)^{n // 2}", XY).total_degree() == n
    assert parse_polynomial("7^300", XY) == Poly.constant(XY, 7**300)  # degree 0
    with pytest.raises(ParseError, match="exceeds the limit") as err:
        parse_polynomial(f"1 + (x + y + 1)^{n + 1}", XY)
    assert err.value.position == len("1 + (x + y + 1)^")
    with pytest.raises(ParseError, match=f"power of degree {2 * n}"):
        parse_polynomial(f"(x*y)^{n}", XY)


def test_product_and_expansion_budget():
    """Products are bounded like powers, and both by an estimate of their
    term count, all before anything is expanded."""
    assert MAX_TERMS == 5151  # a dense bivariate polynomial of degree 100
    assert parse_polynomial("x^60*y^40", XY) == X**60 * Y**40
    assert parse_polynomial("(x + y + 1)^10*(x - y + 2)^10", XY).total_degree() == 20
    with pytest.raises(ParseError, match="product of degree 101") as err:
        parse_polynomial("x^60*y^40*x", XY)
    assert err.value.position == len("x^60*y^40")
    # both factors are within budget and expand in seconds; their product
    # is rejected at the '*' before either is expanded
    start = time.perf_counter()
    with pytest.raises(ParseError, match="product of degree 200") as err:
        parse_polynomial("(x+y+1)^100*(x-y+2)^100", XY)
    assert err.value.position == len("(x+y+1)^100")
    # 39711 terms by the multinomial count; it used to take about 40 s
    with pytest.raises(ParseError, match="power of about 39711 terms") as err:
        parse_polynomial("(x+y+z+1)^60", XYZ)
    assert err.value.position == len("(x+y+z+1)^")
    # degree 100, but 1326 * 1326 terms and 176851 monomials in three variables
    with pytest.raises(ParseError, match="product of about 176851 terms"):
        parse_polynomial("(x+y+1)^50*(x-y+2)^50", XYZ)
    assert time.perf_counter() - start < 1.0
    # the signs of the factors multiply
    assert parse_polynomial("-x^2*-y", XY) == X**2 * Y


def test_coefficient_size_budget():
    """A power of a constant has degree 0 and one term; its coefficient
    size is bounded by an estimate of its bits before it is expanded."""
    assert MAX_COEFF_BITS == 64 * MAX_POWER_DEGREE
    assert parse_polynomial(f"2^{MAX_COEFF_BITS}", XY) == Poly.constant(XY, 2**MAX_COEFF_BITS)
    assert parse_polynomial("1^100000000", XY) == Poly.one(XY)
    assert parse_polynomial("(2/3*x + 1)^100", XY).total_degree() == 100
    start = time.perf_counter()
    with pytest.raises(ParseError, match="power with coefficients of about 6401 bits") as err:
        parse_polynomial(f"x + 2^{MAX_COEFF_BITS + 1}", XY)
    assert err.value.position == len("x + 2^")
    # 7^3000000 used to take about 3 s, and 7^30000000 about two minutes
    for text in ("7^3000000", "7^30000000", "(7^2000)^3", "(3 - 5/7)^3000"):
        with pytest.raises(ParseError, match="bits exceeds the limit"):
            parse_polynomial(text, XY)
    # each factor fits; their product does not
    with pytest.raises(ParseError, match="product with coefficients of about 12000 bits"):
        parse_polynomial("7^2000*7^2000", XY)
    assert time.perf_counter() - start < 0.5


def test_expression_budget():
    """The expansions of one expression share one budget, charged for
    every term of a sum before any of them is expanded."""
    start = time.perf_counter()
    # three powers that each fit; about 0.3 s each to expand
    with pytest.raises(ParseError, match="expansions of about 10302 terms in all") as err:
        parse_polynomial("(x+y+1)^100 + (x-y+2)^100 + (x+2*y+3)^100", XY)
    assert err.value.position == len("(x+y+1)^100 + ")
    # 2556 + 2556 + 41 terms, one more power of (x + 1) than fits
    with pytest.raises(ParseError, match="expansions of about 5153 terms in all"):
        parse_polynomial("(x+y+1)^70 + (x-y+2)^70 + (x+1)^40", XY)
    # nested expansions are charged too: 6 + 5151 terms
    with pytest.raises(ParseError, match="expansions of about 5157 terms in all"):
        parse_polynomial("((x+y+1)^2)^50", XY)
    assert time.perf_counter() - start < 0.5
    # exactly at the limit, and monomials and constants multiply no terms
    p = parse_polynomial("(x+y+1)^70 + (x-y+2)^70 + (x+1)^38 + 3*x^2*y - 2^6400", XY)
    assert p == (X + Y + 1) ** 70 + (X - Y + 2) ** 70 + (X + 1) ** 38 + 3 * X**2 * Y - 2**6400
    # monomials are charged their coefficient bits: as many of the largest
    # as one expansion at both limits would have terms, and one more
    term = f"2^{MAX_COEFF_BITS}*x"
    with pytest.raises(ParseError, match="coefficient bits in all exceed the limit") as err:
        parse_polynomial(" + ".join([term] * (MAX_TERMS + 1)), XY)
    assert err.value.position == (len(term) + 3) * MAX_TERMS


@given(poly_strategy(XY))
def test_print_parse_roundtrip(p):
    assert parse_polynomial(format_poly(p), XY) == p


@given(poly_strategy(XYZ, max_degree=2))
def test_print_parse_roundtrip_three_vars(p):
    assert parse_polynomial(format_poly(p), XYZ) == p


class TestFieldGrammar:
    def test_basis_names(self):
        assert basis_names(XY) == ("dx", "dy")

    def test_simple_field(self):
        coeffs = parse_field_coefficients("x*dx + y*dy", XY)
        assert coeffs == (X, Y)

    def test_positional_aliases(self):
        assert parse_field_coefficients("dx1 + x*dx2", XY) == (Poly.one(XY), X)

    def test_parenthesised_coefficients(self):
        coeffs = parse_field_coefficients("(y^2 - 1)*dy", XY)
        assert coeffs == (Poly.zero(XY), Y**2 - 1)

    def test_bare_basis_vector(self):
        assert parse_field_coefficients("dy", XY) == (Poly.zero(XY), Poly.one(XY))

    def test_minus_basis(self):
        assert parse_field_coefficients("-y*dx + x*dy", XY) == (-Y, X)

    def test_undeclared_basis_rejected(self):
        chart_x = __import__("liefol").Chart(("x",))
        with pytest.raises(ParseError):
            parse_field_coefficients("dx + dz", chart_x)

    def test_mixed_basis_product_rejected(self):
        with pytest.raises(ValueError, match=r"^field term dx\*dy multiplies two basis factors$"):
            parse_field_coefficients("dx*dy", XY)

    def test_basis_power_rejected(self):
        with pytest.raises(ValueError, match=r"^field term dx\^2 multiplies two basis factors$"):
            parse_field_coefficients("dx^2", XY)

    def test_no_basis_rejected(self):
        with pytest.raises(ValueError, match="^field term x carries no basis factor$"):
            parse_field_coefficients("x + y", XY)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x*dx + y", "field term y carries no basis factor"),
            ("x*dx + 3/4", "field term 3/4 carries no basis factor"),
            ("x*dx + (y + 1)*(dy - dx)*dy", "field term -y*dx*dy multiplies two basis factors"),
            ("1/2*x*dx1*dx2 + dx", "field term 1/2*x*dx*dy multiplies two basis factors"),
        ],
    )
    def test_bad_term_is_named_not_placed(self, text, message):
        """The check runs on the expansion, where no column holds the bad
        term: the error names the leading one in canonical form instead."""
        with pytest.raises(ValueError) as info:
            parse_field_coefficients(text, XY)
        assert not isinstance(info.value, ParseError)
        assert str(info.value) == message

    def test_format_field_roundtrip(self):
        """A field's printed form re-parses to its coefficients."""
        coeffs = (X**2 - 1, -Y)
        text = str(VectorField.from_coefficients(XY, coeffs))
        assert parse_field_coefficients(text, XY) == coeffs
