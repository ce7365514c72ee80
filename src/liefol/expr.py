"""Parser for the shared polynomial / vector-field expression grammar.

The grammar is deliberately small and ASCII: integers, rational literals
``p/q``, variable names, ``+ - * ^`` with non-negative integer exponents,
and parentheses; whitespace is insignificant.  ``/`` is only legal
between two integer literals, so every expression denotes a polynomial.
A digit or letter outside ASCII is a bad character.  A power
``base ^ n`` or a product may reach total degree at most
``MAX_POWER_DEGREE`` (in a field expression the basis factor counts as
one), at most ``MAX_TERMS`` terms and coefficients of at most
``MAX_COEFF_BITS`` bits, by estimates made before it is expanded.  The
expansions of one expression share one budget as well: together they may
reach ``MAX_TERMS`` terms (an expansion to a single term, a monomial,
counts none) and terms times coefficient bits ``MAX_TERMS *
MAX_COEFF_BITS``: as much as one expansion at both limits.  Every term of
a sum is charged before any of them is expanded.  The comma-separated
components of a map (``parse_polynomials``) are one expression to the
budget: every component is charged before any of them is expanded.

Vector-field expressions use the same grammar over the chart extended
by basis names: ``d<var>`` for each chart variable, with ``dx1 .. dxn``
accepted as positional aliases.  Every term of a field expression must
contain exactly one basis factor, to the first power.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import Dict, List, NamedTuple, Optional, Tuple

from .poly import _NAME, Chart, Poly, glex_key

# Largest total degree a power ``base ^ n`` or a product may reach, most
# terms it may have (as many as a dense bivariate polynomial of that
# degree) and longest coefficients (64 bits per unit of degree).  All are
# checked before anything is expanded, so a huge exponent, product or sum
# of expansions is a parse error, not a hang.
MAX_POWER_DEGREE = 100
MAX_TERMS = math.comb(MAX_POWER_DEGREE + 2, 2)
MAX_COEFF_BITS = MAX_POWER_DEGREE * 64


def _log2_ceil(n: int) -> int:
    return (n - 1).bit_length()


def _coefficient_bits(base: Poly, n: int) -> int:
    """An upper bound on the bits of the numerators plus the denominator
    of ``base ^ n``: every coefficient of N^n is at most (terms * max|N|)^n
    in size, and the denominator is d^n."""
    if n == 0 or base.is_zero():
        return 0
    top = max(map(abs, base._num.values()))
    return n * (_log2_ceil(top) + _log2_ceil(len(base)) + _log2_ceil(base._den))


class ParseError(ValueError):
    """A syntax or name-resolution error, carrying a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.position = position


class _Token(NamedTuple):
    kind: str  # "num" | "name" | one of + - * ^ ( )
    text: str
    value: Optional[Fraction]
    pos: int


def _integer(m: re.Match[str], group: str) -> int:
    try:
        return int(m[group])
    except ValueError:  # longer than the int/str conversion limit
        limit = sys.get_int_max_str_digits()
        message = f"integer literal of {len(m[group])} digits exceeds the limit {limit}"
        raise ParseError(message, m.start(group)) from None


# ASCII tokens: an integer or rational p/q literal, a name spelled as a
# chart variable is (poly._NAME), an operator, or the characters that
# str.isspace() takes for whitespace; anything else is a bad character.
_SPACE = r"[\t-\r\x1c- ]"
_TOKEN_RE = re.compile(
    rf"(?P<num>(?P<p>[0-9]+)(?:{_SPACE}*/{_SPACE}*(?P<q>[0-9]+)?)?)"
    rf"|(?P<name>{_NAME})|(?P<op>[-+*^(),])|{_SPACE}+|(?P<bad>[\s\S])"
)


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, pos, value = m.lastgroup, m.start(), None
        if kind == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", pos)
        if kind == "num":
            value = Fraction(_integer(m, "p"))
            if m["q"] is not None:
                denominator = _integer(m, "q")
                if denominator == 0:
                    raise ParseError("zero denominator in rational literal", m.start("q"))
                value /= denominator
            elif m.end() > m.end("p"):
                raise ParseError("expected an integer after '/'", min(m.end(), len(text) - 1))
        if kind is not None:  # not whitespace
            tokens.append(_Token(m[0] if kind == "op" else kind, m[0], value, pos))
    return tokens


class _Parser:
    """Recursive descent over the token list, producing a Poly."""

    def __init__(self, text: str, chart: Chart, names: Dict[str, int]):
        self.tokens = _tokenize(text)
        if not self.tokens:
            raise ParseError("empty expression", 0)
        self.chart = chart
        self.names = names
        self.length = len(text)
        self.i = 0
        # what the expansions charged so far add up to: terms, and the sum
        # of terms times coefficient bits
        self.terms = 0
        self.size = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.length)
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        return tok

    def parse(self, components: bool = False) -> List[Poly]:
        """The expression, or with ``components`` its comma-separated
        components; all of them are charged before any is expanded."""
        try:
            sums = [self.sum()]
            while components and self.peek() is not None and self.peek().kind == ",":
                self.take()
                sums.append(self.sum())
            polys = [_expand_sum(products) for products in sums]
        except RecursionError:
            tok = self.peek()
            raise ParseError(
                "expression nests too deeply", tok.pos if tok is not None else self.length
            ) from None
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return polys

    def sum(self) -> List[Tuple[int, List[Tuple[Poly, int]]]]:
        """A sum, unexpanded: every term is parsed and charged, none expanded."""
        tok = self.peek()
        sign = 1
        if tok is not None and tok.kind in "+-":
            self.take()
            sign = -1 if tok.kind == "-" else 1
        products = []
        while True:
            s, factors = self.term()
            products.append((sign * s, factors))
            tok = self.peek()
            if tok is None or tok.kind not in "+-":
                return products
            self.take()
            sign = -1 if tok.kind == "-" else 1

    def check(self, what: str, degree: int, terms: int, bits: int, pos: int) -> int:
        """Reject a power or product over the budget; return its term
        estimate, capped by the count of monomials of its degree."""
        if degree > MAX_POWER_DEGREE:
            raise ParseError(
                f"{what} of degree {degree} exceeds the limit {MAX_POWER_DEGREE}", pos
            )
        terms = min(terms, math.comb(self.chart.size + degree, degree))
        if terms > MAX_TERMS:
            raise ParseError(
                f"{what} of about {terms} terms exceeds the limit {MAX_TERMS}", pos
            )
        if bits > MAX_COEFF_BITS:
            raise ParseError(
                f"{what} with coefficients of about {bits} bits exceeds the limit "
                f"{MAX_COEFF_BITS}",
                pos,
            )
        return terms

    def charge(self, terms: int, bits: int, pos: int) -> None:
        """Charge one expansion to the expression's shared budget."""
        if terms > 1:  # a monomial multiplies no terms
            self.terms += terms
        self.size += terms * bits
        if self.terms > MAX_TERMS:
            raise ParseError(
                f"expansions of about {self.terms} terms in all exceed the limit {MAX_TERMS}",
                pos,
            )
        if self.size > MAX_TERMS * MAX_COEFF_BITS:
            raise ParseError(
                f"expansions of about {self.size} coefficient bits in all exceed the limit "
                f"{MAX_TERMS * MAX_COEFF_BITS}",
                pos,
            )

    def term(self) -> Tuple[int, List[Tuple[Poly, int]]]:
        """A product of powers, unexpanded: its sign and (base, exponent)
        factors.  A term that expands anything is charged to the budget."""
        tok = self.peek()
        pos = tok.pos if tok is not None else self.length
        sign, base, n, degree, terms, bits = self.unary()
        factors = [(base, n)]
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "*":
                break
            self.take()
            s, base, n, d, t, b = self.unary()
            sign, degree, bits = sign * s, degree + d, bits + b
            terms = self.check("product", degree, terms * t, bits, tok.pos)
            factors.append((base, n))
        if len(factors) > 1 or n != 1:
            self.charge(terms, bits, pos)
        return sign, factors

    def unary(self) -> Tuple[int, Poly, int, int, int, int]:
        """A signed power, unexpanded: sign, base, exponent, degree, terms
        and coefficient bits."""
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.take()
            sign, base, n, degree, terms, bits = self.unary()
            return -sign, base, n, degree, terms, bits
        base = self.atom()
        tok = self.peek()
        if tok is None or tok.kind != "^":
            return 1, base, 1, base.total_degree(), len(base), _coefficient_bits(base, 1)
        self.take()
        exp = self.take()
        if exp.kind != "num" or exp.value is None or exp.value.denominator != 1 or exp.value < 0:
            raise ParseError("exponents must be non-negative integers", exp.pos)
        n = int(exp.value)
        degree = base.total_degree() * n
        # the multinomial count bounds the terms of a power
        terms = 1 if len(base) <= 1 or n == 0 else math.comb(len(base) + n - 1, n)
        bits = _coefficient_bits(base, n)
        return 1, base, n, degree, self.check("power", degree, terms, bits, exp.pos), bits

    def atom(self) -> Poly:
        tok = self.take()
        if tok.kind == "num":
            assert tok.value is not None
            return Poly.constant(self.chart, tok.value)
        if tok.kind == "name":
            idx = self.names.get(tok.text)
            if idx is None:
                raise ParseError(f"unknown name {tok.text!r}", tok.pos)
            exps = [0] * self.chart.size
            exps[idx] = 1
            return Poly(self.chart, {tuple(exps): 1})
        if tok.kind == "(":
            inner = _expand_sum(self.sum())
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)


def _expand(sign: int, factors: List[Tuple[Poly, int]]) -> Poly:
    acc = reduce(mul, (base if n == 1 else base**n for base, n in factors))
    return -acc if sign < 0 else acc


def _expand_sum(products: List[Tuple[int, List[Tuple[Poly, int]]]]) -> Poly:
    return reduce(add, (_expand(s, factors) for s, factors in products))


def _parse(text: str, chart: Chart, components: bool) -> List[Poly]:
    names = {v: k for k, v in enumerate(chart.variables)}
    return _Parser(text, chart, names).parse(components)


def parse_polynomial(text: str, chart: Chart) -> Poly:
    """Parse a polynomial expression over the chart's variables."""
    (p,) = _parse(text, chart, components=False)
    return p


def parse_polynomials(text: str, chart: Chart) -> Tuple[Poly, ...]:
    """Parse comma-separated polynomial expressions (a map's components)
    on one budget, as if they were one expression."""
    return tuple(_parse(text, chart, components=True))


def basis_names(chart: Chart) -> Tuple[str, ...]:
    """Canonical basis symbol for each coordinate: ``d`` + variable name."""
    return tuple("d" + v for v in chart.variables)


def _field_name_table(chart: Chart) -> Tuple[Chart, Dict[str, int]]:
    base = chart.variables
    canon = basis_names(chart)
    for b in canon:
        if b in base:
            raise ValueError(
                f"chart variable {b!r} collides with the basis symbol for {b[1:]!r}"
            )
    extended = Chart(base + canon)
    names: Dict[str, int] = {v: k for k, v in enumerate(base)}
    for k, b in enumerate(canon):
        names[b] = len(base) + k
    # positional aliases dx1 .. dxn
    for k in range(len(base)):
        alias = f"dx{k + 1}"
        target = len(base) + k
        if alias in names and names[alias] != target:
            raise ValueError(f"basis alias {alias!r} is ambiguous on chart {chart}")
        names[alias] = target
    return extended, names


def parse_field_coefficients(text: str, chart: Chart) -> Tuple[Poly, ...]:
    """Parse a vector-field expression, returning one coefficient per variable.

    Example: ``x*dx + (y^2 - 1)*dy`` on chart (x, y) gives (x, y^2 - 1).
    A term of the expansion without exactly one basis factor is an error
    that names the leading such term, since no column of the text holds it.
    """
    extended, names = _field_name_table(chart)
    (p,) = _Parser(text, extended, names).parse()
    n = chart.size
    coeffs: List[Dict[Tuple[int, ...], int]] = [dict() for _ in range(n)]
    bad = []
    for exps, coeff in p._num.items():
        basis_part = exps[n:]
        if sum(basis_part) == 1:
            coeffs[basis_part.index(1)][exps[:n]] = coeff
        else:
            bad.append(exps)
    if bad:
        exps = max(bad, key=glex_key)
        term = Poly._lowest(extended, {exps: p._num[exps]}, p._den)
        fault = "carries no basis factor" if sum(exps[n:]) == 0 else "multiplies two basis factors"
        raise ValueError(f"field term {term} {fault}")
    return tuple(Poly._lowest(chart, c, p._den) for c in coeffs)

