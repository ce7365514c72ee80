"""Reference polynomial arithmetic with one `Fraction` per term.

This is the representation `liefol.poly.Poly` used before it moved to
integer numerators over one common denominator: a dict from exponent
tuples to nonzero `Fraction` coefficients, with every operation done
term by term in `Fraction` arithmetic.  It is slow and obviously right,
and the property tests in ``test_poly_reference.py`` check the integer
core against it with exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Dict, Sequence, Tuple

Exponents = Tuple[int, ...]


class ReferenceDivisionError(ValueError):
    pass


def glex_key(exponents: Exponents) -> Tuple[int, Exponents]:
    return (sum(exponents), exponents)


class RefPoly:
    """A polynomial over Q as ``{exponents: Fraction}`` on ``width`` variables."""

    __slots__ = ("width", "terms")

    def __init__(self, width: int, terms: Dict[Exponents, Fraction]):
        self.width = width
        self.terms = {e: Fraction(c) for e, c in terms.items() if c}

    @classmethod
    def of(cls, p) -> "RefPoly":
        """The reference copy of a `liefol.poly.Poly`, read through its view."""
        return cls(p.chart.size, dict(p.terms))

    def constant(self, value) -> "RefPoly":
        return RefPoly(self.width, {(0,) * self.width: Fraction(value)})

    def __add__(self, other: "RefPoly") -> "RefPoly":
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, Fraction(0)) + c
        return RefPoly(self.width, acc)

    def __neg__(self) -> "RefPoly":
        return RefPoly(self.width, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "RefPoly") -> "RefPoly":
        return self + (-other)

    def __mul__(self, other) -> "RefPoly":
        if not isinstance(other, RefPoly):
            c = Fraction(other)
            return RefPoly(self.width, {e: k * c for e, k in self.terms.items()})
        acc: Dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return RefPoly(self.width, acc)

    def __pow__(self, n: int) -> "RefPoly":
        # square and multiply, as the old implementation did
        result = self.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def partial(self, k: int) -> "RefPoly":
        acc = {}
        for exps, c in self.terms.items():
            if exps[k]:
                e = list(exps)
                e[k] -= 1
                acc[tuple(e)] = c * exps[k]
        return RefPoly(self.width, acc)

    def homogeneous_part(self, degree: int) -> "RefPoly":
        return RefPoly(self.width, {e: c for e, c in self.terms.items() if sum(e) == degree})

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(point, exps):
                term *= Fraction(v) ** e
            total += term
        return total

    def substitute(self, images: Sequence["RefPoly"]) -> "RefPoly":
        result = RefPoly(images[0].width, {})
        for exps, c in self.terms.items():
            term = images[0].constant(c)
            for img, e in zip(images, exps):
                term = term * img**e
            result = result + term
        return result

    def divexact(self, g: "RefPoly") -> "RefPoly":
        """Exact quotient by term-by-term long division in graded lex order."""
        ge = max(g.terms, key=glex_key)
        gc = g.terms[ge]
        quotient: Dict[Exponents, Fraction] = {}
        r = dict(self.terms)
        while r:
            re_ = max(r, key=glex_key)
            qe = tuple(map(sub, re_, ge))
            if min(qe) < 0:
                raise ReferenceDivisionError("not divisible")
            qc = r[re_] / gc
            quotient[qe] = qc
            for e, c in g.terms.items():
                e = tuple(map(add, e, qe))
                v = r.get(e, Fraction(0)) - qc * c
                if v:
                    r[e] = v
                else:
                    r.pop(e, None)
        return RefPoly(self.width, quotient)


def format_ref(p: RefPoly, variables: Sequence[str]) -> str:
    """The canonical text form, built from the `Fraction` coefficients."""
    if not p.terms:
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=glex_key, reverse=True):
        coeff = p.terms[exps]
        factors = []
        for name, e in zip(variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        mag = abs(coeff)
        text = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if not mono:
            body = text
        elif mag == 1:
            body = mono
        else:
            body = f"{text}*{mono}"
        pieces.append((coeff < 0, body))
    negative, body = pieces[0]
    out = ("-" if negative else "") + body
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out
