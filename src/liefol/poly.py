"""Exact sparse multivariate polynomials and rational functions over Q.

A polynomial is tied to a `Chart` (an ordered tuple of variable names)
and stored as integer numerators over one positive common denominator:
a mapping from exponent tuples to nonzero ints, plus the denominator,
kept in lowest terms.  Arithmetic therefore runs on Python ints and
reconciles the scale once per operation; exact division divides by the
integer-primitive part of the divisor over Z.  `Poly.terms` is a
read-only view of the same polynomial as a mapping from exponent tuples
to `fractions.Fraction` coefficients, built on demand.  All normal forms
used elsewhere in the package are fixed here:

* terms are ordered by graded lexicographic order (total degree first,
  then lexicographic in chart order),
* GCDs, contents and squarefree parts are normalized to integer
  coefficients with trivial integer content and a positive leading
  coefficient,
* rational functions are reduced pairs whose denominator carries that
  same normalization,
* a rational vector clears to polynomials by its common denominator and
  then by the content of its entries (``clear_to_polynomials``).

The normal forms run on integers: ``_normalizer`` returns the unit that
normalizes a polynomial as a pair of ints (a, b), and ``Poly._scaled``
multiplies by a / b, so no ``Fraction`` is built.  Each chart holds one
shared constant polynomial 1 (``Poly.one``), and a polynomial rational
function keeps it as its denominator: ``RatFunc`` of a polynomial, or
over a denominator equal to 1, stores the pair without a gcd.

The two hot loops, multiplication and exact division, pack each
exponent tuple into one int while they run (packed exponent vectors,
after Monagan and Pearce), except in sums of few products or with a
box too large for a dense list; storage stays keyed by tuples.  The
keys are mixed-radix numbers, the first variable most significant: with
radices r_k, the exponent vector e packs to sum_k e_k * s_k, where
s_k = r_(k+1) * ... * r_n, and the digit of x_k in a key is
key // s_k % r_k.  Every exponent that a loop forms lies in the box
0 <= e_k < r_k, so a key is one int, distinct monomials get distinct
keys, and int order on the keys is lexicographic order.  ``_Box`` is
the only code that packs, reads or unpacks keys, and ``_Box.dense`` is
the only code that decides whether sums run on them.

* A sum of products, sum_i a_i * b_i (``_dot``), and with it every
  product f * g (the sum with one pair), goes into one accumulator:
  each pair is scaled to the lcm of the denominators a_i._den * b_i._den,
  and a sum of n products reduces to lowest terms once, not n times.
  A sum of many term products (more than ``_SMALL_SUM_PRODUCTS``, and
  no fewer than its input terms) takes r_k = max_i (deg_k a_i +
  deg_k b_i) + 1, so a monomial product is one int addition that never
  carries out of a digit.  While that box holds at most
  ``_DENSE_SLOTS_PER_TERM`` slots per input term (the sum of
  len a_i + len b_i), the accumulator is a plain list with one slot per
  key (``_dense_sum``), read back by one scan for nonzero slots, so
  memory stays linear in the input.  Every other sum adds its products
  up in a dict keyed by exponent tuples (``_tuple_sum``) and packs
  nothing; derivations, small brackets, Bareiss steps and span tests
  are such sums.
* A polynomial Lie bracket or flow series, many sums over the same
  operands, can keep one box for all of them (``_series_box``).  It
  packs its operands once, takes partial derivatives on the keys (d/dx_k
  moves a key down by s_k), runs each sum in ``_dense_sum``, in a list
  sized to the sum's largest key, and unpacks only its results.  The
  rule counts the products of all its steps against the one packing.
* Exact division f / g takes r_k = deg_k f + 1 and divides in
  lexicographic order.  A quotient exponent is the digit vector of the
  difference of two keys, and it is used only if each digit q_k is at
  most deg_k f - deg_k g.  That check rules out a borrow between digits
  (q plus the exponent of g's leading term then adds up to the
  remainder's leading key without a carry, so q really is the difference
  of the exponents), and it keeps every remainder term inside the box.
  The next term is the builtin ``max`` over the int keys: no key
  function, and no heap.

The GCD is the heuristic GCDHEU of Char, Geddes and Gonnet: evaluate
both polynomials at large integers, take the integer gcd and read the
candidate back from its digits.  A candidate is accepted only if it
divides both inputs exactly, which proves it is the gcd; otherwise, or
when the integers would grow too long, a primitive polynomial remainder
sequence (PRS) in a chosen main variable computes it instead.  The PRS
takes the contents of its polynomials in that variable through ``gcd``
again, so each coefficient gcd tries GCDHEU first.  Both keep every
operation exact; there is deliberately no factorization and no Groebner
machinery here.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import accumulate, chain, compress
from operator import add, gt, mul, sub
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from . import _Frozen

Exponents = Tuple[int, ...]
Coeff = Union[int, Fraction]
Packed = List[Tuple[int, int]]  # (mixed-radix key, numerator) terms

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"  # ASCII; the expression tokenizer reads names by it too
_NAME_RE = re.compile(_NAME + r"\Z")


class ChartMismatchError(ValueError):
    """Raised when operands live on different charts."""


class ExactDivisionError(ValueError):
    """Raised when an exact polynomial division leaves a remainder."""


class Chart(_Frozen):
    """An ordered tuple of affine coordinate names, e.g. ``Chart(("x", "y"))``.

    The memo slot ``_one`` holds the chart's one shared constant
    polynomial 1, built by the first ``Poly.one`` call on the chart.
    """

    __slots__ = ("variables", "_one")

    def __init__(self, variables: Tuple[str, ...]) -> None:
        if isinstance(variables, list):
            variables = tuple(variables)
        # a bare string is a sequence of names too, but Chart("xy") is no chart
        if not isinstance(variables, tuple) or not all(isinstance(v, str) for v in variables):
            raise TypeError(f"chart variables must be a tuple or list of str, not {variables!r}")
        if not variables:
            raise ValueError("a chart needs at least one variable")
        for name in variables:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name: {name!r}")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names in chart")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "_one", None)

    @property
    def size(self) -> int:
        return len(self.variables)

    def index(self, var: Union[str, int]) -> int:
        """The position of a coordinate, given by name or by its position
        in ``range(size)``; KeyError for anything else."""
        if type(var) is int:
            if 0 <= var < len(self.variables):
                return var
        elif var in self.variables:
            return self.variables.index(var)
        raise KeyError(f"{var!r} is not a coordinate of {self}")

    def var(self, var: Union[str, int]) -> "Poly":
        """The coordinate ``var``, by name or by position (see ``index``),
        as a polynomial."""
        exps = [0] * self.size
        exps[self.index(var)] = 1
        return Poly._trusted(self, {tuple(exps): 1})

    def vars(self) -> Tuple["Poly", ...]:
        return tuple(map(self.var, range(self.size)))

    def zero_exponents(self) -> Exponents:
        return (0,) * len(self.variables)

    def __str__(self) -> str:
        return "(" + ", ".join(self.variables) + ")"


def _as_fraction(value: Coeff) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be int or Fraction, got {type(value).__name__}")


def glex_key(exponents: Exponents) -> Tuple[int, Exponents]:
    """Sort key for graded lexicographic order (larger key = larger monomial)."""
    return (sum(exponents), exponents)


class Poly:
    """A polynomial over Q on a fixed chart, stored sparsely.

    ``_num`` maps exponent tuples to nonzero integer numerators over the
    common denominator ``_den > 0``, in lowest terms:
    ``gcd(_den, *_num.values()) == 1``, and the zero polynomial has
    ``_den == 1``.  The form is canonical, so equality and hashing
    compare it directly; a constant polynomial equals its value as an
    int or ``Fraction`` and hashes as that value.  Instances are
    immutable by convention: the numerator dict is never mutated after
    construction (polynomials may share one), so polynomials can be
    shared, compared and hashed freely.  ``Poly.one(chart)`` is one
    instance per chart, kept in the chart's memo slot ``_one``.
    """

    __slots__ = ("chart", "_num", "_den")

    def __init__(self, chart: Chart, terms: Mapping[Exponents, Coeff]):
        width = chart.size
        den = 1
        items = []
        for exps, coeff in terms.items():
            if len(exps) != width:
                raise ValueError(f"exponent tuple {exps} does not fit chart {chart}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _as_fraction(coeff)
            if c:
                den = math.lcm(den, c.denominator)
                items.append((tuple(exps), c))
        # the lcm of reduced denominators leaves numerators without a
        # common factor with it: already lowest terms
        num = {e: c.numerator * (den // c.denominator) for e, c in items}
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly._trusted, (self.chart, self._num, self._den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def _trusted(cls, chart: Chart, num: Dict[Exponents, int], den: int = 1) -> "Poly":
        """Wrap numerators built inside this module, skipping validation.

        The caller guarantees the canonical form: exponent tuples of the
        chart's width with no negative entry, nonzero ``int`` numerators,
        and ``den > 0`` in lowest terms with them (1 for the zero
        polynomial).  The dict is taken over, not copied.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "chart", chart)
        object.__setattr__(obj, "_num", num)
        object.__setattr__(obj, "_den", den)
        return obj

    @classmethod
    def _lowest(cls, chart: Chart, num: Dict[Exponents, int], den: int) -> "Poly":
        """Like ``_trusted``, but first brings ``num / den`` to lowest terms."""
        if den != 1:
            if not num:
                den = 1
            else:
                g = math.gcd(den, *num.values())
                if g != 1:
                    num = {e: n // g for e, n in num.items()}
                    den //= g
        return cls._trusted(chart, num, den)

    @classmethod
    def zero(cls, chart: Chart) -> "Poly":
        return cls._trusted(chart, {})

    @classmethod
    def one(cls, chart: Chart) -> "Poly":
        """The constant 1 on ``chart``: one shared instance per chart."""
        one = chart._one
        if one is None:
            one = cls._trusted(chart, {chart.zero_exponents(): 1})
            object.__setattr__(chart, "_one", one)
        return one

    @classmethod
    def constant(cls, chart: Chart, value: Coeff) -> "Poly":
        c = _as_fraction(value)
        if not c:
            return cls._trusted(chart, {})
        return cls._trusted(chart, {chart.zero_exponents(): c.numerator}, c.denominator)

    # -- basic structure -------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """Read-only ``{exponents: Fraction}`` view, built on each access.

        Code inside the package reads ``_num`` and ``_den`` instead.
        """
        den = self._den
        return MappingProxyType({e: Fraction(n, den) for e, n in self._num.items()})

    def __len__(self) -> int:
        """Number of nonzero terms."""
        return len(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        num = self._num
        return not num or (len(num) == 1 and not any(next(iter(num))))

    def is_one(self) -> bool:
        if len(self._num) != 1 or self._den != 1:
            return False
        ((exps, n),) = self._num.items()
        return n == 1 and not any(exps)

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        return max(map(sum, self._num), default=-1)

    def degree_in(self, var: Union[str, int]) -> int:
        k = self.chart.index(var)
        return max((e[k] for e in self._num), default=-1)

    def _leading_exponents(self) -> Exponents:
        num = self._num
        if not num:
            raise ValueError("the zero polynomial has no leading term")
        # max by glex_key, without a Python call per term
        return max(zip(map(sum, num), num))[1]

    def leading_term(self) -> Tuple[Exponents, Fraction]:
        """Largest term in graded lexicographic order."""
        exps = self._leading_exponents()
        return exps, Fraction(self._num[exps], self._den)

    def coefficient(self, exps: Exponents) -> Fraction:
        exps = tuple(exps)
        if len(exps) != self.chart.size:
            raise ValueError(f"exponent tuple {exps} does not fit chart {self.chart}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        return Fraction(self._num.get(exps, 0), self._den)

    def _require_chart(self, other: "Poly") -> None:
        if self.chart != other.chart:
            raise ChartMismatchError(f"charts differ: {self.chart} vs {other.chart}")

    # -- arithmetic -------------------------------------------------------

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the least common denominator."""
        d1, d2 = self._den, other._den
        if d1 == d2:
            s1, s2, den = 1, sign, d1
        else:
            g = math.gcd(d1, d2)
            s1, s2, den = d2 // g, sign * (d1 // g), d1 // g * d2
        acc = dict(self._num) if s1 == 1 else {e: n * s1 for e, n in self._num.items()}
        for exps, n in other._num.items():
            if s2 != 1:
                n *= s2
            v = acc.get(exps)
            if v is None:
                acc[exps] = n
            else:
                v += n
                if v:
                    acc[exps] = v
                else:
                    del acc[exps]
        return Poly._lowest(self.chart, acc, den)

    def __add__(self, other: Union["Poly", Coeff]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.chart, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_chart(other)
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.chart, {e: -n for e, n in self._num.items()}, self._den)

    def __sub__(self, other: Union["Poly", Coeff]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.chart, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_chart(other)
        return self._plus(other, -1)

    def __rsub__(self, other: Coeff) -> "Poly":
        return (-self) + other

    def _scaled(self, p: int, q: int) -> "Poly":
        """self * p / q for integers p and q > 0."""
        if not p or not self._num:
            return Poly.zero(self.chart)
        g = math.gcd(p, self._den)
        if g != 1:
            p //= g
        num = self._num if p == 1 else {e: n * p for e, n in self._num.items()}
        den = self._den // g * q
        # p is now prime to den, and the numerators' content was already
        # prime to it: only a factor shared with q can remain
        if q == 1:
            return Poly._trusted(self.chart, num, den)
        return Poly._lowest(self.chart, num, den)

    def __mul__(self, other: Union["Poly", Coeff]) -> "Poly":
        if isinstance(other, int):
            return self._scaled(other, 1)
        if isinstance(other, Fraction):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        return _dot(self.chart, [(self, other)])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        if n == 0:
            return Poly.one(self.chart)
        if len(self._num) <= 1:
            # a monomial (or zero): raise the coefficient and scale the exponents
            return Poly._trusted(
                self.chart,
                {tuple(k * n for k in e): c**n for e, c in self._num.items()},
                self._den**n,
            )
        # repeated multiplication by the sparse base, not squaring: squaring
        # multiplies two large partial powers together, and on sparse
        # multivariate bases that costs more than n small products
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.chart, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self._den == other._den and self._num == other._num and self.chart == other.chart
        )

    def __hash__(self) -> int:
        # a constant equals its value, so it hashes as that value does
        if self.is_constant():
            return hash(self.coefficient(self.chart.zero_exponents()))
        return hash((self.chart, self._den, frozenset(self._num.items())))

    # -- calculus and evaluation ------------------------------------------

    def partial(self, var: Union[str, int]) -> "Poly":
        """Formal partial derivative with respect to one chart variable."""
        k = self.chart.index(var)
        acc: Dict[Exponents, int] = {}
        for exps, n in self._num.items():
            m = exps[k]
            if m:
                acc[exps[:k] + (m - 1,) + exps[k + 1 :]] = n * m
        return Poly._lowest(self.chart, acc, self._den)

    def homogeneous_part(self, degree: int) -> "Poly":
        return Poly._lowest(
            self.chart, {e: n for e, n in self._num.items() if sum(e) == degree}, self._den
        )

    def evaluate(self, point: Sequence[Coeff]) -> Fraction:
        if len(point) != self.chart.size:
            raise ValueError("point has wrong dimension")
        vals = [_as_fraction(p) for p in point]
        if not self._num:
            return Fraction(0)
        # clear each coordinate's denominator b to its top power D: the
        # term in v^e becomes a^e * b^(D - e), and the value is divided by
        # b^D once at the end
        scale = self._den
        tables = []
        for v, top in zip(vals, _degree_vector(self)):
            a, b = v.numerator, v.denominator
            tables.append([a**e * b ** (top - e) for e in range(top + 1)])
            scale *= b**top
        total = 0
        for exps, n in self._num.items():
            for table, e in zip(tables, exps):
                n *= table[e]
            total += n
        return Fraction(total, scale)

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute a polynomial for each chart variable (``_compose``).

        All images must share one chart; the result lives on it.
        """
        return _compose((self,), images)[0]

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.chart}, {format_poly(self)!r})"


def _compose(polys: Sequence[Poly], images: Sequence[Poly]) -> List[Poly]:
    """p o images for each p of ``polys``, one image per variable of their
    chart.  Each monomial image is built once per call, iteratively: x^e
    maps to the image of x^(e - 1_k) times images[k], k the last variable
    with e_k > 0.  Each member sums in one integer accumulator over the
    lcm of its images' denominators and is reduced once."""
    width = polys[0].chart.size
    if len(images) != width:
        raise ValueError("need one image per chart variable")
    target = images[0].chart
    if any(img.chart != target for img in images):
        raise ChartMismatchError("substitution images live on different charts")
    table = {tuple(int(i == k) for i in range(width)): img for k, img in enumerate(images)}
    table[(0,) * width] = Poly.one(target)
    out = []
    for p in polys:
        for e in p._num:
            path = []  # from x^e down to a monomial already in the table
            while e not in table:
                k = max(compress(range(width), e))
                path.append((e, k))
                e = e[:k] + (e[k] - 1,) + e[k + 1 :]
            for e_up, k in reversed(path):
                table[e_up] = table[e] * images[k]
                e = e_up
        den = math.lcm(*(table[e]._den for e in p._num))
        acc: Dict[Exponents, int] = {}
        for e, n in p._num.items():
            img = table[e]
            n *= den // img._den
            for f, m in img._num.items():
                acc[f] = acc.get(f, 0) + n * m
        out.append(Poly._lowest(target, {f: m for f, m in acc.items() if m}, den * p._den))
    return out


def format_poly(p: Poly) -> str:
    """Canonical text form: graded-lex descending, explicit ``*`` and ``^``.

    The output re-parses to the same polynomial, which the CLI relies on.
    """
    if p.is_zero():
        return "0"
    num, den = p._num, p._den
    pieces = []
    for exps in sorted(num, key=glex_key, reverse=True):
        n = num[exps]
        factors = []
        for name, e in zip(p.chart.variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        # the coefficient |n| / den in lowest terms
        g = math.gcd(n, den)
        a, b = abs(n) // g, den // g
        try:
            mag = str(a) if b == 1 else f"{a}/{b}"
        except ValueError:  # longer than the int/str conversion limit
            raise ValueError(
                f"a coefficient of {max(a, b).bit_length()} bits has more than "
                f"{sys.get_int_max_str_digits()} digits, too many to print"
            ) from None
        if not mono:
            body = mag
        elif a == 1 and b == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append((n < 0, body))
    negative, body = pieces[0]
    out = ("-" if negative else "") + body
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


# ---------------------------------------------------------------------------
# GCD machinery
# ---------------------------------------------------------------------------


def _normalizer(p: Poly) -> Tuple[int, int]:
    """The integers a and b > 0, in lowest terms, for which p * a / b is
    integer-primitive with a positive leading coefficient (p nonzero);
    a == b exactly when p is already so."""
    c = math.gcd(*p._num.values())
    # the numerators' content is prime to the denominator: a / b is reduced
    if p._num[p._leading_exponents()] < 0:
        return -p._den, c
    return p._den, c


def normalize(p: Poly) -> Poly:
    """Scale to integer coefficients, content 1, positive leading coefficient."""
    if p.is_zero():
        return p
    a, b = _normalizer(p)
    return p if a == b else p._scaled(a, b)


def _coeff_in(p: Poly, k: int, d: int) -> Poly:
    """Coefficient of x_k^d, as a polynomial with the x_k exponent cleared."""
    acc = {
        exps[:k] + (0,) + exps[k + 1 :]: n for exps, n in p._num.items() if exps[k] == d
    }
    return Poly._lowest(p.chart, acc, p._den)


def _pseudo_rem(f: Poly, g: Poly, k: int) -> Poly:
    """Pseudo-remainder of f by g in the variable x_k (deg_k g >= 1)."""
    dg = g.degree_in(k)
    lcg = _coeff_in(g, k, dg)
    xk = f.chart.var(k)
    r = f
    while not r.is_zero() and r.degree_in(k) >= dg:
        dr = r.degree_in(k)
        r = _dot(f.chart, [(lcg, r), (-_coeff_in(r, k, dr) * xk ** (dr - dg), g)])
    return r


def _content_in(p: Poly, k: int) -> Poly:
    """The normalized content of p as a polynomial in x_k."""
    return content([_coeff_in(p, k, d) for d in range(p.degree_in(k) + 1)])


# GCDHEU gives up after this many evaluation points and leaves the gcd
# to the PRS ...
_HEU_ATTEMPTS = 6
# ... and never evaluates to integers longer than this many bits (the
# bit length of a variable's evaluation point times its degree bound):
# integer gcd and base-xi digit extraction are quadratic in it.
_HEU_MAX_BITS = 1 << 16


def _heu_gcd(p: Poly, q: Poly) -> Optional[Poly]:
    """Normalized gcd of two non-constant polynomials by GCDHEU, or None.

    Heuristic gcd of Char, Geddes and Gonnet (1989).  Both inputs are
    taken in their normal form f, g (``normalize``: integer-primitive;
    the sign it fixes changes no integer gcd) and evaluated one variable
    at a time: x_1 = xi_1, then x_2 = xi_2, and so on, each xi_k above
    xi_(k-1) and at least 2 * |f| + 29 for the smaller nonzero sup-norm
    |f| of the two partly evaluated polynomials.  The integer gcd of
    f(xi) and g(xi), read back in symmetric base-xi_k digits from the
    last variable to the first, is a candidate h.  With points that
    large, a primitive h that divides both f and g *is* their gcd: a
    further common factor k would have |k(xi)| > xi_1 / 2, while k(xi)
    divides the content of h, whose digits are at most xi_1 / 2.  A
    candidate that fails the division is discarded and the points grow.
    A constant candidate divides both inputs, so it is returned as 1
    without the two trial divisions.  None means no candidate passed (or
    the integers would grow too long), and the caller falls back to the
    PRS.

    Evaluating at separate points, rather than substituting powers of one
    X for all variables (Kronecker), matters for forms: binary forms have
    no constant term, so their Kronecker images share a power of X that
    no common factor explains, and every candidate would fail.
    """
    f, g = normalize(p)._num, normalize(q)._num
    bounds = [max(a, b) + 1 for a, b in zip(_degree_vector(p), _degree_vector(q))]
    floor = 0
    for _ in range(_HEU_ATTEMPTS):
        points = []
        xi = floor
        fk, gk = f, g
        for bound in bounds:
            norm = min(n for n in (_sup_norm(fk), _sup_norm(gk)) if n)
            xi = max(xi, 2 * norm + 29)
            if xi.bit_length() * bound > _HEU_MAX_BITS:
                return None
            points.append(xi)
            fk, gk = _evaluate_first(fk, xi), _evaluate_first(gk, xi)
            # keep the next point off simple functions of this one: at y = x,
            # x - 3*y + 1 and 2*y - 1 agree up to sign, at y = x + 1 so do
            # 2*x + 2*y - 1 and 4*y - 3, on every retry, and the integer gcd
            # carries a factor that no polynomial gcd explains
            xi += math.isqrt(xi) + 1
        h = _interpolate(math.gcd(fk.get((), 0), gk.get((), 0)), points)
        if len(h) == 1 and not any(next(iter(h))):
            return Poly.one(p.chart)
        candidate = normalize(Poly._trusted(p.chart, h))
        if divides(candidate, p) and divides(candidate, q):
            return candidate
        floor = 73794 * points[0] * math.isqrt(math.isqrt(points[0])) // 27011
    return None


# A sum of products accumulates in one of two ways, by one rule, which
# ``_Box.dense`` alone applies.  While it forms at most
# ``_SMALL_SUM_PRODUCTS`` term products, or fewer products than it has
# input terms (a side of every pair has one term), it adds them up in a
# dict keyed by exponent tuples: no degree vectors, radices or packed
# copies are built.  Timed against the packed keys on
# 2500 random sums of 1-4 pairs with 2-12 terms a side in 1-4 variables,
# the tuple dict was faster in 88% of the sums of 32-47 products, 67% at
# 48-63 and 50% at 64-79; in one or two variables it lost in 78-89% of
# the sums of 64-95 products, in three or four it still won 48-86% of
# the sums of 96-127.  End to end, 64 in place of 48 moved no workload
# by more than its noise.  Above the rule the keys are packed into a
# list with one slot per key of their box while the box holds at most
# ``_DENSE_SLOTS_PER_TERM`` slots per input term, and the sum takes the
# tuple dict above that.  A bound on the input size, not on the number
# of term products, keeps memory linear in the input.  Timed against the
# tuple dict on 3000 random sums of more than 48 products (1-3 pairs,
# 7-60 terms a side, 1-4 variables; Python 3.11, 2-vCPU Xeon VM), the
# list won 100% of the sums below 16 slots a term, 97% at 16-32, 94% at
# 32-48, 80% at 48-64, 68% at 64-96, 49% at 96-128, 17% at 128-192, 5%
# at 192-256 and under 1% above.  ``_dot`` asks ``_Box.dense`` with the
# counts of one sum, and ``_series_box`` with the products of all the
# steps of a computation that packs once for all of them.
_SMALL_SUM_PRODUCTS = 48
_DENSE_SLOTS_PER_TERM = 128


def _degree_vector(p: Poly) -> List[int]:
    return list(map(max, zip(*p._num)))


def _dot(chart: Chart, pairs: Iterable[Tuple[Poly, Poly]]) -> Poly:
    """The sum of a * b over ``pairs`` of polynomials on ``chart``.

    Every partial product goes into one accumulator: each pair's
    numerators scaled to the lcm of the ``a._den * b._den``, and one
    reduction to lowest terms at the end.  The accumulator follows the
    rule above ``_SMALL_SUM_PRODUCTS`` (see also the module docstring).
    """
    live = []
    den, size, products = 1, 0, 0
    for a, b in pairs:
        # identity first: Chart.__eq__ is a Python-level call
        if (a.chart is not chart or b.chart is not chart) and (
            a.chart != chart or b.chart != chart
        ):
            raise ChartMismatchError(f"charts differ: {a.chart}, {b.chart} vs {chart}")
        if a._num and b._num:
            live.append((a, b))
            den = math.lcm(den, a._den * b._den)
            size += len(a._num) + len(b._num)
            products += len(a._num) * len(b._num)
    if not live:
        return Poly.zero(chart)

    def radices() -> List[int]:
        tops = [0] * chart.size
        for a, b in live:
            tops = list(map(max, tops, map(add, _degree_vector(a), _degree_vector(b))))
        return [t + 1 for t in tops]

    box = _Box.dense(chart, products, size, radices)
    if box is None:
        return Poly._lowest(chart, _tuple_sum(live, den), den)
    pack = box.pack
    packed = [(pack(a._num), pack(b._num), den // (a._den * b._den)) for a, b in live]
    return box.poly(_dense_sum(packed, box.slots), den)


def _tuple_sum(live: List[Tuple[Poly, Poly]], den: int) -> Dict[Exponents, int]:
    """The numerators over ``den`` of the sum of the products ``live``,
    accumulated on exponent tuples."""
    acc: Dict[Exponents, int] = {}
    get = acc.get
    for a, b in live:
        scale = den // (a._den * b._den)
        terms2 = b._num.items()
        for e1, n1 in a._num.items():
            n1 *= scale
            for e2, n2 in terms2:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + n1 * n2
    return acc if all(acc.values()) else {e: n for e, n in acc.items() if n}


def _dense_sum(packed: List[Tuple[Packed, Packed, int]], slots: int) -> Packed:
    """The sum of scale * a * b over the ``packed`` triples (a, b, scale)
    of mixed-radix terms, as terms in increasing key order.  It runs in a
    list with one slot per key below ``slots``, which must exceed every
    key a product forms: each term of the shorter factor of a pair, times
    its scale, times the terms of the other, and one scan for the nonzero
    slots at the end."""
    acc = [0] * slots
    for a, b, scale in packed:
        if len(a) > len(b):
            a, b = b, a
        for k1, n1 in a:
            n1 *= scale
            for k2, n2 in b:
                acc[k1 + k2] += n1 * n2
    return list(zip(compress(range(slots), acc), filter(None, acc)))


class _Box:
    """The mixed-radix keys of ``radices`` (see the module docstring): the
    one place that packs, reads and unpacks keys, and that decides when
    sums run on them.  ``slots`` is one more than the largest key.  The
    terms of ``pack_all``, and the sums and partials formed from them,
    are in increasing key order, so the last key of each is its largest.
    """

    __slots__ = ("chart", "radices", "strides", "slots")

    def __init__(self, chart: Chart, radices: List[int]) -> None:
        self.chart = chart
        self.radices = radices
        # s_k = r_(k+1) * ... * r_n
        self.strides = list(accumulate(reversed(radices[1:]), mul, initial=1))[::-1]
        self.slots = self.strides[0] * radices[0]

    @classmethod
    def dense(
        cls, chart: Chart, products: int, size: int, radices: Callable[[], List[int]]
    ) -> Optional["_Box"]:
        """The box of ``radices()`` if sums that form ``products`` term
        products from ``size`` input terms run in a dense list by the rule
        above ``_SMALL_SUM_PRODUCTS``, else None; ``radices`` is called
        only for many products."""
        if products <= _SMALL_SUM_PRODUCTS or products < size:
            return None
        box = cls(chart, radices())
        return box if box.slots <= _DENSE_SLOTS_PER_TERM * size else None

    def pack(self, num: Dict[Exponents, int]) -> Packed:
        """The terms ``num`` as (key, numerator) pairs."""
        strides = self.strides
        return [(sum(map(mul, e, strides)), n) for e, n in num.items()]

    def pack_all(self, polys: Sequence[Poly]) -> Tuple[List[Packed], int]:
        """The terms of ``polys`` as integer numerators over their least
        common denominator, in increasing key order, and that denominator."""
        den = math.lcm(*(p._den for p in polys))
        out = []
        for p in polys:
            terms = sorted(self.pack(p._num))
            scale = den // p._den
            out.append(terms if scale == 1 else [(k, n * scale) for k, n in terms])
        return out, den

    def digits(self, terms: Packed) -> List[List[int]]:
        """The digits of the keys of ``terms``, one list per variable."""
        return [[key // s % r for key, _ in terms] for s, r in zip(self.strides, self.radices)]

    def gradient(self, terms: Packed) -> List[Packed]:
        """The derivatives of ``terms`` in every variable: d/dx_k takes
        n x^e to e_k n x^(e - 1_k), s_k lower, reading e_k in the same pass
        (a separate ``digits`` pass costs a third more on flow series)."""
        return [
            [(key - s, n * e) for key, n in terms if (e := key // s % r)]
            for s, r in zip(self.strides, self.radices)
        ]

    def dot(self, triples: Iterable[Tuple[Packed, Packed, int]]) -> Packed:
        """The sum of scale * a * b over ``triples`` (a, b, scale) of packed
        terms, in a list sized to the largest key it forms."""
        live = [t for t in triples if t[0] and t[1]]
        if not live:
            return []
        return _dense_sum(live, max(a[-1][0] + b[-1][0] for a, b, _ in live) + 1)

    def poly(self, terms: Packed, den: int) -> Poly:
        """The packed ``terms`` over ``den`` as a polynomial."""
        exponents = zip(*self.digits(terms))
        return Poly._lowest(self.chart, dict(zip(exponents, [n for _, n in terms])), den)


def _series_box(step: Sequence[Poly], base: Sequence[Poly], order: int) -> Optional[_Box]:
    """The box of ``order`` steps from ``base``, each a derivation or a
    bracket along the field ``step``, or None: ``_Box.dense`` decides.

    A step raises deg_k by at most max_j deg_k step_j, since
    deg_k(a * b') <= deg_k a + deg_k b, so the radix of x_k is
    max_i deg_k base_i + order * max_j deg_k step_j + 1.  The rule counts
    order * (terms of step) * (terms of base) products, since the
    operands are packed once for all the steps, over an input of
    (terms of step) + (terms of base) terms."""
    terms_step = sum(len(p._num) for p in step)
    terms_base = sum(len(p._num) for p in base)

    def radices() -> List[int]:
        # per variable: the degrees of the nonzero step and base polynomials
        columns = [zip(*(_degree_vector(p) for p in polys if p._num)) for polys in (step, base)]
        return [max(b) + order * max(s) + 1 for s, b in zip(*columns)]

    return _Box.dense(
        step[0].chart, order * terms_step * terms_base, terms_step + terms_base, radices
    )


def _sup_norm(f: Dict[Exponents, int]) -> int:
    return max(map(abs, f.values()), default=0)


def _evaluate_first(f: Dict[Exponents, int], xi: int) -> Dict[Exponents, int]:
    """f with its first variable set to xi, on the remaining ones."""
    out: Dict[Exponents, int] = {}
    for e, c in f.items():
        rest = e[1:]
        out[rest] = out.get(rest, 0) + c * xi ** e[0]
    return {e: c for e, c in out.items() if c}


def _interpolate(value: int, points: Sequence[int]) -> Dict[Exponents, int]:
    """The polynomial h with h(points) = value whose digits, read in base
    points[k] from the last variable to the first, lie in (-xi/2, xi/2]."""
    terms: Dict[Exponents, int] = {(): value}
    for xi in reversed(points):
        half = xi // 2
        digits: Dict[Exponents, int] = {}
        for rest, v in terms.items():
            e = 0
            while v:
                v, d = divmod(v, xi)
                if d > half:
                    d -= xi
                    v += 1
                if d:
                    digits[(e,) + rest] = d
                e += 1
        terms = digits
    return terms


def _gcd(p: Poly, q: Poly) -> Poly:
    """Normalized gcd of two polynomials on one chart: GCDHEU, else the PRS."""
    if p.is_zero():
        return normalize(q)
    if q.is_zero():
        return normalize(p)
    if p.is_constant() or q.is_constant():
        return Poly.one(p.chart)
    h = _heu_gcd(p, q)
    if h is not None:
        return h
    # primitive remainder sequence in the first variable that p or q
    # depends on; the contents are gcds on the other variables, so they
    # recurse through gcd and try GCDHEU first
    main = next(k for k in range(p.chart.size) if p.degree_in(k) or q.degree_in(k))
    cp = _content_in(p, main)
    cq = _content_in(q, main)
    # keep every element of the remainder sequence integer-primitive:
    # without the rational normalization the coefficient bit-length
    # doubles per step
    a = normalize(divexact(p, cp))
    b = normalize(divexact(q, cq))
    if a.degree_in(main) < b.degree_in(main):
        a, b = b, a
    while b and b.degree_in(main):
        r = _pseudo_rem(a, b, main)
        a = b
        b = r if r.is_zero() else normalize(divexact(r, _content_in(r, main)))
    return normalize(_gcd(cp, cq) * (a if b.is_zero() else Poly.one(p.chart)))


def gcd(p: Poly, q: Poly) -> Poly:
    """Normalized greatest common divisor in Q[chart].

    gcd(0, 0) = 0; otherwise the result is integer-primitive with a
    positive leading coefficient.
    """
    if p.chart != q.chart:
        raise ChartMismatchError("gcd operands on different charts")
    return _gcd(p, q)


def content(polys: Iterable[Poly]) -> Poly:
    """Normalized GCD of a non-empty family of polynomials."""
    it = iter(polys)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("content of an empty family") from None
    for p in it:
        acc = gcd(acc, p)
        if acc.is_one():
            break
    return normalize(acc)


def divexact(f: Poly, g: Poly) -> Poly:
    """Exact quotient f/g; raises ExactDivisionError if g does not divide f."""
    if f.chart != g.chart:
        raise ChartMismatchError("division operands on different charts")
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if g.is_constant():
        (n,) = g._num.values()
        return f._scaled(g._den, n) if n > 0 else f._scaled(-g._den, -n)
    if not f._num:
        return f
    # g = (c / d) * G with G integer-primitive.  If G divides f's integer
    # numerators F in Q[x], Gauss's lemma makes F / G integral, so the
    # division runs over Z and a fractional quotient term disproves it.
    c = math.gcd(*g._num.values())
    G = g._num if c == 1 else {e: n // c for e, n in g._num.items()}
    # mixed-radix keys over deg_k f, the first variable most significant:
    # int order on them is lexicographic order.  A quotient exponent qe
    # is only used with qe_k <= deg_k f - deg_k g, so no remainder term
    # leaves the box (see the module docstring).
    room = list(map(sub, _degree_vector(f), _degree_vector(g)))
    if min(room) < 0:
        raise ExactDivisionError(f"({g}) does not divide ({f})")
    box = _Box(f.chart, [d + 1 for d in _degree_vector(f)])
    packed = dict(box.pack(G))
    gk = max(packed)
    gc = packed.pop(gk)
    rest = list(packed.items())
    quotient: Dict[Exponents, int] = {}
    r = dict(box.pack(f._num))
    while r:
        rk = max(r)
        qk = rk - gk
        (qe,) = zip(*box.digits([(qk, 0)]))
        # a borrow can leave digits that look valid.  Digits within room
        # add to those of gk without a carry, so then qe really is the
        # exponent of rk minus that of gk
        if qk < 0 or any(map(gt, qe, room)):
            raise ExactDivisionError(f"({g}) does not divide ({f})")
        qc, rem = divmod(r.pop(rk), gc)
        if rem:
            raise ExactDivisionError(f"({g}) does not divide ({f})")
        quotient[qe] = qc
        for k, n in rest:
            k += qk
            v = r.get(k)
            if v is None:
                r[k] = -qc * n
            else:
                v -= qc * n
                if v:
                    r[k] = v
                else:
                    del r[k]
    # f / g = (F / G) * d / (f._den * c)
    d, den = g._den, f._den * c
    h = math.gcd(d, den)
    if h != 1:
        d, den = d // h, den // h
    if d != 1:
        quotient = {e: n * d for e, n in quotient.items()}
    return Poly._lowest(f.chart, quotient, den)


def divides(g: Poly, f: Poly) -> bool:
    """True iff g divides f exactly (g nonzero)."""
    try:
        divexact(f, g)
        return True
    except ExactDivisionError:
        return False


def lcm(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return Poly.zero(p.chart)
    return normalize(divexact(p * q, gcd(p, q)))


def squarefree_part(p: Poly) -> Poly:
    """Product of the distinct irreducible factors of p, normalized.

    Computed as p / gcd(p, dp/dx_1, ..., dp/dx_n); characteristic zero
    makes that quotient exactly the radical of a non-constant p.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no squarefree part")
    g = content(chain([p], (p.partial(k) for k in range(p.chart.size))))
    return normalize(divexact(p, g))


def bareiss(
    rows: Sequence[Sequence[Poly]], reduced: bool = False
) -> Tuple[List[List[Poly]], List[int], int]:
    """Fraction-free (Bareiss) elimination of a polynomial matrix: the
    eliminated copy, its pivot columns and the sign of the row swaps.
    Every entry is a minor of the input, so each division is exact.
    ``reduced`` also clears above each pivot (Nakos, Turner and Williams
    1997); every pivot then equals the last one."""
    m = [list(row) for row in rows]
    width = len(m[0]) if m else 0
    if any(len(row) != width for row in m):
        raise ValueError("ragged matrix")
    pivots: List[int] = []
    sign, prev = 1, None
    for col in range(width):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if not m[i][col].is_zero()), None)
        if k is None:
            continue
        if k != r:
            m[r], m[k], sign = m[k], m[r], -sign
        top, p = m[r], m[r][col]
        for i in range(0 if reduced else r + 1, len(m)):
            if i == r:
                continue
            row, neg = m[i], -m[i][col]
            row[col] = Poly.zero(p.chart)
            # below the pivot the columns left of it are already zero
            for j in range(col + 1 if i > r else 0, width):
                if j != col:
                    v = _dot(p.chart, [(p, row[j]), (neg, top[j])])
                    row[j] = v if prev is None else divexact(v, prev)
        prev = p
        pivots.append(col)
    return m, pivots, sign


def poly_det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("matrix is empty or not square")
    m, pivots, sign = bareiss(rows)
    return m[n - 1][n - 1] * sign if len(pivots) == n else Poly.zero(rows[0][0].chart)


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


def _unit_normalized(num: Poly, den: Poly) -> Tuple[Poly, Poly]:
    """Scale a coprime pair by a rational unit so that the denominator is
    integer-primitive with positive leading coefficient, and exactly 1
    when it is constant or the numerator is zero."""
    if num.is_zero() or den.is_one():
        return num, Poly.one(num.chart)
    a, b = _normalizer(den)
    if den.is_constant():
        return num._scaled(a, b), Poly.one(num.chart)
    if a == b:
        return num, den
    return num._scaled(a, b), den._scaled(a, b)


class RatFunc:
    """A reduced fraction of polynomials on a shared chart.

    Invariants: gcd(num, den) is constant, the denominator is
    integer-primitive with positive leading coefficient (so a
    polynomial is stored with denominator exactly 1), and the zero
    function is 0/1.  The constructor stores a polynomial, given alone or
    over a denominator equal to 1, with its chart's shared ``Poly.one``
    and no gcd; both parts must be ``Poly``.  A polynomial function
    equals its numerator and hashes as it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Union[Poly, None] = None):
        if not isinstance(num, Poly):
            raise TypeError(f"a numerator must be a Poly, not {type(num).__name__}")
        if den is not None and not isinstance(den, Poly):
            raise TypeError(f"a denominator must be a Poly, not {type(den).__name__}")
        chart = num.chart
        if den is not None and den.chart is not chart and den.chart != chart:
            raise ChartMismatchError("numerator and denominator on different charts")
        if den is None or den.is_one():
            # a polynomial is already reduced and normalized
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", Poly.one(chart))
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero() and not den.is_constant():
            g = gcd(num, den)
            if not g.is_constant():
                num = divexact(num, g)
                den = divexact(den, g)
        num, den = _unit_normalized(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("RatFunc is immutable")

    def __reduce__(self):
        return RatFunc._trusted, (self.num, self.den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RatFunc":
        """Wrap an already-coprime pair, doing only unit normalization.

        Arithmetic below keeps pairs coprime by Henrici-style
        cross-cancellation, so the constructor's full gcd is redundant
        on those paths.
        """
        return cls._trusted(*_unit_normalized(num, den))

    @classmethod
    def _trusted(cls, num: Poly, den: Poly) -> "RatFunc":
        """Wrap a pair that is already in the canonical form above."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    @classmethod
    def constant(cls, chart: Chart, value: Coeff) -> "RatFunc":
        return cls(Poly.constant(chart, value))

    @classmethod
    def zero(cls, chart: Chart) -> "RatFunc":
        return cls(Poly.zero(chart))

    # -- structure --------------------------------------------------------

    @property
    def chart(self) -> Chart:
        return self.num.chart

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def as_poly(self) -> Poly:
        if not self.den.is_one():
            raise ValueError(f"{self} is not polynomial")
        return self.num

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Union["RatFunc", Poly, Coeff]) -> "RatFunc":
        o = _as_ratfunc(self.chart, other)
        if self.den.is_one() and o.den.is_one():
            return RatFunc(self.num + o.num)
        g = gcd(self.den, o.den)
        if g.is_constant():
            # coprime denominators: the cross sum is already reduced
            return RatFunc._reduced(
                self.num * o.den + o.num * self.den, self.den * o.den
            )
        left = divexact(self.den, g)
        right = divexact(o.den, g)
        num = self.num * right + o.num * left
        den = g * left * right
        h = gcd(num, g)  # any surviving common factor divides g
        if not h.is_constant():
            num = divexact(num, h)
            den = divexact(den, h)
        return RatFunc._reduced(num, den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._reduced(-self.num, self.den)

    def __sub__(self, other: Union["RatFunc", Poly, Coeff]) -> "RatFunc":
        return self + (-_as_ratfunc(self.chart, other))

    def __rsub__(self, other: Union[Poly, Coeff]) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other: Union["RatFunc", Poly, Coeff]) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            # a nonzero scalar leaves num and den coprime and den normalized
            if not other:
                return RatFunc.zero(self.chart)
            return RatFunc._trusted(self.num * other, self.den)
        o = _as_ratfunc(self.chart, other)
        if self.den.is_one() and o.den.is_one():
            return RatFunc(self.num * o.num)
        num1, den2 = self.num, o.den
        g1 = gcd(num1, den2)
        if not g1.is_constant():
            num1 = divexact(num1, g1)
            den2 = divexact(den2, g1)
        num2, den1 = o.num, self.den
        g2 = gcd(num2, den1)
        if not g2.is_constant():
            num2 = divexact(num2, g2)
            den1 = divexact(den1, g2)
        return RatFunc._reduced(num1 * num2, den1 * den2)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["RatFunc", Poly, Coeff]) -> "RatFunc":
        o = _as_ratfunc(self.chart, other)
        if o.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return self * RatFunc(o.den, o.num)

    def __rtruediv__(self, other: Union[Poly, Coeff]) -> "RatFunc":
        return _as_ratfunc(self.chart, other) / self

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            try:
                other = _as_ratfunc(self.chart, other)
            except ChartMismatchError:
                return False
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # a polynomial equals its numerator, so it hashes as that does
        if self.den.is_one():
            return hash(self.num)
        return hash((self.num, self.den))

    # -- calculus -----------------------------------------------------------

    def partial(self, var: Union[str, int]) -> "RatFunc":
        """Partial derivative (quotient rule)."""
        if self.den.is_one():
            return RatFunc._trusted(self.num.partial(var), self.den)
        dn = self.num.partial(var)
        dd = self.den.partial(var)
        return RatFunc(dn * self.den - self.num * dd, self.den * self.den)

    def evaluate(self, point: Sequence[Coeff]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator of {self} vanishes at {tuple(point)}")
        return self.num.evaluate(point) / d

    def substitute(self, images: Sequence[Poly]) -> "RatFunc":
        """Compose with a polynomial map: numerator and denominator in one ``_compose``."""
        num, den = _compose((self.num, self.den), images)
        if den.is_zero():
            raise ZeroDivisionError("substitution lands in the polar locus")
        return RatFunc(num, den)

    def __str__(self) -> str:
        if self.den.is_one():
            return format_poly(self.num)
        return f"({format_poly(self.num)})/({format_poly(self.den)})"

    def __repr__(self) -> str:
        return f"RatFunc({self!s})"


def _as_ratfunc(chart: Chart, value: Union[RatFunc, Poly, Coeff]) -> RatFunc:
    """``value`` as a rational function on ``chart``."""
    if isinstance(value, (RatFunc, Poly)):
        if value.chart != chart:
            raise ChartMismatchError("coefficient lives on a different chart")
        return value if isinstance(value, RatFunc) else RatFunc._trusted(value, Poly.one(chart))
    if isinstance(value, (int, Fraction)):
        return RatFunc(Poly.constant(chart, value))
    raise TypeError(f"bad coefficient: {type(value).__name__}")


def _common_denominator(fs: Iterable[RatFunc]) -> Tuple[Poly, Tuple[Poly, ...]]:
    """The lcm q of the denominators of a non-empty family, normalized, and
    the polynomials f * q."""
    fs = tuple(fs)
    if not fs:
        raise ValueError("empty family")
    chart = fs[0].chart
    common = Poly.one(chart)
    for f in fs:
        if not f.den.is_one():
            common = lcm(common, f.den)
    if common.is_one():
        return common, tuple(f.num for f in fs)
    return common, tuple(f.num * divexact(common, f.den) for f in fs)


def clear_denominators(fs: Iterable[RatFunc]) -> Tuple[Poly, ...]:
    """Scale a family of rational functions to polynomials by their common
    denominator, returning the numerators of f * lcm(dens)."""
    return _common_denominator(fs)[1]


def _content_divided(polys: Sequence[Poly]) -> Tuple[Tuple[Poly, ...], Poly]:
    """A polynomial vector, not all zero, divided by the normalized gcd g
    of its nonzero entries, and g.  A content of 1 costs no division."""
    g = content([p for p in polys if not p.is_zero()])
    if g.is_one():
        return tuple(polys), g
    return tuple(divexact(p, g) for p in polys), g


def clear_to_polynomials(vector: Sequence[RatFunc]) -> Tuple[Poly, ...]:
    """Scale a nonzero rational vector to polynomial entries with content 1:
    multiply out the common denominator, then divide away the entries' GCD."""
    vec = tuple(vector)
    if all(v.is_zero() for v in vec):
        raise ValueError("cannot normalize the zero vector")
    return _content_divided(clear_denominators(vec))[0]
