"""Behaviour of planar polynomial fields along the line at infinity.

A planar field ``a(x,y) d/dx + b(x,y) d/dy`` with coprime coefficients
is rewritten in the chart ``s = 1/x, t = y/x`` that attaches the line
``s = 0`` at infinity.  With ``n = max(deg a, deg b)`` and
``p^(s,t) = s^n p(1/s, t/s)`` the rescaled field is

    w_s = -s * a^(s,t),        w_t = -t * a^(s,t) + b^(s,t),

and the restriction ``P(t) = w_t(0, t)`` controls the dynamics on the
line at infinity.  The binary invariant is carried by the homogeneous
form ``Q(x, y) = x*b_n - y*a_n`` built from the top-degree parts: the
line at infinity is invariant exactly when Q is not identically zero,
in which case its roots are the singular points at infinity and
``P(t) = Q(1, t)``.

The content of the pair (w_s, w_t) is s when Q = 0 and 1 otherwise, so
``infinity_analysis`` reads it off Q instead of computing a gcd.  Proof:
a^ and b^ are coprime as a and b are (a factor other than s would divide
both homogenizations, hence a and b; s divides at most one, as a or b
has degree n).  So gcd(s a^, w_t) divides s * gcd(a^, -t a^ + b^) = s,
and s divides w_t exactly when P(t) = Q(1, t) is zero, that is Q = 0.

For an invariant algebraic curve C (with Q nonzero) the points of C at
infinity must land among those singular points; concretely the
squarefree part of the top form of C has to divide the squarefree part
of Q.  ``invariant_curve_constraint`` reports whether that necessary
condition is met ("consistent") or violated ("excluded").

The rational singular points [1 : t] come from the rational roots of P.
``rational_roots`` finds them at one prime q that divides neither the
leading coefficient of the squarefree part nor its discriminant: the
roots mod q are found by trying every residue, each is lifted by Newton's
iteration (Hensel) until the modulus bounds the numerator, and the
candidate it gives is checked by exact evaluation.  Everything runs on
integers, and the number of steps grows with the bit lengths of the
coefficients, not with their magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import _Frozen
from .liecalc import VectorField
from .foliation import saturate_rank1
from .poly import (
    Chart,
    ChartMismatchError,
    Exponents,
    Poly,
    content,
    divexact,
    divides,
    squarefree_part,
)

INFINITY_CHART = Chart(("s", "t"))
LINE_CHART = Chart(("t",))
_TWO_VARIABLES = "planar analysis needs a two-variable chart"


class PlanarField(_Frozen):
    """A polynomial field on a two-variable chart, with coprime coefficients.

    ``degree`` is the common working degree n = max(deg a, deg b); the
    coprimality requirement means the field is the saturated generator
    of its direction (use ``from_vector_field`` to saturate first).
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Poly, b: Poly, *, _coprime: bool = False) -> None:
        # _coprime=True skips the coprimality gcd: ``from_vector_field``
        # passes it for a pair whose content saturation has just divided out
        if a.chart != b.chart:
            raise ChartMismatchError("coefficients on different charts")
        if a.chart.size != 2:
            raise ValueError(_TWO_VARIABLES)
        if a.is_zero() and b.is_zero():
            raise ValueError("the zero field has no direction at infinity")
        if not _coprime and not content([c for c in (a, b) if not c.is_zero()]).is_constant():
            raise ValueError("coefficients share a common factor; saturate the field first")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_vector_field(cls, v: VectorField) -> "PlanarField":
        if v.chart.size != 2:
            raise ValueError(_TWO_VARIABLES)
        a, b = saturate_rank1(v).polynomial_coefficients()
        return cls(a, b, _coprime=True)

    @property
    def chart(self) -> Chart:
        return self.a.chart

    @property
    def degree(self) -> int:
        return max(self.a.total_degree(), self.b.total_degree())

    def as_vector_field(self) -> VectorField:
        return VectorField.from_coefficients(self.chart, (self.a, self.b))

    def __str__(self) -> str:
        x, y = self.chart.variables
        return f"({self.a}) d/d{x} + ({self.b}) d/d{y}"


def _hat(p: Poly, n: int) -> Poly:
    """``s^n p(1/s, t/s)`` as a polynomial on the infinity chart."""
    acc: Dict[Exponents, int] = {}
    for (e1, e2), coeff in p._num.items():
        d = e1 + e2
        if d > n:
            raise ValueError("degree exceeds the homogenization degree")
        acc[(n - d, e2)] = coeff
    # distinct monomials of p land on distinct ones: p's scale carries over
    return Poly._trusted(INFINITY_CHART, acc, p._den)


def to_infinity_chart(field: PlanarField) -> Tuple[Poly, Poly]:
    """The rescaled field in the chart at infinity: (w_s, w_t) as displayed above."""
    n = field.degree
    a_hat = _hat(field.a, n)
    b_hat = _hat(field.b, n)
    s = INFINITY_CHART.var("s")
    t = INFINITY_CHART.var("t")
    return (-s * a_hat, -t * a_hat + b_hat)


def q_polynomial(field: PlanarField) -> Poly:
    """The homogeneous form Q = x*b_n - y*a_n of degree n+1 (possibly zero)."""
    n = field.degree
    x, y = field.chart.vars()
    return x * field.b.homogeneous_part(n) - y * field.a.homogeneous_part(n)


def _restrict_to_line(p: Poly) -> Poly:
    """Evaluate a polynomial on the infinity chart at s = 0, as a poly in t."""
    acc = {(et,): coeff for (es, et), coeff in p._num.items() if es == 0}
    return Poly._lowest(LINE_CHART, acc, p._den)


def _eval_mod(coeffs: Sequence[int], x: int, m: int) -> int:
    """The polynomial with ascending integer ``coeffs`` at x, mod m (Horner)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _gcd_mod(a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
    """gcd of two polynomials over GF(q), q prime, by Euclid on ascending
    coefficient lists; the zero polynomial is the empty list."""
    a, b = ([c % q for c in p] for p in (a, b))
    for p in (a, b):
        while p and p[-1] == 0:
            p.pop()
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            factor = a[-1] * inv % q
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - factor * c) % q
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return a


def rational_roots(p: Poly) -> List[Fraction]:
    """All rational roots of a nonzero univariate polynomial, sorted.

    Works on the squarefree part f (integer, primitive, positive leading
    coefficient ``lead``) at one prime q: the least odd prime that does
    not divide ``lead`` and modulo which f stays squarefree (gcd(f, f')
    mod q is constant).  Every residue mod q is tried as a root; each root
    found is lifted by Newton's iteration mod q^(2^k) until the modulus M
    exceeds 2 (lead + max|c_i|), and ``lead`` times the lift, read in
    (-M/2, M/2], is the numerator of the candidate n/lead, kept only if f
    vanishes there exactly.  By the rational root theorem the numerator
    of n/lead in lowest terms divides f(0), so a candidate that fails
    this integer test is dropped before the exact evaluation.

    Why it is exact: a root a/b has b | lead, and q does not divide lead,
    so a/b has a residue mod q, which is a root of f mod q.  That root is
    simple, as f is squarefree mod q, so it lifts to exactly one q-adic
    root, which is a/b.  By Cauchy's bound |lead * a/b| <= lead + max|c_i|
    < M/2, so the symmetric residue is the true numerator.  The lifts of
    irrational roots fail the exact check.

    Cost: all arithmetic is on integers.  Every odd prime below q divides
    lead * disc f, so q is O(log |lead * disc f|), that is O(deg f * bits);
    the scan takes q evaluations mod q and each lift O(log bits) Newton
    steps, so the time grows with the bit lengths of the coefficients, not
    with their magnitudes.
    """
    if p.chart.size != 1:
        raise ValueError("rational root search needs one variable")
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes everywhere")
    sqf = squarefree_part(p)
    degree = sqf.total_degree()
    if degree == 0:
        return []
    f = [sqf._num.get((k,), 0) for k in range(degree + 1)]
    df = [k * c for k, c in enumerate(f)][1:]
    lead = f[-1]
    q = 3
    while (
        any(q % d == 0 for d in range(3, math.isqrt(q) + 1, 2))
        or lead % q == 0
        or len(_gcd_mod(f, df, q)) > 1
    ):
        q += 2
    bound = 2 * (lead + max(abs(c) for c in f))
    roots: List[Fraction] = []
    for r in range(q):
        if _eval_mod(f, r, q):
            continue
        m = q
        while m <= bound:
            m *= m
            r = (r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
        n = lead * r % m
        if 2 * n > m:
            n -= m
        root = Fraction(n, lead)
        # the numerator of a root divides f(0), and 0 is a root only when f(0) = 0
        a = root.numerator
        if (f[0] % a if a else f[0]) == 0 and sqf.evaluate([root]) == 0:
            roots.append(root)
    return sorted(roots)


# A dataclass, unlike the other value types: tests rebuild reports with
# ``dataclasses.replace``.  It is why a ``planar`` call loads ``dataclasses``.
@dataclass(frozen=True)
class InfinityReport:
    """Everything this package knows about a field along the line at infinity.

    ``w_s`` and ``w_t`` are the rescaled field with the content of the
    pair (s when Q = 0, else 1; see the module docstring) divided out;
    ``sing_infinity`` is the squarefree part of Q when the line is
    invariant and None otherwise; ``rational_points`` lists rational
    projective points [x : y] of Q on the line at infinity.
    """

    field: PlanarField
    w_s: Poly
    w_t: Poly
    p_restricted: Poly
    q_form: Poly
    line_invariant: bool
    sing_infinity: Optional[Poly]
    rational_points: Tuple[Tuple[Fraction, Fraction], ...]


def infinity_analysis(field: PlanarField) -> InfinityReport:
    """Rescale to the chart at infinity and classify the line there."""
    w_s, w_t = to_infinity_chart(field)
    p_line = _restrict_to_line(w_t)
    q = q_polynomial(field)
    invariant = not q.is_zero()

    sing = None
    points: List[Tuple[Fraction, Fraction]] = []
    if invariant:
        sing = squarefree_part(q)
        for root in rational_roots(p_line):
            points.append((Fraction(1), root))
        if q.evaluate([0, 1]) == 0:
            points.append((Fraction(0), Fraction(1)))
    else:  # the pair's content is s (see the module docstring)
        w_s, w_t = (divexact(w, INFINITY_CHART.var("s")) for w in (w_s, w_t))
    return InfinityReport(
        field=field,
        w_s=w_s,
        w_t=w_t,
        p_restricted=p_line,
        q_form=q,
        line_invariant=invariant,
        sing_infinity=sing,
        rational_points=tuple(points),
    )


CONSISTENT = "consistent"
EXCLUDED = "excluded"


def invariant_curve_constraint(curve: Poly, field: PlanarField) -> str:
    """Necessary condition for ``curve = 0`` to be invariant under the field.

    Requires a non-constant curve and Q nonzero.  Returns "consistent"
    when the squarefree part of the curve's top form divides the
    squarefree part of Q, and "excluded" otherwise; an excluded curve
    cannot be invariant, while a consistent one merely survives this
    test.
    """
    if curve.chart != field.chart:
        raise ChartMismatchError("curve on a different chart")
    if curve.is_zero() or curve.is_constant():
        raise ValueError("need a non-constant curve")
    q = q_polynomial(field)
    if q.is_zero():
        raise ValueError("the line at infinity is not invariant (Q = 0); no constraint applies")
    top = curve.homogeneous_part(curve.total_degree())
    if divides(squarefree_part(top), squarefree_part(q)):
        return CONSISTENT
    return EXCLUDED
