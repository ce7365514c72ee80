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
``rational_roots`` finds them by exact real-root isolation: a Sturm
sequence of the squarefree part separates the real roots in dyadic
intervals, each interval is split by sign until at most one fraction
with a small enough denominator can be its root, and that fraction is
checked by exact evaluation.  Everything runs on integers, and the
number of steps grows with the bit lengths of the coefficients, not
with their magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
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


def _sign_at(coeffs: Sequence[int], num: int, den: int) -> int:
    """Sign of the polynomial with ascending integer ``coeffs`` at num/den, den > 0.

    Evaluates den^d * f(num/den) by homogeneous Horner, in integers only.
    """
    acc = 0
    power = 1
    for c in reversed(coeffs):
        acc = acc * num + c * power
        power *= den
    return (acc > 0) - (acc < 0)


def _sturm_sequence(f: List[int]) -> List[List[int]]:
    """Sturm sequence of a squarefree f: f, f' and the negated remainders.

    Each remainder comes from integer pseudo-division and is divided by
    its content; only positive factors are dropped, so every sign, and
    hence every variation count, is that of the classical sequence.
    """
    seq = [f, [k * c for k, c in enumerate(f)][1:]]
    while len(seq[-1]) > 1:
        r, b = list(seq[-2]), seq[-1]
        sign = -1  # the sign of the factor that turns r into -rem(a, b)
        while len(r) >= len(b):
            lead_r = r.pop()
            shift = len(r) - len(b) + 1
            r = [b[-1] * c for c in r]
            for i, c in enumerate(b[:-1]):
                r[shift + i] -= lead_r * c
            if b[-1] < 0:
                sign = -sign
            while r and r[-1] == 0:
                r.pop()
        g = reduce(math.gcd, r, 0)
        seq.append([sign * c // g for c in r])
    return seq


def _variations(seq: List[List[int]], num: int, den: int) -> int:
    """Sign changes along the Sturm sequence at num/den, zeros skipped."""
    count = 0
    last = 0
    for g in seq:
        s = _sign_at(g, num, den)
        if s:
            if last and s != last:
                count += 1
            last = s
    return count


def _split(lo: int, hi: int, k: int) -> Tuple[int, int, int, int]:
    """Split the dyadic interval (lo/2^k, hi/2^k); returns (lo, mid, hi, k) on one scale.

    The split is at 0 when the interval spans it, and at a power of two
    near the geometric mean when one end is more than 4 times the other,
    so that a root is found in O(log bits) steps whatever its magnitude;
    otherwise it is the midpoint.
    """
    if lo < 0 < hi:
        return lo, 0, hi, k
    small, large = sorted((abs(lo), abs(hi)))
    if large > 4 * max(small, 1):
        mid = 1 << ((small.bit_length() + large.bit_length()) // 2)
        return lo, mid if hi > 0 else -mid, hi, k
    return 2 * lo, lo + hi, 2 * hi, k + 1


def _refine(f: List[int], lo: int, hi: int, k: int) -> List[Fraction]:
    """The rational root, if any, of f in (lo/2^k, hi/2^k).

    The interval must hold exactly one root of the squarefree f and no
    root at its ends.  Distinct rationals with denominators at most
    ``lead = f[-1]`` lie at least 1/lead^2 apart, so once the interval
    is narrower than 1/(2 lead^2) the only such rational near the
    midpoint that can be the root is ``limit_denominator(lead)`` of it.
    It still has to lie inside the interval: a rational root of f just
    outside it may be that close to an irrational root inside.
    """
    lead = f[-1]
    s_lo = _sign_at(f, lo, 1 << k)
    while (hi - lo) * 2 * lead * lead >= 1 << k:
        lo, mid, hi, k = _split(lo, hi, k)
        s_mid = _sign_at(f, mid, 1 << k)
        if s_mid == 0:
            return [Fraction(mid, 1 << k)]
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    cand = Fraction(lo + hi, 1 << (k + 1)).limit_denominator(lead)
    inside = Fraction(lo, 1 << k) < cand < Fraction(hi, 1 << k)
    if inside and _sign_at(f, cand.numerator, cand.denominator) == 0:
        return [cand]
    return []


def rational_roots(p: Poly) -> List[Fraction]:
    """All rational roots of a nonzero univariate polynomial, sorted.

    Exact real-root isolation on the squarefree part f (integer, primitive,
    positive leading coefficient ``lead``).  A Sturm sequence counts the
    roots in dyadic intervals, split (see ``_split``) from the Cauchy
    bound until each interval holds one root; a split point that is itself
    a root is recorded and stepped around.  Each one-root interval is then
    split by sign below width 1/(2 lead^2), where at most one fraction
    with denominator <= lead can be the root; it is kept only if it lies
    in the interval and f vanishes there.

    Cost: all arithmetic is on integers.  Finding a root's magnitude takes
    O(log bits) splits, and refining it about log2(|root| * lead^2) more
    sign evaluations of f, so the time grows with the bit lengths of the
    coefficients and of the root separations, not with their magnitudes.
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
    seq = _sturm_sequence(f)
    # Cauchy: every root has |r| < 1 + max|c_i| / lead < 2^bits
    bits = (max(abs(c) for c in f) // f[-1] + 2).bit_length()
    lo, hi = -(1 << bits), 1 << bits
    roots: List[Fraction] = []
    # dyadic intervals (lo/2^k, hi/2^k) with their end variations; no end is a root
    stack = [(lo, hi, 0, _variations(seq, lo, 1), _variations(seq, hi, 1))]
    while stack:
        lo, hi, k, v_lo, v_hi = stack.pop()
        count = v_lo - v_hi
        if count == 1:
            roots.extend(_refine(f, lo, hi, k))
        if count <= 1:
            continue
        lo, mid, hi, k = _split(lo, hi, k)
        if _sign_at(f, mid, 1 << k) != 0:
            v_mid = _variations(seq, mid, 1 << k)
            stack += [(lo, mid, k, v_lo, v_mid), (mid, hi, k, v_mid, v_hi)]
            continue
        roots.append(Fraction(mid, 1 << k))
        # halve the gap around the root until it is the only one inside
        while True:
            mid, lo, hi, k = 2 * mid, 2 * lo, 2 * hi, k + 1
            v_left = _variations(seq, mid - 1, 1 << k)
            v_right = _variations(seq, mid + 1, 1 << k)
            if v_left - v_right == 1 and _sign_at(f, mid - 1, 1 << k) != 0:
                break
        stack += [(lo, mid - 1, k, v_lo, v_left), (mid + 1, hi, k, v_right, v_hi)]
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
