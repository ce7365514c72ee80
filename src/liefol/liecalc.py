"""Vector fields as derivations, Lie brackets, and formal flow series.

A vector field on a chart is a tuple of rational-function coefficients,
one per coordinate; it acts on functions as the derivation
``f -> sum_i v_i * df/dx_i``.  The bracket below is the coordinate
formula

    [v, w]_i = sum_j ( v_j * dw_i/dx_j  -  w_j * dv_i/dx_j ),

which agrees with the commutator of the two derivations; the test
suite checks that agreement through an independent composition oracle.

Both are computed over one common denominator.  Write the field as
v = P/q, with q the lcm of its coefficients' denominators and P the
polynomial numerators, and let D(h) = sum_k P_k * dh/dx_k.  Then for
f = a/b

    v(f) = (b * D(a) - a * D(b)) / (q * b^2),

where every D and the numerator are one sum of products each
(``poly._dot``), and the result is reduced to lowest terms once.  For
polynomial fields each bracket component is one such sum over the 2n
products v_j * dw_i/dx_j and -w_j * dv_i/dx_j; for rational ones it is
v(w_i) - w(v_i).

A polynomial bracket, and the flow series of a polynomial field applied
to a polynomial or a polynomial field, are one engine (``_iterates``).
When ``_Box.dense`` finds all its sums large, they run on one
``poly._Box``, which packs v once, keeps the running coefficient packed
from one order to the next and unpacks each output once; this module
never reads a key.  Otherwise a series goes one order at a time, each
order on a box of its own or in one ``_dot`` per component.  Rational
inputs take one ``_dot`` per sum.

Flow series are formal: ``exp(t v)`` applied to a function collects
``v^k(f)/k!`` as the t^k coefficient; applied to a field it collects
iterated Lie derivatives the same way.  No convergence claims are made
or needed — truncations are compared coefficient-wise.

A rational f or a rational field takes a recurrence.  For f = a/b in
lowest terms the powers v^k(f) live over powers of q and b alone:
v^k(f) = A_k / (q^e * b^m) with A_0 = a, e = 0, m = 1 and

    e = 0:   A' = b * D(A) - m * A * D(b),                      e -> 1
    e >= 1:  A' = q*b * D(A) - A * (e * b * D(q) + m * q * D(b)),  e -> e + 2

and m -> m + 1, so D(b) and D(q) are taken once and each order is two
sums of products.  For a polynomial field (q = 1) the numerators need no
reduction when gcd(b, D(b)) = 1: A' = -m * A * D(b) modulo b, so no
irreducible factor of b ever divides an A_k.  A factor p of b that does
divide D(b) = v(b) is an invariant hypersurface of v (Darboux): v(p)
vanishes on p = 0, the flow keeps p = 0, and A_k may pick up powers of
p.  Then, and for rational fields, each order is reduced once, and a
reduction that cancels something restarts the recurrence from the
reduced coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from . import _Frozen
from .poly import (
    Chart,
    ChartMismatchError,
    Poly,
    RatFunc,
    _as_ratfunc,
    _common_denominator,
    _dot,
    _series_box,
    gcd,
)

FieldLike = Union[RatFunc, Poly, int, Fraction]


class VectorField(_Frozen):
    """A derivation of the rational function field of a chart.

    The zero field is permitted (``is_zero`` flags it); several
    downstream constructions reject it explicitly.
    """

    __slots__ = ("chart", "coefficients")

    def __init__(self, chart: Chart, coefficients: Sequence[FieldLike]) -> None:
        coeffs = tuple(_as_ratfunc(chart, c) for c in coefficients)
        if len(coeffs) != chart.size:
            raise ValueError(
                f"need {chart.size} coefficients for chart {chart}, got {len(coeffs)}"
            )
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_coefficients(cls, chart: Chart, coeffs: Sequence[FieldLike]) -> "VectorField":
        return cls(chart, coeffs)

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        return cls(chart, tuple(RatFunc.zero(chart) for _ in range(chart.size)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients)

    def is_polynomial(self) -> bool:
        return all(c.is_polynomial() for c in self.coefficients)

    def polynomial_coefficients(self) -> Tuple[Poly, ...]:
        return tuple(c.as_poly() for c in self.coefficients)

    # Module structure over the function field; handy for witnesses and
    # series, not part of the geometric interface.
    def __add__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        if self.chart != other.chart:
            raise ChartMismatchError("adding fields on different charts")
        return VectorField(
            self.chart, tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, tuple(-c for c in self.coefficients))

    def scale(self, factor: FieldLike) -> "VectorField":
        return VectorField(self.chart, tuple(c * factor for c in self.coefficients))

    def __str__(self) -> str:
        from .expr import basis_names

        pieces = []
        for coeff, name in zip(self.coefficients, basis_names(self.chart)):
            if coeff.is_zero():
                continue
            pieces.append(name if coeff == 1 else f"({coeff})*{name}")
        return " + ".join(pieces) if pieces else "0"


class Verdict(NamedTuple):
    """The answer of a test of the paper: whether a foliation is
    involutive, whether it is invariant under a field, whether a map is a
    D-morphism.  ``ok`` is the answer; ``witness`` is None when it holds,
    and otherwise the field that shows it fails, where the test has one."""

    ok: bool
    witness: Optional[VectorField]


def apply_derivation(v: VectorField, f: Union[RatFunc, Poly]) -> RatFunc:
    """The derivation of ``v`` applied to a function: sum_i v_i df/dx_i."""
    g = _as_ratfunc(v.chart, f)
    return _derive(*_common_denominator(v.coefficients), g)


def _along(coeffs: Sequence[Poly], h: Poly) -> Poly:
    """D(h) = sum_k coeffs[k] * dh/dx_k, as one sum of products."""
    return _dot(h.chart, [(p, h.partial(k)) for k, p in enumerate(coeffs) if p])


def _derive_numerator(coeffs: Sequence[Poly], f: RatFunc) -> Poly:
    """For D = sum_k coeffs[k] * d/dx_k and f = a / b, the numerator
    b * D(a) - a * D(b) of D(f) over b^2, or D(a) when b is 1."""
    a, b = f.num, f.den
    da = _along(coeffs, a)
    if b.is_one():
        return da
    return _dot(a.chart, [(b, da), (-a, _along(coeffs, b))])


def _derive(q: Poly, coeffs: Sequence[Poly], f: RatFunc) -> RatFunc:
    """v(f) for the field v = coeffs / q: one reduction to lowest terms."""
    b = f.den
    return RatFunc(_derive_numerator(coeffs, f), q if b.is_one() else q * b * b)


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Coordinate Lie bracket of two fields on one chart."""
    if v.chart != w.chart:
        raise ChartMismatchError("bracket of fields on different charts")
    if v.is_polynomial() and w.is_polynomial():
        vs, ws = v.polynomial_coefficients(), w.polynomial_coefficients()
        return VectorField(v.chart, _iterates(vs, ws, 1, True)[1])
    qv, pv = _common_denominator(v.coefficients)
    qw, pw = _common_denominator(w.coefficients)
    return VectorField(
        v.chart,
        tuple(
            _derive(qv, pv, wi) - _derive(qw, pw, vi)
            for vi, wi in zip(v.coefficients, w.coefficients)
        ),
    )


def _iterates(
    vs: Sequence[Poly], base: Sequence[Poly], order: int, bracket: bool
) -> List[Tuple[Poly, ...]]:
    """h_k / k! for k = 0..order, where h_0 = ``base`` and h_(k+1) is
    v(h_k) on each function of ``base``, or [v, h_k] when ``bracket`` (and
    ``base`` is a field), for the polynomial field v = ``vs``.

    When ``poly._series_box`` gives a box for the whole computation, every
    sum and partial runs on it, over integers: v over the lcm d_v of its
    denominators and ``base`` over d_b, so h_k / k! is over
    d_b * d_v^k * k!.  Otherwise a series goes one order at a time, each a
    call at order 1 on the unscaled h_k, and an order with no box takes
    one ``_dot`` per component."""
    box = _series_box(vs, base, order)
    if box is None and order != 1:
        out, h = [tuple(base)], base
        for k in range(1, order + 1):
            h = _iterates(vs, h, 1, bracket)[1]
            out.append(tuple(hi * Fraction(1, factorial(k)) for hi in h))
        return out
    if box is None:
        neg = [-hj for hj in base] if bracket else []
        h = []
        for i, hi in enumerate(base):
            pairs = [(vj, hi.partial(j)) for j, vj in enumerate(vs) if vj]
            pairs += [(hj, vs[i].partial(j)) for j, hj in enumerate(neg) if hj]
            h.append(_dot(hi.chart, pairs))
        return [tuple(base), tuple(h)]
    vp, dv = box.pack_all(vs)
    h, den = box.pack_all(base)
    if bracket:
        # [v, h]_i = sum_j v_j * dh_i/dx_j - h_j * dv_i/dx_j
        grad_v = [box.gradient(vi) for vi in vp]
    out = [tuple(base)]
    for k in range(1, order + 1):
        prev = h
        h = []
        for i, hi in enumerate(prev):
            triples = [(vj, dhi, 1) for vj, dhi in zip(vp, box.gradient(hi))]
            if bracket:
                triples += [(hj, dvi, -1) for hj, dvi in zip(prev, grad_v[i])]
            h.append(box.dot(triples))
        den *= dv * k
        out.append(tuple(box.poly(hi, den) for hi in h))
    return out


class FlowSeries(_Frozen):
    """Truncated formal flow expansion: coefficient k is (base's) k-th
    iterated derivative divided by k!.

    ``kind`` is "function" (coefficients are RatFunc) or "field"
    (coefficients are VectorField).
    """

    __slots__ = ("kind", "order", "coefficients")

    def __init__(self, kind: str, order: int, coefficients: Tuple[object, ...]) -> None:
        if kind not in ("function", "field"):
            raise ValueError(f"bad series kind {kind!r}")
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(coefficients) != order + 1:
            raise ValueError("need order + 1 coefficients")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coefficients", coefficients)

    def coefficient(self, k: int):
        return self.coefficients[k]

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coefficients):
            body = str(c)
            if k == 0:
                parts.append(body)
            elif k == 1:
                parts.append(f"({body})*t")
            else:
                parts.append(f"({body})*t^{k}")
        return " + ".join(parts)


def flow_series_function(v: VectorField, f: Union[RatFunc, Poly], order: int) -> FlowSeries:
    """Formal expansion of f along the flow of v, truncated at ``order``.

    v^k(f) is carried as num / (q^e * b^m) over a fixed base b, so that
    only the numerator changes from one order to the next (see the
    module docstring)."""
    if order < 0:
        raise ValueError("order must be non-negative")
    chart = v.chart
    q, coeffs_v = _common_denominator(v.coefficients)
    c = _as_ratfunc(chart, f)
    if q.is_one() and c.den.is_one():
        one = Poly.one(chart)
        hs = _iterates(coeffs_v, (c.num,), order, False)
        return FlowSeries("function", order, tuple(RatFunc._trusted(h, one) for (h,) in hs))
    dq = _along(coeffs_v, q)
    coeffs = []
    for k in range(order + 1):
        if k:
            c = RatFunc._reduced(num, den) if coprime else RatFunc(num, den)
        if not k or c.den != den:
            # (re)start the recurrence from c = a/b in lowest terms
            b, num, den, e, m = c.den, c.num, c.den, 0, 1
            db, qb = _along(coeffs_v, b), q * b
            coprime = q.is_one() and gcd(b, db).is_constant()
        coeffs.append(c * Fraction(1, factorial(k)))
        if k == order:
            break
        dnum = _along(coeffs_v, num)
        if e:
            t = e * b * dq + m * q * db
            num, den, e = _dot(chart, [(qb, dnum), (num, -t)]), den * q * qb, e + 2
        else:
            # for q = 1 this step is every step, and e stays 0
            num = dnum if b.is_one() else _dot(chart, [(b, dnum), (num, -m * db)])
            if not qb.is_one():
                den, e = den * qb, 0 if q.is_one() else 1
        m += 1
    return FlowSeries("function", order, tuple(coeffs))


def flow_series_field(v: VectorField, w: VectorField, order: int) -> FlowSeries:
    """Formal expansion of a field pushed along the flow of v: the t^n
    coefficient is the n-th iterated Lie derivative of w divided by n!."""
    if v.chart != w.chart:
        raise ChartMismatchError("fields on different charts")
    if order < 0:
        raise ValueError("order must be non-negative")
    if v.is_polynomial() and w.is_polynomial():
        hs = _iterates(v.polynomial_coefficients(), w.polynomial_coefficients(), order, True)
        return FlowSeries("field", order, tuple(VectorField(v.chart, h) for h in hs))
    coeffs = []
    current = w
    for k in range(order + 1):
        coeffs.append(current.scale(Fraction(1, factorial(k))))
        if k < order:
            current = lie_bracket(v, current)
    return FlowSeries("field", order, tuple(coeffs))
