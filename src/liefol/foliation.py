"""Algebraic foliations presented by generating vector fields.

Everything here happens at the generic point: rank means rank over the
rational function field and span membership is exact linear algebra
there, answered by fraction-free elimination on polynomial rows
(``linalg``).  One elimination per foliation: ``FoliationGens.span``
eliminates the generators once, on first use, into a ``linalg.RowSpace``
and keeps it.  The rank is its number of pivots, the involutivity and
invariance tests ask it about every bracket, and the singular locus
reads most maximal minors off its reduced form.  The locus is cut out by
those minors after the codimension-one part common to all of them is
divided away; a family with no nonzero maximal minor is dependent.

The two geometric constructions are ``tangent_foliation`` — the kernel
of the Jacobian of a dominant rational map — and the invariance tests:
a foliation is invariant under a field when all brackets of the field
with generators stay inside the generic span; a squarefree hypersurface
is invariant under a rank-one field exactly when its equation divides
its own derivative along the saturated generator.  The kernel basis
comes out of the Jacobian's elimination as content-one polynomial
vectors already in reduced form, with the Jacobian's free columns as
pivots, so a tangent foliation takes them as its generators and its span
as they are: the Jacobian's is its only elimination.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from . import _Frozen, linalg
from .liecalc import VectorField, _along, lie_bracket
from .poly import (
    Chart,
    ChartMismatchError,
    Poly,
    RatFunc,
    _as_ratfunc,
    content,
    divexact,
    divides,
    glex_key,
    normalize,
    poly_det,
    squarefree_part,
)


def saturate_rank1(v: VectorField) -> VectorField:
    """The content-one polynomial representative of the direction of v.

    Denominators are multiplied out and the GCD of the resulting
    coefficients divided away; the result generates the same rank-one
    subsheaf saturated in the tangent sheaf.
    """
    if v.is_zero():
        raise ValueError("the zero field spans no direction")
    polys = linalg.clear_to_polynomials(v.coefficients)
    return VectorField.from_coefficients(v.chart, polys)


def same_rank1_foliation(v: VectorField, w: VectorField) -> bool:
    """Do two nonzero fields span the same direction over the function field?"""
    if v.chart != w.chart:
        raise ChartMismatchError("fields on different charts")
    if v.is_zero() or w.is_zero():
        raise ValueError("proportionality is only defined for nonzero fields")
    return linalg.rank([v.coefficients, w.coefficients]) == 1


class FoliationGens(_Frozen):
    """A non-empty family of generating fields, stored saturated.

    Each admitted generator is cleared to polynomial coefficients of
    content one (zero fields are rejected); generators need not be
    independent.  The memo slot ``_span`` holds ``span`` once it is
    built (``tangent_foliation`` builds it with the foliation); equality,
    hash and repr ignore it.
    """

    __slots__ = ("chart", "generators", "_span")

    def __init__(self, chart: Chart, generators: Sequence[VectorField]) -> None:
        if not generators:
            raise ValueError("a foliation needs at least one generator")
        cleaned = []
        for g in generators:
            if g.chart != chart:
                raise ChartMismatchError("generator on a different chart")
            if g.is_zero():
                raise ValueError("zero generator")
            cleaned.append(saturate_rank1(g))
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "generators", tuple(cleaned))
        object.__setattr__(self, "_span", None)

    @classmethod
    def _trusted(
        cls, chart: Chart, generators: Sequence[Sequence[Poly]], span: linalg.RowSpace
    ) -> "FoliationGens":
        """Wrap polynomial generators and their span built by the caller,
        skipping saturation and elimination.

        The caller guarantees that each generator is nonzero with content
        one on ``chart`` (``saturate_rank1`` would return it unchanged), and
        that ``span`` is their reduced row space whose common pivot is
        exactly the determinant of the generators on its pivot columns, as
        ``singular_locus`` reads minors off it.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "chart", chart)
        object.__setattr__(
            obj, "generators", tuple(VectorField.from_coefficients(chart, g) for g in generators)
        )
        object.__setattr__(obj, "_span", span)
        return obj

    @property
    def span(self) -> linalg.RowSpace:
        """The generic span of the generators in reduced fraction-free
        echelon form, eliminated on first use and kept."""
        if self._span is None:
            object.__setattr__(
                self, "_span", linalg.RowSpace([g.coefficients for g in self.generators])
            )
        return self._span


def generic_rank(fol: FoliationGens) -> int:
    """Rank of the coefficient matrix over the rational function field."""
    return len(fol.span.pivots)


class InvolutivityResult(NamedTuple):
    ok: bool
    witness: Optional[VectorField]  # a bracket outside the generic span


def is_involutive(fol: FoliationGens) -> InvolutivityResult:
    """Are all pairwise brackets of generators inside the generic span?"""
    span = fol.span
    for i, gi in enumerate(fol.generators):
        for gj in fol.generators[i + 1 :]:
            br = lie_bracket(gi, gj)
            if br.coefficients not in span:
                return InvolutivityResult(False, br)
    return InvolutivityResult(True, None)


class InvarianceResult(NamedTuple):
    ok: bool
    witness: Optional[VectorField]


def is_invariant_subsheaf(fol: FoliationGens, v: VectorField) -> InvarianceResult:
    """Does bracketing with ``v`` preserve the generic span of the foliation?"""
    if v.chart != fol.chart:
        raise ChartMismatchError("field on a different chart")
    span = fol.span
    for g in fol.generators:
        br = lie_bracket(v, g)
        if br.coefficients not in span:
            return InvarianceResult(False, br)
    return InvarianceResult(True, None)


class SingularIdeal(_Frozen):
    """Generators for the locus where the generators drop rank.

    Normalized: the common content of the minors is divided away, each
    generator is sign-normalized, duplicates are removed, and the tuple
    is sorted in descending graded-lex order.  ``(1)`` means the locus
    is empty.
    """

    __slots__ = ("chart", "generators")

    def __init__(self, chart: Chart, generators: Tuple[Poly, ...]) -> None:
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "generators", generators)

    def is_trivial(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.generators)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def singular_locus(fol: FoliationGens) -> SingularIdeal:
    """Ideal of maximal minors of an independent generator family, with the
    common codimension-one factor removed.

    Requires the generators to be generically independent (rank equal to
    their number); a dependent family, whose maximal minors all vanish,
    has no well-defined minor ideal.

    Most minors are read off the reduced form R of ``fol.span``, with
    pivot columns P and common pivot d = ±det A_P: R = d·A_P⁻¹·A, so
    det R_S = ±d^(p-1)·det A_S for the generator matrix A.  A column set
    S with k = |S∖P| columns off the pivots has det A_S = ±d when k = 0,
    and ±R[i][j] when k = 1, where row i has the pivot S leaves out and j
    is the column S adds.  For k ≥ 2 one Bareiss determinant of A_S
    costs less than the k×k block of R, whose entries are p×p minors of
    A, divided by d^(k-1).  The normalization below drops the signs.
    """
    p = len(fol.generators)
    span = fol.span
    # some maximal minor is nonzero exactly when the rank is p
    if len(span.pivots) < p:
        raise ValueError("generators are dependent at the generic point")
    rows, pivots, den = span.rows, span.pivots, span.den
    matrix = [g.polynomial_coefficients() for g in fol.generators]
    minors: List[Poly] = []
    for cols in combinations(range(fol.chart.size), p):
        free = [c for c in cols if c not in pivots]
        if not free:
            minor = den
        elif len(free) == 1:
            minor = next(row[free[0]] for row, c in zip(rows, pivots) if c not in cols)
        else:
            minor = poly_det([[row[c] for c in cols] for row in matrix])
        if not minor.is_zero():
            minors.append(minor)
    common = content(minors)
    reduced = []
    for m in minors:
        q = normalize(divexact(m, common))
        if q not in reduced:
            reduced.append(q)
    if any(q.is_constant() for q in reduced):
        reduced = [Poly.one(fol.chart)]
    reduced.sort(key=lambda q: glex_key(q.leading_term()[0]), reverse=True)
    return SingularIdeal(fol.chart, tuple(reduced))


def tangent_foliation(components: Sequence[Union[RatFunc, Poly]], chart: Chart) -> FoliationGens:
    """Foliation tangent to the fibres of a dominant rational map.

    ``components`` are the coordinate functions of the map; the
    generators returned span the kernel of its Jacobian over the
    rational function field, cleared to content-one polynomial fields.
    The Jacobian must have full rank (= number of components) at the
    generic point, and the map must have positive-dimensional fibres.
    """
    comps = [_as_ratfunc(chart, c) for c in components]
    if not comps:
        raise ValueError("a map needs at least one component")
    m = len(comps)
    n = chart.size
    kernel, free = linalg._kernel([[c.partial(k) for k in range(n)] for c in comps])
    r = n - len(kernel)
    if r != m:
        raise ValueError(
            f"map is not dominant onto its {m}-dimensional target (Jacobian rank {r})"
        )
    if m == n:
        raise ValueError("map has finite generic fibres; the tangent foliation is zero")
    return FoliationGens._trusted(chart, kernel, linalg.RowSpace._diagonal(kernel, free))


def invariant_hypersurface(f: Poly, v: VectorField) -> bool:
    """Is the squarefree hypersurface f = 0 invariant under the flow of v?

    True exactly when f divides the derivative of f along the saturated
    polynomial representative of v.
    """
    if f.chart != v.chart:
        raise ChartMismatchError("hypersurface on a different chart")
    if f.is_zero() or f.is_constant():
        raise ValueError("need a non-constant equation")
    if squarefree_part(f) != normalize(f):
        raise ValueError("equation must be squarefree")
    w = saturate_rank1(v)
    derivative = _along(w.polynomial_coefficients(), f)
    return derivative.is_zero() or divides(f, derivative)
