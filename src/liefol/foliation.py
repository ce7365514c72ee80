"""Algebraic foliations presented by generating vector fields.

Everything here happens at the generic point: rank means rank over the
rational function field and span membership is exact linear algebra
there, answered by fraction-free elimination on polynomial rows
(``linalg``).  One span per foliation, kept in ``FoliationGens.span``:
a declared foliation eliminates its generators once, on first use, into
a ``linalg.RowSpace``.  The rank is its number of pivots, the
involutivity and invariance tests ask it about every bracket, and the
singular locus reads most maximal minors off its reduced form.  The
locus is cut out by those minors after the codimension-one part common
to all of them is divided away; a family with no nonzero maximal minor
is dependent.

The two geometric constructions are ``tangent_foliation`` — the kernel
of the Jacobian of a dominant rational map — and the invariance tests:
a foliation is invariant under a field when all brackets of the field
with generators stay inside the generic span; a squarefree hypersurface
is invariant under a rank-one field exactly when its equation divides
its own derivative along the saturated generator.  The kernel basis
comes out of the Jacobian's elimination as content-one polynomial
vectors, so a tangent foliation takes them as its generators as they
are: the Jacobian's is its only elimination.

The span of a tangent foliation is ker J itself: the components
φ_1..φ_m, the Jacobian J (m×n, rows cleared to polynomials) and J's
reduced form.  Its rank is n − rank J, and three identities let it
answer the other queries through φ and J, whose rows are of far lower
degree than the p×n kernel generators A (n = p + m):

- The p×p minors of A are its Plücker coordinates, and those of the
  kernel are the Hodge duals of the row space's: det A_S = ±λ·det J_T,
  with T the complement of S, for one nonzero λ.  So the m×m minors of J
  cut out the same singular locus once the common content is divided
  away.  The kernel vectors' entries are such minors, so the common
  content divides every content the kernel divided out, and one content
  of 1 makes it 1 without a gcd.
- ker dφ is the set of fields that annihilate every φ_i, and for g in it
  [v, g](φ_i) = v(g(φ_i)) − g(v(φ_i)) = −g(v(φ_i)).  So the span is
  invariant under v exactly when every generator annihilates every
  h_i = v(φ_i), and no bracket is needed unless one does not.
- For X, Y in ker dφ, [X, Y](φ_i) = X(Y(φ_i)) − Y(X(φ_i)) = 0, so the
  span is involutive (Frobenius) and takes no bracket at all.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, NamedTuple, Sequence, Tuple, Union

from . import _Frozen, linalg
from .liecalc import Verdict, VectorField, _along, _derive, _derive_numerator, lie_bracket
from .poly import (
    Chart,
    ChartMismatchError,
    Poly,
    RatFunc,
    _as_ratfunc,
    _common_denominator,
    clear_denominators,
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


class _MapKernel(NamedTuple):
    """The span of a tangent foliation, ker J of the map it came from, as
    ``tangent_foliation`` eliminated it: the components φ_i, the Jacobian
    rows J cleared to polynomials, their reduced row space, and the
    normalized content divided out of each kernel vector, in generator
    order.  Each content is the gcd of some m×m minors of J, so the common
    content of all of them divides it.  It answers ``rank`` as a
    ``linalg.RowSpace`` does; membership is never asked of it, since every
    query on a tangent foliation answers through φ and J."""

    components: Tuple[RatFunc, ...]
    rows: List[Tuple[Poly, ...]]
    space: linalg.RowSpace
    contents: List[Poly]

    @property
    def rank(self) -> int:
        return len(self.rows[0]) - len(self.space.pivots)


class FoliationGens(_Frozen):
    """A non-empty family of generating fields, stored saturated.

    Each admitted generator is cleared to polynomial coefficients of
    content one (zero fields are rejected); generators need not be
    independent.  The memo slot ``_span`` holds ``span`` once it is
    built; ``tangent_foliation`` fills it with the kernel of its map's
    Jacobian.  Equality, hash and repr ignore it, and a copy is built
    without it.
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
        cls,
        chart: Chart,
        generators: Sequence[Sequence[Poly]],
        span: _MapKernel,
    ) -> "FoliationGens":
        """Wrap the kernel generators of a map's Jacobian and their span,
        the kernel, both built by the caller, skipping saturation and
        elimination.

        The caller guarantees that each generator is nonzero with content
        one on ``chart`` (``saturate_rank1`` would return it unchanged), that
        the generators are a basis of the kernel of ``span.rows``, and that
        ``span.space`` is those rows' reduced form whose common pivot is
        exactly the determinant of the rows on its pivot columns, as
        ``singular_locus`` reads minors off it, and that ``span.contents``
        holds the normalized gcd of the nonzero entries of each kernel
        vector before it was divided out: ``singular_locus`` takes the
        common content of its minors as 1 when one of them is 1.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "chart", chart)
        object.__setattr__(
            obj, "generators", tuple(VectorField.from_coefficients(chart, g) for g in generators)
        )
        object.__setattr__(obj, "_span", span)
        return obj

    @property
    def span(self) -> Union[linalg.RowSpace, _MapKernel]:
        """The generic span of the generators: ker J for a tangent
        foliation, which answers its rank, otherwise their reduced
        fraction-free echelon form, eliminated on first use and kept,
        which also answers membership."""
        if self._span is None:
            object.__setattr__(
                self, "_span", linalg.RowSpace([g.coefficients for g in self.generators])
            )
        return self._span


def generic_rank(fol: FoliationGens) -> int:
    """Rank of the coefficient matrix over the rational function field."""
    return fol.span.rank


def is_involutive(fol: FoliationGens) -> Verdict:
    """Are all pairwise brackets of generators inside the generic span?

    The witness is the first bracket that leaves the span.  A tangent
    foliation, ker dφ, is involutive by construction: for X, Y in it,
    [X, Y](φ_i) = X(Y(φ_i)) − Y(X(φ_i)) = 0, so it takes no bracket.
    """
    span = fol.span
    if isinstance(span, _MapKernel):
        return Verdict(True, None)
    for i, gi in enumerate(fol.generators):
        for gj in fol.generators[i + 1 :]:
            br = lie_bracket(gi, gj)
            if br.coefficients not in span:
                return Verdict(False, br)
    return Verdict(True, None)


def is_invariant_subsheaf(fol: FoliationGens, v: VectorField) -> Verdict:
    """Does bracketing with ``v`` preserve the generic span of the foliation?

    The witness is [v, g] for the first generator g whose bracket leaves
    the span.  A tangent foliation, the kernel of dφ, tests each g by
    [v, g](φ_i) = −g(v(φ_i)): the bracket is in the span exactly when g
    annihilates every h_i = v(φ_i), so only a witness takes a bracket.
    """
    if v.chart != fol.chart:
        raise ChartMismatchError("field on a different chart")
    span = fol.span
    if isinstance(span, _MapKernel):
        qv, pv = _common_denominator(v.coefficients)
        # a zero h_i is annihilated by every generator: only the others are tested
        images = [h for f in span.components if (h := _derive(qv, pv, f))]
        for g in fol.generators:
            # generators are stored polynomial; g(h) = 0 exactly when its
            # numerator is, so no quotient is formed
            pg = [c.num for c in g.coefficients]
            if any(_derive_numerator(pg, h) for h in images):
                return Verdict(False, lie_bracket(v, g))
        return Verdict(True, None)
    for g in fol.generators:
        br = lie_bracket(v, g)
        if br.coefficients not in span:
            return Verdict(False, br)
    return Verdict(True, None)


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

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def _minor(
    matrix: Sequence[Sequence[Poly]], space: linalg.RowSpace, cols: Sequence[int]
) -> Poly:
    """±det of ``matrix`` (r×n, rank r) on the r columns ``cols``, read off
    its reduced form ``space`` where that is cheaper.

    With pivot columns P and common pivot d = ±det M_P, the reduced form
    is R = d·M_P⁻¹·M, so det R_C = ±d^(r-1)·det M_C.  A column set C with
    k = |C∖P| columns off the pivots has det M_C = ±d when k = 0, and
    ±R[i][j] when k = 1, where row i has the pivot C leaves out and j is
    the column C adds.  For k ≥ 2 one Bareiss determinant of M_C costs
    less than the k×k block of R, whose entries are r×r minors of M,
    divided by d^(k-1).
    """
    free = [c for c in cols if c not in space.pivots]
    if not free:
        return space.den
    if len(free) == 1:
        return next(row[free[0]] for row, c in zip(space.rows, space.pivots) if c not in cols)
    return poly_det([[row[c] for c in cols] for row in matrix])


def singular_locus(fol: FoliationGens) -> SingularIdeal:
    """Ideal of maximal minors of an independent generator family, with the
    common codimension-one factor removed.

    Requires the generators to be generically independent (rank equal to
    their number); a dependent family, whose maximal minors all vanish,
    has no well-defined minor ideal.

    The p×p minors det A_S of the generator matrix A are read off
    ``fol.span`` (``_minor``).  A tangent foliation of a map with m×n
    Jacobian J takes J's m×m minor on the complement T of each S instead:
    by Plücker/Hodge duality det A_S = ±λ·det J_T for one nonzero λ, so
    after the common content is divided away both give the same
    generators, in the same order, since S runs over the same column sets
    either way.  The normalization below drops the signs.

    Every nonzero entry of a kernel vector is one of these minors of J:
    the common pivot d is the minor on the pivot columns, and R[i][f] the
    minor that swaps pivot p_i for f.  So the common content of the
    minors divides each content ``span.contents`` holds, and when one of
    them is 1 the common content is 1 without a gcd.  No minor is divided
    by a common content of 1.  The minors with at most one column off the
    pivots are the nonzero entries of the reduced form, so when one of
    those entries is constant the ideal holds a unit: the locus is (1),
    and no minor is formed.
    """
    p = len(fol.generators)
    span = fol.span
    # some maximal minor is nonzero exactly when the rank is p
    if span.rank < p:
        raise ValueError("generators are dependent at the generic point")
    n = fol.chart.size
    tangent = isinstance(span, _MapKernel)
    space = span.space if tangent else span
    # each nonzero entry of the reduced form is ± a maximal minor: a
    # constant one is a unit of the ideal, and the locus is empty
    if any(q and q.is_constant() for row in space.rows for q in row):
        return SingularIdeal(fol.chart, (Poly.one(fol.chart),))
    contents: Sequence[Poly] = ()
    if tangent:
        matrix, contents = span.rows, span.contents
        # the complements of the p-sets, in the order of the p-sets: the
        # (n - p)-sets in reverse lexicographic order
        blocks = reversed(list(combinations(range(n), n - p)))
    else:
        matrix = [g.polynomial_coefficients() for g in fol.generators]
        blocks = combinations(range(n), p)
    minors: List[Poly] = []
    for cols in blocks:
        minor = _minor(matrix, space, cols)
        if not minor.is_zero():
            minors.append(minor)
    common = Poly.one(fol.chart) if any(g.is_one() for g in contents) else content(minors)
    reduced = []
    for m in minors:
        q = normalize(m if common.is_one() else divexact(m, common))
        if q not in reduced:
            reduced.append(q)
    if any(q.is_constant() for q in reduced):
        reduced = [Poly.one(fol.chart)]
    reduced.sort(key=lambda q: glex_key(q._leading_exponents()), reverse=True)
    return SingularIdeal(fol.chart, tuple(reduced))


def tangent_foliation(components: Sequence[Union[RatFunc, Poly]], chart: Chart) -> FoliationGens:
    """Foliation tangent to the fibres of a dominant rational map.

    ``components`` are the coordinate functions of the map; the
    generators returned span the kernel of its Jacobian over the
    rational function field, cleared to content-one polynomial fields.
    The Jacobian must have full rank (= number of components) at the
    generic point, and the map must have positive-dimensional fibres.
    The foliation's span is the kernel of the Jacobian: it keeps the
    components, the Jacobian and its reduced form, so that every query
    answers through the map.
    """
    comps = tuple(_as_ratfunc(chart, c) for c in components)
    if not comps:
        raise ValueError("a map needs at least one component")
    m = len(comps)
    n = chart.size
    rows = [clear_denominators([c.partial(k) for k in range(n)]) for c in comps]
    kernel, space, contents = linalg._kernel(rows)
    r = n - len(kernel)
    if r != m:
        raise ValueError(
            f"map is not dominant onto its {m}-dimensional target (Jacobian rank {r})"
        )
    if m == n:
        raise ValueError("map has finite generic fibres; the tangent foliation is zero")
    return FoliationGens._trusted(chart, kernel, _MapKernel(comps, rows, space, contents))


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
