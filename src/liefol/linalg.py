"""Exact linear algebra over the rational function field of a chart.

Each row is first scaled to polynomials by its common denominator,
which changes no rank, span or kernel; then one fraction-free (Bareiss)
elimination, ``poly.bareiss``, answers every question without a gcd.
``RowSpace`` holds the reduced form, cleared above the pivots too; its
rank, ``rref``, ``kernel_basis`` and span membership read it, so a
family of span questions about one matrix costs one elimination.  The
one unreduced elimination, below the pivots only, is ``poly.poly_det``'s.
A declared foliation keeps the ``RowSpace`` of its generators
(``foliation.FoliationGens.span``): one elimination per foliation
answers its rank, involutivity and invariance, and gives most maximal
minors of its singular locus.

The only elimination of a tangent foliation is its Jacobian's: ``_kernel``
hands back the Jacobian's ``RowSpace`` with the kernel vectors, and the
foliation's span is that kernel, whose rank is n − rank J.  It also hands
back the content it divided out of each vector, and divides only by a
content that is not 1.  Every nonzero kernel entry is a maximal minor of
the Jacobian, so these contents are multiples of the common content of
the singular locus, and one content of 1 settles it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .poly import (
    Poly,
    RatFunc,
    _dot,
    _normalizer,
    bareiss,
    clear_denominators,
    content,
    divexact,
)

Matrix = Sequence[Sequence[RatFunc]]


def _cleared(rows: Matrix) -> List[Tuple[Poly, ...]]:
    """Each row scaled to polynomials by its own common denominator."""
    if any(not row for row in rows):
        raise ValueError("a matrix row needs at least one entry")
    return [clear_denominators(row) for row in rows]


class RowSpace:
    """The row space of a matrix over the function field, as its reduced
    fraction-free echelon form: polynomial ``rows``, ``pivots`` columns
    p_i and common pivot ``den`` d (None without pivots).  Every pivot
    equals d and is the only nonzero entry of its column."""

    def __init__(self, rows: Matrix) -> None:
        self._eliminate(_cleared(rows))

    @classmethod
    def _polynomial(cls, rows: Sequence[Sequence[Poly]]) -> "RowSpace":
        """The row space of rows that are already polynomial, so that a
        caller who keeps them clears them once."""
        space = object.__new__(cls)
        space._eliminate(rows)
        return space

    def _eliminate(self, rows: Sequence[Sequence[Poly]]) -> None:
        self.rows, self.pivots, _ = bareiss(rows, True)
        self.den = self.rows[0][self.pivots[0]] if self.pivots else None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def __contains__(self, vector: Sequence[RatFunc]) -> bool:
        """v is a combination of the rows exactly when, with its denominators
        cleared, d·v[j] = Σ v[p_i]·row_i[j] at every non-pivot column j."""
        v = clear_denominators(vector)
        if self.rows and len(v) != len(self.rows[0]):
            raise ValueError("vector length differs from the row length")
        if not self.pivots:
            return all(p.is_zero() for p in v)
        den, neg = self.den, [-v[p] for p in self.pivots]
        return all(
            _dot(den.chart, [(den, v[j]), *zip(neg, (row[j] for row in self.rows))]).is_zero()
            for j in range(len(v))
            if j not in self.pivots
        )


def rref(rows: Matrix) -> Tuple[List[List[RatFunc]], List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    space = RowSpace(rows)
    return [[RatFunc(p, space.den) for p in row] for row in space.rows], space.pivots


def kernel_basis(rows: Matrix) -> List[List[RatFunc]]:
    """Basis of the right kernel {u : rows . u = 0}: for each non-pivot
    column, a polynomial vector of content one whose entry there is
    integer-primitive with positive leading coefficient."""
    basis = _kernel(_cleared(rows))[0]
    return [[RatFunc(p) for p in vec] for vec in basis]


def _kernel(
    rows: Sequence[Sequence[Poly]],
) -> Tuple[List[Tuple[Poly, ...]], RowSpace, List[Poly]]:
    """``kernel_basis`` of polynomial rows as polynomial vectors, with the
    rows' own space and the content g divided out of each vector.

    The vector of a non-pivot column f has d at f and −R[i][f] at pivot
    p_i, and ``contents`` holds the normalized gcd g of those nonzero
    entries, one per vector.  The entries are divided by g only when g is
    not 1, and then scaled by the one rational unit that normalizes the
    entry at f, only when that unit is not 1: a content of 1 costs no
    division.
    """
    if not rows:
        raise ValueError("kernel of an empty matrix is ambiguous; pass at least one row")
    space = RowSpace._polynomial(rows)
    m, pivots = space.rows, space.pivots
    den = space.den if pivots else Poly.one(m[0][0].chart)
    basis: List[Tuple[Poly, ...]] = []
    contents: List[Poly] = []
    for f in (c for c in range(len(m[0])) if c not in pivots):
        vec = [Poly.zero(den.chart)] * len(m[0])
        vec[f] = den
        for row, col in zip(m, pivots):
            vec[col] = -row[f]
        g = content([p for p in vec if not p.is_zero()])
        if not g.is_one():
            vec = [divexact(p, g) for p in vec]
        a, b = _normalizer(vec[f])
        if a != b:
            vec = [p._scaled(a, b) for p in vec]
        basis.append(tuple(vec))
        contents.append(g)
    return basis, space, contents


def clear_to_polynomials(vector: Sequence[RatFunc]) -> Tuple[Poly, ...]:
    """Scale a nonzero rational vector to polynomial entries with content 1:
    multiply out the common denominator, then divide away the entries' GCD."""
    vec = tuple(vector)
    if all(v.is_zero() for v in vec):
        raise ValueError("cannot normalize the zero vector")
    polys = clear_denominators(vec)
    g = content([p for p in polys if not p.is_zero()])
    return tuple(p if p.is_zero() else divexact(p, g) for p in polys)
