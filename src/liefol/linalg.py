"""Exact linear algebra over the rational function field of a chart.

Each row is first scaled to polynomials by its common denominator,
which changes no rank, span or kernel; then one fraction-free (Bareiss)
elimination, ``poly.bareiss``, answers every question without a gcd.
Rank and span membership eliminate below the pivots only; ``rref`` and
``kernel_basis`` also clear above them.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .poly import Poly, RatFunc, bareiss, clear_denominators, content, divexact, normalize

Matrix = Sequence[Sequence[RatFunc]]


def _eliminate(rows: Matrix, reduced: bool) -> Tuple[List[List[Poly]], List[int]]:
    return bareiss([list(clear_denominators(row)) for row in rows], reduced)[:2]


def rref(rows: Matrix) -> Tuple[List[List[RatFunc]], List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    if not rows:
        return [], []
    m, pivots = _eliminate(rows, True)
    den = m[0][pivots[0]] if pivots else None
    return [[RatFunc(p, den) for p in row] for row in m], pivots


def rank(rows: Matrix) -> int:
    return len(_eliminate(rows, False)[1])


def in_row_span(rows: Matrix, vector: Sequence[RatFunc]) -> bool:
    """Does ``vector`` lie in the row space of ``rows`` over the function field?"""
    return rank(list(rows) + [list(vector)]) == rank(rows)


def kernel_basis(rows: Matrix) -> List[List[RatFunc]]:
    """Basis of the right kernel {u : rows . u = 0}: for each non-pivot
    column, a polynomial vector of content one whose entry there is
    integer-primitive with positive leading coefficient."""
    if not rows:
        raise ValueError("kernel of an empty matrix is ambiguous; pass at least one row")
    m, pivots = _eliminate(rows, True)
    den = m[0][pivots[0]] if pivots else Poly.one(m[0][0].chart)
    basis: List[List[RatFunc]] = []
    for free in (c for c in range(len(m[0])) if c not in pivots):
        vec = [Poly.zero(den.chart)] * len(m[0])
        vec[free] = den
        for row, col in zip(m, pivots):
            vec[col] = -row[free]
        g = content([p for p in vec if not p.is_zero()])
        scale = divexact(den, normalize(divexact(den, g)))
        basis.append([RatFunc(divexact(p, scale)) for p in vec])
    return basis


def clear_to_polynomials(vector: Sequence[RatFunc]) -> Tuple[Poly, ...]:
    """Scale a nonzero rational vector to polynomial entries with content 1:
    multiply out the common denominator, then divide away the entries' GCD."""
    vec = tuple(vector)
    if all(v.is_zero() for v in vec):
        raise ValueError("cannot normalize the zero vector")
    polys = clear_denominators(vec)
    g = content([p for p in polys if not p.is_zero()])
    return tuple(p if p.is_zero() else divexact(p, g) for p in polys)
