"""Exact linear algebra over the rational-function field.

The fraction-free elimination is checked against the RatFunc
Gauss-Jordan it replaced, kept here as the reference, and the kernel's
normalization against the three divisions it replaced.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import XY, XYZ, random_poly, random_ratfunc
from liefol import (
    Chart,
    FoliationGens,
    Poly,
    RatFunc,
    VectorField,
    generic_rank,
    is_invariant_subsheaf,
    is_involutive,
    singular_locus,
    tangent_foliation,
)
from liefol import foliation as foliation_module
from liefol import linalg
from liefol import poly as poly_module
from liefol.linalg import RowSpace, clear_to_polynomials, kernel_basis, rank, rref
from liefol.poly import clear_denominators, content, divexact, normalize, poly_det

X, Y = XY.vars()


def r(p):
    return RatFunc.from_poly(p)


def test_rank_examples():
    assert rank([[r(X), r(Y)], [r(2 * X), r(2 * Y)]]) == 1
    assert rank([[r(X), r(Y)], [r(-Y), r(X)]]) == 2
    assert rank([[RatFunc.zero(XY), RatFunc.zero(XY)]]) == 0


def test_rref_pivots():
    rows, pivots = rref([[r(2 * X), r(2 * Y)], [r(X), r(Y)]])
    assert pivots == [0]
    assert rows[0] == [r(Poly.one(XY)), RatFunc(Y, X)]


def test_in_row_span():
    rows = [[r(X), r(Y)]]
    assert [r(X * Y), r(Y**2)] in RowSpace(rows)
    assert [r(Y), r(X)] not in RowSpace(rows)
    with pytest.raises(ValueError):
        [r(X)] in RowSpace(rows)


def test_kernel_orthogonality():
    rng = random.Random(41)
    for _ in range(20):
        m = [[random_ratfunc(rng, XY, 1) for _ in range(3)] for _ in range(2)]
        basis = kernel_basis(m)
        assert len(basis) == 3 - rank(m)
        for vec in basis:
            for row in m:
                dot = RatFunc.zero(XY)
                for a, b in zip(row, vec):
                    dot = dot + a * b
                assert dot.is_zero()


def test_kernel_of_empty_matrix_rejected():
    with pytest.raises(ValueError):
        kernel_basis([])


def test_matrix_rows_without_entries_rejected():
    for call in (rank, kernel_basis, RowSpace, rref):
        for rows in ([[]], [[r(X)], []]):
            with pytest.raises(ValueError, match="a matrix row needs at least one entry"):
                call(rows)


def test_clear_to_polynomials():
    vec = [RatFunc(Y, X), RatFunc(Poly.one(XY), X * Y)]
    cleared = clear_to_polynomials(vec)
    # result must be proportional to the input with content one
    assert cleared == (Y**2, Poly.one(XY))


def test_clear_to_polynomials_rejects_zero():
    with pytest.raises(ValueError):
        clear_to_polynomials([RatFunc.zero(XY), RatFunc.zero(XY)])


# --- reference: Gauss-Jordan with RatFunc entries -----------------------------


def _reference_rref(rows):
    m = [list(r) for r in rows]
    if not m:
        return [], []
    width = len(m[0])
    pivots = []
    r = 0
    for col in range(width):
        pivot_row = next((i for i in range(r, len(m)) if not m[i][col].is_zero()), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][col]
        m[r] = [entry / inv for entry in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][col].is_zero():
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _reference_rank(rows):
    return len(_reference_rref(rows)[1])


def _reference_kernel_basis(reduced, pivots):
    """The kernel read off the reference rref."""
    width = len(reduced[0])
    chart = reduced[0][0].chart
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vec = [RatFunc.zero(chart) for _ in range(width)]
        vec[free] = RatFunc.constant(chart, 1)
        for row_idx, pivot_col in enumerate(pivots):
            vec[pivot_col] = -reduced[row_idx][free]
        basis.append(vec)
    return basis


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    det = Poly.zero(m[0][0].chart)
    for j, entry in enumerate(m[0]):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        det = det + (-1) ** j * entry * _cofactor_det(minor)
    return det


def _combination(rng, chart, rows):
    """A random combination of at most two of ``rows``, with coefficients
    of degree at most one."""
    out = [RatFunc.zero(chart)] * len(rows[0])
    for row in rng.sample(rows, min(2, len(rows))):
        c = RatFunc(random_poly(rng, chart, 1, 3))
        out = [a + c * b for a, b in zip(out, row)]
    return out


def _random_entry(rng, chart):
    """Degree <= 2; one entry in five is a quotient of degree-1 polynomials."""
    if rng.random() < 0.2:
        return random_ratfunc(rng, chart, 1)
    return RatFunc(random_poly(rng, chart, 2, 5))


def _random_matrices(seed, count):
    """(rng, chart, matrix): 1-4 x 1-4 over two or three variables, often
    rank deficient through a row that combines others or a zero column."""
    rng = random.Random(seed)
    for _ in range(count):
        chart = rng.choice((XY, XYZ))
        height, width = rng.randint(1, 4), rng.randint(1, 4)
        m = [[_random_entry(rng, chart) for _ in range(width)] for _ in range(height)]
        if height > 1 and rng.random() < 0.5:
            k = rng.randrange(height)
            m[k] = _combination(rng, chart, m[:k] + m[k + 1 :])
        if width > 1 and rng.random() < 0.3:
            col = rng.randrange(width)
            for row in m:
                row[col] = RatFunc.zero(chart)
        yield rng, chart, m


def test_elimination_matches_the_ratfunc_reference():
    for rng, chart, m in _random_matrices(5, 40):
        reduced, pivots = _reference_rref(m)
        assert rref(m) == (reduced, pivots)
        assert rank(m) == len(pivots)
        outside = [_random_entry(rng, chart) for _ in m[0]]
        for vector in (_combination(rng, chart, m), outside):
            expected = _reference_rank(m + [vector]) == len(pivots)
            assert (vector in RowSpace(m)) == expected
        assert [clear_to_polynomials(v) for v in kernel_basis(m)] == [
            clear_to_polynomials(v) for v in _reference_kernel_basis(reduced, pivots)
        ]
        if len(m) == len(m[0]):
            polys = [list(clear_denominators(row)) for row in m]
            assert poly_det(polys) == _cofactor_det(polys)


def _field_combination(rng, chart, rows):
    """A combination of all of ``rows`` with random rational-function
    coefficients: always a member of their span."""
    out = [RatFunc.zero(chart)] * len(rows[0])
    for row in rows:
        c = random_ratfunc(rng, chart, 1)
        out = [a + c * b for a, b in zip(out, row)]
    return out


def test_membership_matches_the_rank_reference():
    """``v in RowSpace(m)`` against rank(m + [v]) == rank(m), on rational
    rows with zero rows, rank-deficient families and all-zero matrices."""
    outcomes = []
    for rng, chart, m in _random_matrices(8, 40):
        width = len(m[0])
        zero = [RatFunc.zero(chart)] * width
        if rng.random() < 0.3:
            m[rng.randrange(len(m))] = list(zero)
        if rng.random() < 0.15:
            m = [list(zero) for _ in m]
        space = RowSpace(m)
        members = [zero, _field_combination(rng, chart, m)]
        for vector in members:
            assert vector in space
        others = [[_random_entry(rng, chart) for _ in range(width)] for _ in range(2)]
        for vector in members + others:
            expected = rank(m + [vector]) == rank(m)
            assert (vector in space) == expected
            outcomes.append(expected)
    assert True in outcomes and False in outcomes
    for chart in (XY, XYZ):
        zeros = [[RatFunc.zero(chart)] * 3 for _ in range(2)]
        assert [RatFunc.zero(chart)] * 3 in RowSpace(zeros)
        assert [RatFunc.zero(chart)] * 2 + [RatFunc.constant(chart, 1)] not in RowSpace(zeros)


def test_one_elimination_per_foliation(monkeypatch):
    x, y, z = XYZ.vars()
    one, zero = Poly.one(XYZ), Poly.zero(XYZ)
    # d/dx and x d/dx + d/dy: their bracket d/dx is a nonzero member of their span
    fol = FoliationGens(
        XYZ,
        (
            VectorField.from_coefficients(XYZ, (one, zero, zero)),
            VectorField.from_coefficients(XYZ, (x, one, zero)),
        ),
    )
    # brackets -2x d/dy and (y - 1) d/dx - 2x^2 d/dy, both members
    v = VectorField.from_coefficients(XYZ, (y, x**2, z))
    eliminations, dets = [], []
    real_bareiss, real_det = linalg.bareiss, foliation_module.poly_det
    monkeypatch.setattr(
        linalg,
        "bareiss",
        lambda rows, reduced=False: eliminations.append(1) or real_bareiss(rows, reduced),
    )
    monkeypatch.setattr(foliation_module, "poly_det", lambda rows: dets.append(1) or real_det(rows))
    assert generic_rank(fol) == 2
    assert is_involutive(fol).ok
    assert is_invariant_subsheaf(fol, v).ok
    # p = n - 1: every maximal minor is the common pivot or one entry
    assert [str(g) for g in singular_locus(fol).generators] == ["1"]
    assert len(eliminations) == 1 and not dets
    # a fresh, equal foliation eliminates again; the memo is not shared
    assert generic_rank(FoliationGens(XYZ, fol.generators)) == 2
    assert len(eliminations) == 2
    # p = 2 on four variables: only the column set off both pivots takes a determinant
    four = Chart(("x", "y", "z", "w"))
    a, b, c, d = four.vars()
    one, zero = Poly.one(four), Poly.zero(four)
    fol4 = FoliationGens(
        four,
        (
            VectorField.from_coefficients(four, (one, zero, b, c**2)),
            VectorField.from_coefficients(four, (zero, a, a - d, 2 * b)),
        ),
    )
    assert len(singular_locus(fol4).generators) == 6
    assert len(eliminations) == 3 and len(dets) == 1


def test_one_elimination_per_tangent_foliation(monkeypatch):
    """The Jacobian's elimination is the only one: the kernel vectors are
    taken as the generators, with no second content, and their span is the
    Jacobian's kernel, which is involutive by construction and takes no
    bracket and no second elimination.  The singular locus takes its one
    determinant on a Jacobian block, and invariance takes a bracket only
    for a witness; a declared foliation with the same generators brackets
    every generator."""
    four = Chart(("x", "y", "z", "w"))
    a, b, c, d = four.vars()
    v = VectorField.from_coefficients(four, (b, c * Fraction(1, 2), -d, a))
    rank_one = (a * b + c * Fraction(1, 2), b - c * d, a + d**2 * Fraction(1, 3))
    rank_two = (a**2 + b * c - d * Fraction(2, 3), b * d + a * c * Fraction(1, 5))
    eliminations, blocks, gcds, brackets = [], [], [], []
    real_bareiss, real_det, real_gcd = linalg.bareiss, foliation_module.poly_det, poly_module._gcd
    real_bracket = foliation_module.lie_bracket
    monkeypatch.setattr(
        linalg,
        "bareiss",
        lambda rows, reduced=False: eliminations.append(1) or real_bareiss(rows, reduced),
    )
    monkeypatch.setattr(
        foliation_module, "poly_det", lambda rows: blocks.append(rows) or real_det(rows)
    )
    monkeypatch.setattr(poly_module, "_gcd", lambda p, q: gcds.append(1) or real_gcd(p, q))
    monkeypatch.setattr(
        foliation_module, "lie_bracket", lambda v, w: brackets.append(1) or real_bracket(v, w)
    )

    def bracket_count(query, *args):
        del brackets[:]
        verdict = query(*args).ok
        return verdict, len(brackets)

    kernel_basis([[f.partial(k) for k in range(4)] for f in map(RatFunc, rank_one)])
    kernel_gcds = len(gcds)
    del eliminations[:], gcds[:]
    fol = tangent_foliation(rank_one, four)
    assert kernel_gcds and len(gcds) == kernel_gcds
    assert generic_rank(fol) == 1
    assert bracket_count(is_involutive, fol) == (True, 0)
    # m = 3: every 3x3 Jacobian minor has at most one column off the pivots
    assert len(singular_locus(fol).generators) == 4
    tangent = fol.generators[0].scale(a * b - 2)
    assert bracket_count(is_invariant_subsheaf, fol, v) == (False, 1)
    assert bracket_count(is_invariant_subsheaf, fol, tangent) == (True, 0)
    assert len(eliminations) == 1 and not blocks
    twin = FoliationGens(four, fol.generators)
    assert bracket_count(is_invariant_subsheaf, twin, tangent) == (True, 1)
    # p = 2: the column set off both of the Jacobian's pivots takes one
    # determinant, of the Jacobian block on those columns
    jacobian = [clear_denominators([RatFunc(f).partial(k) for k in range(4)]) for f in rank_two]
    pivots = rref([[RatFunc(p) for p in row] for row in jacobian])[1]
    off_pivots = [k for k in range(4) if k not in pivots]
    del eliminations[:]
    fol = tangent_foliation(rank_two, four)
    assert generic_rank(fol) == 2
    assert bracket_count(is_involutive, fol) == (True, 0)
    assert len(eliminations) == 1
    assert len(singular_locus(fol).generators) == 6
    assert blocks == [[[row[k] for k in off_pivots] for row in jacobian]]
    tangent = fol.generators[0].scale(c - 1) + fol.generators[1].scale(a * d)
    assert bracket_count(is_invariant_subsheaf, fol, v) == (False, 1)
    assert bracket_count(is_invariant_subsheaf, fol, tangent) == (True, 0)
    assert len(eliminations) == 1
    twin = FoliationGens(four, fol.generators)
    assert bracket_count(is_invariant_subsheaf, twin, tangent) == (True, 2)


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def to_sympy(p, symbols):
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
        return sympy.Poly.from_dict(terms, *symbols).as_expr()

    for _, chart, m in _random_matrices(6, 30):
        symbols = sympy.symbols(chart.variables)
        matrix = sympy.Matrix(
            [[to_sympy(f.num, symbols) / to_sympy(f.den, symbols) for f in row] for row in m]
        )
        assert rank(m) == DomainMatrix.from_Matrix(matrix).rank()


def _dense_poly(rng, chart, degree):
    exps = [e for e in itertools.product(range(degree + 1), repeat=chart.size) if sum(e) <= degree]
    return Poly(chart, {e: rng.randint(-9, 9) for e in exps})


def test_polynomial_rows_take_no_gcd(monkeypatch):
    rng = random.Random(3)
    m = [[RatFunc(_dense_poly(rng, XYZ, 3)) for _ in range(4)] for _ in range(3)]
    square = [[f.num for f in row[:3]] for row in m]
    calls = []
    real_gcd = poly_module._gcd
    monkeypatch.setattr(poly_module, "_gcd", lambda p, q: calls.append(1) or real_gcd(p, q))
    # the generic-rank cliff of the RatFunc path: seconds there, a tenth here
    start = time.perf_counter()
    assert rank(m) == 3
    assert time.perf_counter() - start < 1.0
    assert [a + b for a, b in zip(m[0], m[1])] in RowSpace(m[:2])
    assert m[2] not in RowSpace(m[:2])
    assert not poly_det(square).is_zero()
    assert calls == []


def _reference_kernel(rows):
    """The kernel vectors of polynomial rows, normalized as ``_kernel``
    used to: scale = d / normalize(d / g) for the content g, then one
    exact division by the scale per entry."""
    space = RowSpace._polynomial(rows)
    m, pivots = space.rows, space.pivots
    den = space.den if pivots else Poly.one(m[0][0].chart)
    basis, contents = [], []
    for f in (c for c in range(len(m[0])) if c not in pivots):
        vec = [Poly.zero(den.chart)] * len(m[0])
        vec[f] = den
        for row, col in zip(m, pivots):
            vec[col] = -row[f]
        g = content([p for p in vec if not p.is_zero()])
        scale = divexact(den, normalize(divexact(den, g)))
        basis.append(tuple(divexact(p, scale) for p in vec))
        contents.append(g)
    return basis, contents


@pytest.mark.parametrize("seed", [11, 12])
def test_kernel_matches_the_three_division_normalization(seed):
    """Dividing by the content only when it is not 1, then scaling by one
    rational unit, gives the vectors the old normalization gave.  Half the
    matrices have every row multiplied by a shared factor, and some by a
    rational constant, so that contents other than 1 occur."""
    shared = XY.var("x") - XY.var("y") + 2
    kinds = {"content 1": 0, "content not 1": 0}
    for rng, chart, m in _random_matrices(seed, 40):
        rows = [list(clear_denominators(row)) for row in m]
        if rng.random() < 0.5:
            factor = shared if chart == XY else XYZ.var("z") - XYZ.var("x") + 2
            rows = [[p * factor for p in row] for row in rows]
        if rng.random() < 0.3:
            unit = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 7))
            rows = [[p * unit for p in row] for row in rows]
        basis, space, contents = linalg._kernel(rows)
        assert (basis, contents) == _reference_kernel(rows)
        assert space.pivots == RowSpace._polynomial(rows).pivots
        for g in contents:
            kinds["content 1" if g.is_one() else "content not 1"] += 1
    assert all(kinds.values()), kinds


def test_kernel_content_of_one_costs_no_division(monkeypatch):
    x, y, z = XYZ.vars()
    calls = []
    real = linalg.divexact
    monkeypatch.setattr(linalg, "divexact", lambda f, g: calls.append(g) or real(f, g))
    expected = [
        (-3 * y * Fraction(1, 2), x, Poly.zero(XYZ)),
        (Poly.constant(XYZ, -1), Poly.zero(XYZ), x),
    ]
    # d = 2x; the vectors (-3y, 2x, 0) and (-2, 0, 2x) have content 1 and
    # are only scaled by 1/2, so that x is integer-primitive
    basis, _, contents = linalg._kernel([[2 * x, 3 * y, Poly.constant(XYZ, 2)]])
    assert basis == expected
    assert contents == [Poly.one(XYZ)] * 2 and not calls
    # times (y - z): each vector has the content y - z, one division an entry
    h = y - z
    basis, _, contents = linalg._kernel([[2 * x * h, 3 * y * h, 2 * h]])
    assert basis == expected
    assert contents == [normalize(h)] * 2 and calls == [normalize(h)] * 6
