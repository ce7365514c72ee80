"""The integer-numerator `Poly` core against the `Fraction`-per-term reference.

Every operation is run on both representations over random rational
coefficients (small ones and ones with numerators and denominators of
up to 40 digits) on charts of one to three variables, and the results
must agree exactly: as `Fraction` term maps, as printed text, and as
values.  Each result must also be in the canonical form the integer core
promises: a positive denominator in lowest terms with the numerators,
and denominator 1 for the zero polynomial.

Multiplication and exact division pack exponents into mixed-radix int
keys whose radices follow from the operands' degrees, so a second set
of operands on charts of one to five variables puts those degrees
exactly at and just below the powers of two 7/8, 15/16 and 31/32, and
a third puts each variable's degree exactly at its own radix minus one,
where a digit one too narrow would carry into its neighbour.  The
sum-of-products kernel `_dot`, which every product goes through, picks
one of two accumulators by one rule: packed keys in a dense list for a
sum of many term products whose box is small enough, and a dict on
exponent tuples for every other sum.  It takes one set of radices for a
whole sum, so it is checked the same way on up to four pairs at once,
with operands wide enough to reach the packed keys, spies that show
each accumulator running (a huge exponent sends a large sum to the
tuple keys), and cases on either side of both parts of the rule.  Exact
division is checked where a key difference has digits that look valid
but come from a borrow between digits.
"""

from __future__ import annotations

import itertools
import math
import sys
import traceback
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fraction_poly import RefPoly, ReferenceDivisionError, format_ref
from liefol import (
    Chart,
    ChartMismatchError,
    ExactDivisionError,
    Poly,
    RatFunc,
    divexact,
    format_poly,
)
from liefol import poly
from liefol.poly import _compose, _dot

CHARTS = [Chart(tuple("xyz"[:n])) for n in range(1, 4)]
BIG = 10**40


def _rationals():
    small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
    large = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
    return st.one_of(st.integers(-9, 9), small, large)


def _polys(chart: Chart, max_degree: int = 3, max_terms: int = 5):
    exps = [
        e
        for e in itertools.product(range(max_degree + 1), repeat=chart.size)
        if sum(e) <= max_degree
    ]
    return st.dictionaries(st.sampled_from(exps), _rationals(), max_size=max_terms).map(
        lambda terms: Poly(chart, terms)
    )


@st.composite
def _pair(draw, max_degree: int = 3):
    chart = draw(st.sampled_from(CHARTS))
    polys = _polys(chart, max_degree)
    return draw(polys), draw(polys)


def assert_canonical(p: Poly) -> None:
    assert type(p._den) is int and p._den > 0
    assert all(type(n) is int and n for n in p._num.values())
    if p._num:
        assert math.gcd(p._den, *p._num.values()) == 1
    else:
        assert p._den == 1


def assert_matches(p: Poly, ref: RefPoly) -> None:
    assert_canonical(p)
    assert dict(p.terms) == ref.terms
    assert format_poly(p) == format_ref(ref, p.chart.variables)


@given(_pair(), _rationals())
def test_ring_operations_match(pair, scalar):
    p, q = pair
    rp, rq = RefPoly.of(p), RefPoly.of(q)
    assert_matches(p, rp)
    assert_matches(p + q, rp + rq)
    assert_matches(p - q, rp - rq)
    assert_matches(-p, -rp)
    assert_matches(p * q, rp * rq)
    assert_matches(p * scalar, rp * scalar)
    assert_matches(scalar * p, rp * scalar)
    assert_matches(p + scalar, rp + rp.constant(scalar))
    assert_matches(scalar - p, rp.constant(scalar) - rp)
    assert (p == q) == (rp.terms == rq.terms)
    assert (hash(p) == hash(q)) or p != q


@given(_pair(max_degree=2), st.integers(0, 6))
def test_powers_match(pair, n):
    """Repeated multiplication (and monomials raised directly) against
    the reference's square and multiply."""
    p, _ = pair
    assert_matches(p**n, RefPoly.of(p) ** n)


@given(_pair(), st.integers(0, 4))
def test_calculus_helpers_match(pair, degree):
    p, _ = pair
    rp = RefPoly.of(p)
    for k in range(p.chart.size):
        assert_matches(p.partial(k), rp.partial(k))
    assert_matches(p.homogeneous_part(degree), rp.homogeneous_part(degree))


@given(_pair(), st.lists(_rationals(), min_size=3, max_size=3))
def test_evaluate_matches(pair, point):
    p, _ = pair
    point = point[: p.chart.size]
    value = p.evaluate(point)
    assert type(value) is Fraction
    assert value == RefPoly.of(p).evaluate(point)


@given(st.data())
def test_substitute_matches(data):
    source = data.draw(st.sampled_from(CHARTS))
    target = data.draw(st.sampled_from(CHARTS))
    p = data.draw(_polys(source, max_degree=2, max_terms=4))
    images = [data.draw(_polys(target, max_degree=2, max_terms=3)) for _ in source.variables]
    expected = RefPoly.of(p).substitute([RefPoly.of(img) for img in images])
    assert_matches(p.substitute(images), expected)


@given(st.data())
def test_compose_matches_member_by_member(data):
    """A family composed at once, sharing its monomial images, against
    the reference member by member: rational coefficients, images with
    denominators on a chart of another size, a zero and a constant member."""
    source = data.draw(st.sampled_from(CHARTS))
    target = data.draw(st.sampled_from([c for c in CHARTS if c.size != source.size]))
    family = data.draw(st.lists(_polys(source, max_degree=3, max_terms=4), max_size=3))
    family += [Poly.zero(source), Poly.constant(source, data.draw(_rationals()))]
    family = data.draw(st.permutations(family))
    images = [data.draw(_polys(target, max_degree=2, max_terms=3)) for _ in source.variables]
    ref_images = [RefPoly.of(img) for img in images]
    composed = _compose(family, images)
    assert len(composed) == len(family)
    for p, q in zip(family, composed):
        assert_matches(q, RefPoly.of(p).substitute(ref_images))


def test_compose_a_high_power_iteratively():
    """x^600 through a two-term image walks 599 products down and up in
    a loop: it runs within 100 frames of the stack it is called from,
    where 600 nested calls would not."""
    x, y = CHARTS[1].vars()
    (t,) = CHARTS[0].vars()
    p = x**600 + y
    limit = sys.getrecursionlimit()
    depth = len(traceback.extract_stack())
    sys.setrecursionlimit(depth + 100)
    try:
        composed = p.substitute([t + Fraction(1, 2), t])
    finally:
        sys.setrecursionlimit(limit)
    expected = {(k,): Fraction(math.comb(600, k), 2 ** (600 - k)) for k in range(601)}
    expected[(1,)] += 1
    assert_canonical(composed)
    assert dict(composed.terms) == expected


def test_compose_rejects_a_chart_mismatch():
    x, y = CHARTS[1].vars()
    p = x * y + 1
    with pytest.raises(ChartMismatchError, match="different charts"):
        p.substitute([CHARTS[0].var("x"), y])
    with pytest.raises(ChartMismatchError, match="different charts"):
        RatFunc(p, x + 2).substitute([CHARTS[0].var("x"), y])
    with pytest.raises(ValueError, match="one image per chart variable"):
        p.substitute([x])


@given(_pair(max_degree=2))
def test_divexact_of_a_product_matches(pair):
    p, q = pair
    if q.is_zero():
        return
    rq = RefPoly.of(q)
    f = p * q
    expected = RefPoly.of(f).divexact(rq)
    assert_matches(divexact(f, q), expected)
    assert_matches(divexact(f, q), RefPoly.of(p))


@given(st.data())
def test_divexact_raises_exactly_when_the_reference_does(data):
    chart = data.draw(st.sampled_from(CHARTS))
    q, g = data.draw(_polys(chart, max_degree=2)), data.draw(_polys(chart, max_degree=2))
    r = data.draw(_polys(chart, max_degree=1, max_terms=2))
    if g.is_zero():
        return
    f = q * g + r  # not a multiple of g unless g divides r
    try:
        expected = RefPoly.of(f).divexact(RefPoly.of(g))
    except ReferenceDivisionError:
        with pytest.raises(ExactDivisionError):
            divexact(f, g)
    else:
        assert_matches(divexact(f, g), expected)


@given(_pair())
def test_normalize_matches_the_fraction_formula(pair):
    """normalize(p) = p * (d / c), with d the least common denominator of
    the coefficients and c the gcd of the integers coefficient * d, negated
    when the leading coefficient in graded-lex order is negative.
    ``_normalizer`` gives d / c as a pair of integers in lowest terms with
    a positive second one, equal exactly when p is already normalized, and
    ``_scaled`` by that pair is ``normalize``."""
    p, _ = pair
    terms = dict(p.terms)
    if not terms:
        assert poly.normalize(p).is_zero()
        return
    d = math.lcm(*(v.denominator for v in terms.values()))
    c = math.gcd(*(int(v * d) for v in terms.values()))
    if terms[max(terms, key=poly.glex_key)] < 0:
        c = -c
    normal = poly.normalize(p)
    assert_matches(normal, RefPoly.of(p) * Fraction(d, c))
    a, b = poly._normalizer(p)
    assert type(a) is int and type(b) is int and b > 0 and math.gcd(a, b) == 1
    assert Fraction(a, b) == Fraction(d, c)
    assert (a == b) == (normal == p)
    assert_matches(p._scaled(a, b), RefPoly.of(normal))


def _any_poly():
    """A polynomial on a chart of one to three variables: up to five terms,
    one term, or a constant."""
    return st.sampled_from(CHARTS).flatmap(
        lambda chart: st.one_of(
            _polys(chart),
            _polys(chart, max_terms=1),
            _rationals().map(lambda r: Poly.constant(chart, r)),
        )
    )


@given(_any_poly())
def test_leading_exponents_are_the_graded_lex_maximum(p):
    if not p:
        with pytest.raises(ValueError, match="no leading term"):
            p._leading_exponents()
        return
    lead = p._leading_exponents()
    assert lead == max(p._num, key=poly.glex_key)
    assert p.leading_term() == (lead, p.terms[lead])


WIDE_CHARTS = [Chart(tuple("xyzwv"[:n])) for n in range(1, 6)]
EDGES = (7, 8, 15, 16, 31, 32)


def _nonzero_rationals():
    return _rationals().filter(bool)


def _terms(chart: Chart, tops, min_below: int = 1, max_below: int = 3):
    """x^tops and ``min_below`` to ``max_below`` terms at or below it (as
    many as fit).

    The result has degree exactly ``tops[k]`` in each variable and total
    degree exactly ``sum(tops)``.
    """
    top = tuple(tops)
    below = st.tuples(*(st.integers(0, t) for t in tops))
    room = math.prod(t + 1 for t in tops)
    return st.builds(
        lambda rest, c: Poly(chart, {**rest, top: c}),
        st.dictionaries(
            below, _nonzero_rationals(), min_size=min(min_below, room), max_size=max_below
        ),
        _nonzero_rationals(),
    )


def _single(chart: Chart, tops):
    """Zero, the monomial x^tops, or one term c*x^tops."""
    top = tuple(tops)
    return st.one_of(
        st.just(Poly.zero(chart)),
        st.just(Poly(chart, {top: 1})),
        _nonzero_rationals().map(lambda c: Poly(chart, {top: c})),
    )


@st.composite
def _edge_tops(draw):
    """A chart and two degree vectors that add up to an edge value.

    Either every per-variable sum is the edge (the field width of a
    product of operands with these degrees), or the total degrees add up
    to it (the field width of dividing that product by either one).
    """
    chart = draw(st.sampled_from(WIDE_CHARTS))
    n, edge = chart.size, draw(st.sampled_from(EDGES))
    if draw(st.booleans()):
        tops_p = [draw(st.integers(0, edge)) for _ in range(n)]
        tops_q = [edge - a for a in tops_p]
    else:
        cuts = sorted(draw(st.integers(0, edge)) for _ in range(2 * n - 1))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, edge])]
        tops_p, tops_q = parts[:n], parts[n:]
    return chart, tops_p, tops_q


@given(_edge_tops(), st.data())
def test_products_at_field_edges_match(edge, data):
    chart, tops_p, tops_q = edge
    p = data.draw(_terms(chart, tops_p))
    q = data.draw(_terms(chart, tops_q))
    s = data.draw(_single(chart, tops_q))
    for a, b in ((p, q), (q, p), (p, s), (s, p)):
        assert_matches(a * b, RefPoly.of(a) * RefPoly.of(b))


@given(st.data())
def test_powers_at_field_edges_match(data):
    """The last product of p**n has per-variable degree sums n*tops, drawn
    to sit at or next to an edge."""
    chart = data.draw(st.sampled_from(WIDE_CHARTS))
    n = data.draw(st.integers(0, 6))
    edge = data.draw(st.sampled_from(EDGES))
    tops = [edge // max(n, 1) + data.draw(st.integers(0, 1)) for _ in range(chart.size)]
    p = data.draw(st.one_of(_terms(chart, tops), _single(chart, tops)))
    assert_matches(p**n, RefPoly.of(p) ** n)


@given(_edge_tops(), st.data())
def test_divexact_at_field_edges_matches(edge, data):
    chart, tops_p, tops_q = edge
    p = data.draw(_terms(chart, tops_p))
    q = data.draw(_terms(chart, tops_q))
    s = data.draw(_single(chart, tops_p))
    pairs = [(p, q), (q, p), (s, q)] + ([(q, s)] if s else [])
    for a, b in pairs:
        assert_matches(divexact(a * b, b), RefPoly.of(a))
    # a perturbed product divides exactly where the reference says it does
    r = data.draw(_terms(chart, [data.draw(st.integers(0, t)) for t in tops_q]))
    for a, b in pairs:
        f = a * b + r
        try:
            expected = RefPoly.of(f).divexact(RefPoly.of(b))
        except ReferenceDivisionError:
            with pytest.raises(ExactDivisionError):
                divexact(f, b)
        else:
            assert_matches(divexact(f, b), expected)


def _dot_operand(chart: Chart, tops, wide: bool):
    """8-12 terms topped by x^tops if ``wide`` (as many as fit below it);
    else up to 4 such terms, zero, x^tops, c*x^tops or a constant."""
    if wide:
        return _terms(chart, tops, 7, 11)
    constants = _rationals().map(lambda c: Poly.constant(chart, c))
    return st.one_of(_terms(chart, tops), _single(chart, tops), constants)


@st.composite
def _dot_pairs(draw):
    """A chart of 1-5 variables and 0-4 pairs on it, of wide operands or
    of narrow ones.

    In every pair the per-variable degree sums are exactly one edge value
    unless an operand is zero or constant, so the sum's field width is
    the one that value needs; coefficients carry mixed denominators.
    """
    chart = draw(st.sampled_from(WIDE_CHARTS))
    edge = draw(st.sampled_from(EDGES))
    wide = draw(st.booleans())
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        tops_a = [draw(st.integers(0, edge)) for _ in range(chart.size)]
        tops_b = [edge - t for t in tops_a]
        a = draw(_dot_operand(chart, tops_a, wide))
        b = draw(_dot_operand(chart, tops_b, wide))
        pairs.append((a, b) if draw(st.booleans()) else (b, a))
    return chart, pairs


@contextmanager
def _accumulators():
    """The accumulator that each `_dot` call in the block takes, in call
    order: "tuple" (`_tuple_sum`) or "dense" (`_dense_sum`)."""
    taken = []
    real_tuple, real_dense = poly._tuple_sum, poly._dense_sum

    def tuple_sum(*args):
        taken.append("tuple")
        return real_tuple(*args)

    def dense_sum(*args):
        taken.append("dense")
        return real_dense(*args)

    with mock.patch.multiple(poly, _tuple_sum=tuple_sum, _dense_sum=dense_sum):
        yield taken


def _rule(pairs) -> list:
    """The accumulators that the rule in `poly` picks for `_dot(pairs)`:
    none without a nonzero pair; packed keys in a dense list if the sum
    forms more than `_SMALL_SUM_PRODUCTS` term products, and no fewer
    than its input terms, and their box holds at most
    `_DENSE_SLOTS_PER_TERM` slots per input term; tuple keys otherwise."""
    live = [(a, b) for a, b in pairs if a and b]
    if not live:
        return []
    products = sum(len(a) * len(b) for a, b in live)
    size = sum(len(a) + len(b) for a, b in live)
    if products <= poly._SMALL_SUM_PRODUCTS or products < size:
        return ["tuple"]
    box = 1
    for k in range(live[0][0].chart.size):
        box *= 1 + max(a.degree_in(k) + b.degree_in(k) for a, b in live)
    return ["dense" if box <= poly._DENSE_SLOTS_PER_TERM * size else "tuple"]


def _reference_dot(chart: Chart, pairs) -> RefPoly:
    expected = RefPoly(chart.size, {})
    for a, b in pairs:
        expected = expected + RefPoly.of(a) * RefPoly.of(b)
    return expected


def _check_dot(chart: Chart, pairs) -> list:
    """`_dot(chart, pairs)` against the reference and against the rule;
    the accumulators it took."""
    with _accumulators() as taken:
        total = _dot(chart, pairs)
    assert_matches(total, _reference_dot(chart, pairs))
    assert taken == _rule(pairs)
    return taken


def _long(chart: Chart, n: int, shift: int = 0) -> Poly:
    """n terms x^(i + shift) * y^(n - 1 - i) / (i % 3 + 1), on a chart of
    one or two variables."""
    return Poly(
        chart,
        {
            (i + shift, n - 1 - i)[: chart.size]: Fraction((-1) ** i * (i + 2), i % 3 + 1)
            for i in range(n)
        },
    )


def _one_sum_per_accumulator():
    """Sums that take the tuple keys (a small one, and a large one whose
    box is over the bound) and the dense list."""
    x, xy = WIDE_CHARTS[:2]
    yield x, [(_long(x, 2), _long(x, 3, 1))]
    yield x, [(_long(x, 8), _long(x, 8, 10000))]
    yield x, [(_long(x, 8), _long(x, 8, 1))]
    yield xy, [(_long(xy, 12), _long(xy, 12, 2))]


def test_dot_matches_the_sum_of_products():
    """On both accumulators: operands of 8-12 terms reach the packed
    keys, and x^1000000 * y sends the sum to the tuple keys.  One example
    per accumulator makes sure that each of them runs."""
    seen = set()

    @given(_dot_pairs(), st.booleans(), _nonzero_rationals())
    def check(drawn, huge, c):
        chart, pairs = drawn
        if huge:
            x = chart.vars()[0]
            pairs = [*pairs, (x**1000000 * chart.vars()[-1] * c, x + c)]
        taken = _check_dot(chart, pairs)
        if huge:
            assert taken == ["tuple"]
        seen.update(taken)

    for drawn in _one_sum_per_accumulator():
        check = example(drawn, False, Fraction(1, 3))(check)
    check()
    assert seen == {"tuple", "dense"}


@pytest.mark.parametrize("extra", [0, 1, 2])
@pytest.mark.parametrize("chart", WIDE_CHARTS[:2], ids=["x", "xy"])
def test_dot_on_either_side_of_the_box_rule(chart, extra):
    """A k x k pair, k the least with k * k > `_SMALL_SUM_PRODUCTS`, and
    a k x 1 pair: 3k + 1 terms in all, so the packed keys take the dense
    box while it holds at most (3k + 1) * `_DENSE_SLOTS_PER_TERM` slots
    (an even number), and the tuple keys past it; the box is that plus
    ``extra``, or plus 2 * extra on two variables."""
    k = math.isqrt(poly._SMALL_SUM_PRODUCTS) + 1
    limit = (3 * k + 1) * poly._DENSE_SLOTS_PER_TERM
    if chart.size == 1:
        tops = [limit - 1 + extra]
    else:
        tops = [1, limit // 2 - 1 + extra]
    box = math.prod(t + 1 for t in tops)
    zero = (0,) * chart.size
    third = Fraction(1, 3)
    # k - 2 terms low in the last variable, below both tops
    middle = [zero[1:] + (j,) for j in range(1, k - 1)]
    a = Poly(chart, {tuple(t - t // 2 for t in tops): 2, zero: third, **dict.fromkeys(middle, 3)})
    b = Poly(chart, {tuple(t // 2 for t in tops): 1, zero: -5, **dict.fromkeys(middle, third)})
    seven = Poly(chart, {zero: 7})
    pairs = [(a, b), (b, seven)]
    assert len(a) == len(b) == k and k * k > poly._SMALL_SUM_PRODUCTS
    assert (box <= limit) == (extra == 0)
    assert _check_dot(chart, pairs) == ["dense" if extra == 0 else "tuple"]


def _small_sum_cases():
    """(id, chart, pairs, accumulator) at the edges of the small-sum rule."""
    limit = poly._SMALL_SUM_PRODUCTS
    xy = WIDE_CHARTS[1]
    x, y = xy.vars()
    # a 2 x (limit // 2) pair, and a monomial pair if the limit is odd
    at_limit = [(_long(xy, 2, 1), _long(xy, limit // 2))] + [(x, y)] * (limit % 2)
    assert sum(len(a) * len(b) for a, b in at_limit) == limit
    yield "at-limit", xy, at_limit, "tuple"
    yield "one-past", xy, [*at_limit, (Poly(xy, {(2, 1): Fraction(-3, 4)}), x)], "dense"
    for n in (1, 2, 3, 50, 200):
        for chart in WIDE_CHARTS[:2]:
            long = _long(chart, n)
            single = Poly(chart, {(1, 3)[: chart.size]: Fraction(5, 6)})
            yield f"one-term-{n}-{chart.size}", chart, [(single, long)], "tuple"
            yield f"term-one-{n}-{chart.size}", chart, [(long, single)], "tuple"
        many = [(_long(xy, n, i), Poly(xy, {(0, i): Fraction(1, i + 2)})) for i in range(3)]
        yield f"three-one-term-sides-{n}", xy, many, "tuple"


@pytest.mark.parametrize(
    "chart, pairs, accumulator",
    [case[1:] for case in _small_sum_cases()],
    ids=[case[0] for case in _small_sum_cases()],
)
def test_dot_on_either_side_of_the_small_sum_rule(chart, pairs, accumulator):
    """Sums at `_SMALL_SUM_PRODUCTS` term products and one past it, and
    sums whose pairs have a one-term side, of 1-200 terms on the other."""
    assert _check_dot(chart, pairs) == [accumulator]


def test_dot_and_series_box_decide_by_one_function(monkeypatch):
    """`_dot`'s dense branch and `_series_box` reach the rule through one
    function, `_Box.dense`, each with its own counts: a sum's term
    products and input terms, and a series' products over all its orders
    and its input terms.  With that function refusing every box, both
    take tuple keys."""
    xy = WIDE_CHARTS[1]
    a, b = _long(xy, 12), _long(xy, 12, 2)
    calls = []
    real = poly._Box.dense.__func__

    def spy(cls, chart, products, size, radices):
        calls.append((products, size))
        return real(cls, chart, products, size, radices)

    monkeypatch.setattr(poly._Box, "dense", classmethod(spy))
    with _accumulators() as taken:
        total = _dot(xy, [(a, b)])
    assert taken == ["dense"]
    assert poly._series_box([a, b], [a], 2) is not None
    assert calls == [(12 * 12, 12 + 12), (2 * 24 * 12, 24 + 12)]
    monkeypatch.setattr(poly._Box, "dense", classmethod(lambda cls, *args: None))
    with _accumulators() as taken:
        assert _dot(xy, [(a, b)]) == total
    assert taken == ["tuple"]
    assert poly._series_box([a, b], [a], 2) is None


def test_dot_edge_cases():
    """Small sums take the tuple-keyed accumulator, and it keeps the shared
    chart check, the canonical zero and the reduction to lowest terms."""
    chart = WIDE_CHARTS[2]
    x, y, z = chart.vars()
    half = Poly.constant(chart, Fraction(1, 2))
    with _accumulators() as taken:
        assert_canonical(_dot(chart, []))
        assert _dot(chart, []) == Poly.zero(chart)
        zeros = _dot(chart, [(x, Poly.zero(chart)), (Poly.zero(chart), y)])
    assert not taken
    assert_canonical(zeros)
    assert zeros == Poly.zero(chart)
    assert _check_dot(chart, [(half, half), (half, 3 * half)]) == ["tuple"]
    assert _dot(chart, [(half, half), (half, 3 * half)]) == Poly.one(chart)
    # terms cancel across pairs and the scale reduces to lowest terms
    third = Fraction(1, 3)
    pairs = [(x + y, half * x), (-(x + y), half * x - z * third)]
    assert _check_dot(chart, pairs) == ["tuple"]
    total = _dot(chart, pairs)
    assert_canonical(total)
    assert total == (x + y) * z * third
    # every term cancels, across pairs with different denominators
    pairs = [(x * third, y * half), (-x, y * Fraction(1, 6))]
    assert _check_dot(chart, pairs) == ["tuple"]
    assert_canonical(_dot(chart, pairs))
    assert _dot(chart, pairs) == Poly.zero(chart)
    pairs = [(x * half, y * third), (x * third, z * Fraction(1, 5)), (y * Fraction(2, 7), 3 * y)]
    assert _check_dot(chart, pairs) == ["tuple"]
    assert _dot(chart, pairs)._den == 210
    other = Chart(("x", "y"))
    with pytest.raises(ChartMismatchError):
        _dot(chart, [(x, y), (other.var("x"), other.var("y"))])
    with pytest.raises(ChartMismatchError):
        _dot(chart, [(Poly.zero(other), x)])
    # one term on each side
    for a, b in ((x, other.var("x")), (other.var("y"), y)):
        with pytest.raises(ChartMismatchError):
            a * b
        with pytest.raises(ChartMismatchError):
            _dot(chart, [(a, b)])


@st.composite
def _radix_pairs(draw):
    """A chart of 1-5 variables, a degree t_k for each variable, and 1-4
    pairs of up to 4 or of 8-12 terms (as many as fit) whose degree sums
    stay within t: the first pair's sum is exactly t, so every radix r_k
    is t_k + 1 and its top monomial packs to the last key of the box."""
    chart = draw(st.sampled_from(WIDE_CHARTS))
    t = [draw(st.integers(0, 12)) for _ in range(chart.size)]
    below = draw(st.sampled_from([(1, 3), (7, 11)]))
    pairs = []
    for i in range(draw(st.integers(1, 4))):
        sums = t if i == 0 else [draw(st.integers(0, k)) for k in t]
        tops_a = [draw(st.integers(0, k)) for k in sums]
        tops_b = [k - a for k, a in zip(sums, tops_a)]
        pairs.append(tuple(draw(_terms(chart, tops, *below)) for tops in (tops_a, tops_b)))
    return chart, pairs


def test_dot_with_degrees_at_each_radix_matches():
    seen = set()

    @given(_radix_pairs())
    def check(drawn):
        seen.update(_check_dot(*drawn))

    for drawn in _one_sum_per_accumulator():
        check = example(drawn)(check)
    check()
    assert seen == {"tuple", "dense"}


def test_divexact_rejects_a_divisor_of_higher_degree_in_one_variable():
    chart = WIDE_CHARTS[1]
    x, y = chart.vars()
    for f, g in ((x**4 * (x + 1), x * y + 1), ((x * y + 1) * x**3, y**2 + x)):
        with pytest.raises(ReferenceDivisionError):
            RefPoly.of(f).divexact(RefPoly.of(g))
        with pytest.raises(ExactDivisionError):
            divexact(f, g)


def test_divexact_rejects_a_borrowed_quotient_exponent():
    """Keys over deg f = (2, 2) are 3*e_x + e_y.  The leading key of
    x^2 + y^2 is 6 and that of x*y + 1 is 4: their difference 2 has the
    digits (0, 2), a valid exponent of the box, but x^2 / (x*y) is no
    monomial.  Only the check q_k <= deg_k f - deg_k g = 1 sees it."""
    chart = WIDE_CHARTS[1]
    x, y = chart.vars()
    cases = [
        (x**2 + y**2, x * y + 1),
        (x**2 * y + y**3, x * y**2 - 1),
        ((x * y + 1) * (x - y) + y**2, x * y + 1),
    ]
    for f, g in cases:
        with pytest.raises(ReferenceDivisionError):
            RefPoly.of(f).divexact(RefPoly.of(g))
        with pytest.raises(ExactDivisionError):
            divexact(f, g)
    # the same divisors divide their multiples
    for f, g in cases:
        assert_matches(divexact(f * g, g), RefPoly.of(f))


def test_constructor_accepts_mixed_coefficients():
    chart = CHARTS[1]
    p = Poly(chart, {(1, 0): 2, (0, 1): Fraction(3, 4), (0, 0): Fraction(6, 2), (2, 0): 0})
    assert_canonical(p)
    assert (p._den, p._num) == (4, {(1, 0): 8, (0, 1): 3, (0, 0): 12})
    assert dict(p.terms) == {(1, 0): 2, (0, 1): Fraction(3, 4), (0, 0): 3}
    assert_canonical(Poly(chart, {(1, 0): Fraction(0, 5)}))
    with pytest.raises(TypeError):
        Poly(chart, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = 1
