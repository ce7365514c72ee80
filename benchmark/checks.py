"""Answer checks that hold for *any* correct answer.

Nothing here reuses liefol's algorithms.  Identities are tested at
random rational points with the benchmark's own evaluator (exact
``Fraction`` arithmetic on the term dicts); ranks over the function
field are ranks at random points (Schwartz-Zippel); gcd-shaped answers
are recomputed with sympy, which is only imported when a check needs it.

Every ``check_*`` returns ``None`` for a right answer and a short reason
otherwise.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

Point = Tuple[Fraction, ...]
Terms = Dict[Tuple[int, ...], Fraction]

POINTS = 2  # random points per identity; a false pass needs both to hit a root
_RNG = random.Random(20180323)


# ---------------------------------------------------------------------------
# exact evaluation on term dicts
# ---------------------------------------------------------------------------


def eval_terms(terms: Terms, pt: Point) -> Fraction:
    total = Fraction(0)
    for exps, c in terms.items():
        term = c
        for x, e in zip(pt, exps):
            if e:
                term *= x**e
        total += term
    return total


def d_terms(terms: Terms, k: int) -> Terms:
    out: Terms = {}
    for exps, c in terms.items():
        if exps[k]:
            e = list(exps)
            e[k] -= 1
            out[tuple(e)] = c * exps[k]
    return out


def value(f, pt: Point) -> Fraction:
    """Value of a Poly or RatFunc at a point."""
    if hasattr(f, "den"):
        return eval_terms(f.num.terms, pt) / eval_terms(f.den.terms, pt)
    return eval_terms(f.terms, pt)


def jet(f, pt: Point) -> Tuple[Fraction, List[Fraction]]:
    """Value and gradient of a Poly or RatFunc at a point (quotient rule)."""
    num = f.num.terms if hasattr(f, "den") else f.terms
    den = f.den.terms if hasattr(f, "den") else {(0,) * len(pt): Fraction(1)}
    n_val = eval_terms(num, pt)
    d_val = eval_terms(den, pt)
    grad = []
    for k in range(len(pt)):
        dn = eval_terms(d_terms(num, k), pt)
        dd = eval_terms(d_terms(den, k), pt)
        grad.append((dn * d_val - n_val * dd) / (d_val * d_val))
    return n_val / d_val, grad


def random_points(n: int, polys: Sequence = (), count: int = POINTS) -> List[Point]:
    """Random integer points, avoiding zeros of the given denominators."""
    pts = []
    while len(pts) < count:
        pt = tuple(Fraction(_RNG.randint(-10**6, 10**6)) for _ in range(n))
        if all(eval_terms(p.den.terms, pt) != 0 for p in polys if hasattr(p, "den")):
            pts.append(pt)
    return pts


def rank_of(rows: List[List[Fraction]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    width = len(m[0]) if m else 0
    for col in range(width):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col] != 0:
                factor = m[i][col] / m[rank][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def rank_at_points(rows, rng: random.Random, count: int = POINTS) -> int:
    """Generic rank of a matrix of Poly/RatFunc entries: the largest rank
    at ``count`` random points."""
    n = rows[0][0].chart.size
    best = 0
    for _ in range(count):
        pt = tuple(Fraction(rng.randint(-10**6, 10**6)) for _ in range(n))
        best = max(best, rank_of([[value(e, pt) for e in row] for row in rows]))
    return best


def field_at(v, pt: Point) -> Tuple[List[Fraction], List[List[Fraction]]]:
    vals, grads = [], []
    for c in v.coefficients:
        val, grad = jet(c, pt)
        vals.append(val)
        grads.append(grad)
    return vals, grads


def bracket_at(v, w, pt: Point) -> List[Fraction]:
    """[v, w]_i = sum_j v_j dw_i/dx_j - w_j dv_i/dx_j at a point."""
    v_val, v_grad = field_at(v, pt)
    w_val, w_grad = field_at(w, pt)
    n = len(pt)
    return [
        sum(v_val[j] * w_grad[i][j] - w_val[j] * v_grad[i][j] for j in range(n))
        for i in range(n)
    ]


def _fields_points(fields: Sequence, n: int) -> List[Point]:
    coeffs = [c for f in fields for c in f.coefficients]
    return random_points(n, coeffs)


def _span_ranks(gens: Sequence, extra: Sequence, pts: Sequence[Point]) -> Tuple[int, int]:
    """(rank of gens, rank of gens + extra vectors), each the max over points."""
    base = top = 0
    for pt in pts:
        rows = [[value(c, pt) for c in g.coefficients] for g in gens]
        base = max(base, rank_of(rows))
        top = max(top, rank_of(rows + [vec(pt) for vec in extra]))
    return base, top


def _in_generic_span(gens: Sequence, vector_at, pts: Sequence[Point]) -> bool:
    base, top = _span_ranks(gens, [vector_at], pts)
    return base == top


# ---------------------------------------------------------------------------
# foliation
# ---------------------------------------------------------------------------


def check_tangent_foliation(fol, comps, chart) -> Optional[str]:
    n, m = chart.size, len(comps)
    gens = fol.generators
    if len(gens) != n - m:
        return f"{len(gens)} generators, expected n - m = {n - m}"
    if not all(c.is_polynomial() for g in gens for c in g.coefficients):
        return "generators are not polynomial"
    pts = random_points(n)
    for pt in pts:
        jac = [jet(c, pt)[1] for c in comps]
        for g in gens:
            gv = [value(c, pt) for c in g.coefficients]
            if any(sum(row[k] * gv[k] for k in range(n)) != 0 for row in jac):
                return "J . g != 0 for a generator"
    if _span_ranks(gens, [], pts)[0] != n - m:
        return "generators are not independent"
    return None


def check_generic_rank(fol, rank: int) -> Optional[str]:
    expected = _span_ranks(fol.generators, [], _fields_points(fol.generators, fol.chart.size))[0]
    return None if rank == expected else f"rank {rank}, expected {expected}"


def check_involutive(fol, result) -> Optional[str]:
    gens = fol.generators
    pts = _fields_points(gens, fol.chart.size)
    expected = all(
        _in_generic_span(gens, lambda pt, a=a, b=b: bracket_at(a, b, pt), pts)
        for a, b in combinations(gens, 2)
    )
    return _check_verdict(gens, result, expected, pts)


def check_invariant_subsheaf(fol, v, result) -> Optional[str]:
    gens = fol.generators
    pts = _fields_points(list(gens) + [v], fol.chart.size)
    expected = all(
        _in_generic_span(gens, lambda pt, g=g: bracket_at(v, g, pt), pts) for g in gens
    )
    return _check_verdict(gens, result, expected, pts)


def _check_verdict(gens, result, expected: bool, pts) -> Optional[str]:
    if result.ok != expected:
        return f"verdict {result.ok}, expected {expected}"
    if not result.ok:
        witness = result.witness
        if witness is None:
            return "negative verdict without a witness"
        if _in_generic_span(gens, lambda pt: [value(c, pt) for c in witness.coefficients], pts):
            return "witness lies inside the span"
    return None


def check_singular_locus(fol, ideal) -> Optional[str]:
    """Recompute the normalized minor ideal with sympy from the same generators."""
    R, _ = _ring(fol.chart.variables)
    rows = []
    for g in fol.generators:
        # scaling a generator scales its minors by a constant, which the
        # normalization removes, so clear its denominators first
        scale = math.lcm(*(c.denominator for p in g.coefficients for c in p.num.terms.values()))
        rows.append([_to_ring(R, p.as_poly() * scale) for p in g.coefficients])
    p = len(rows)
    minors = []
    for cols in combinations(range(fol.chart.size), p):
        minor_det = det([[row[c] for c in cols] for row in rows])
        if minor_det:
            minors.append(minor_det)
    if not minors:
        return "no nonzero minor for an independent family"
    common = minors[0]
    for mnr in minors[1:]:
        common = common.gcd(mnr)
    expected = {_normal_key(mnr.exquo(common)) for mnr in minors}
    if any(len(k) == 1 and next(iter(k))[0] == (0,) * fol.chart.size for k in expected):
        expected = {_normal_key(R.one)}
    got = {_key_of(g) for g in ideal.generators}
    return None if got == expected else "singular ideal differs from the sympy recomputation"


def det(rows):
    """Cofactor expansion over any ring elements (liefol Poly or sympy
    PolyElement); only used on matrices of size <= 3."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = rows[0][0] * 0
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * det(minor)
        total = total - term if j % 2 else total + term
    return total


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------


def _same_field_at(out, expected_at, pts) -> bool:
    return all([value(c, pt) for c in out.coefficients] == expected_at(pt) for pt in pts)


def check_lie_bracket(v, w, out) -> Optional[str]:
    pts = _fields_points([v, w, out], v.chart.size)
    ok = _same_field_at(out, lambda pt: bracket_at(v, w, pt), pts)
    return None if ok else "bracket differs from sum_j v_j dw_i/dx_j - w_j dv_i/dx_j"


def check_flow_series_field(v, w, order: int, out) -> Optional[str]:
    if out.kind != "field" or out.order != order or len(out.coefficients) != order + 1:
        return "wrong series shape"
    coeffs = out.coefficients
    pts = _fields_points([v, w, *coeffs], v.chart.size)
    if not _same_field_at(coeffs[0], lambda pt: [value(c, pt) for c in w.coefficients], pts):
        return "t^0 coefficient is not the field"
    for k in range(order):
        nxt = coeffs[k + 1]
        if not _same_field_at(
            nxt, lambda pt, k=k: [x / (k + 1) for x in bracket_at(v, coeffs[k], pt)], pts
        ):
            return f"(k+1) C_(k+1) != [v, C_k] at k = {k}"
    return None


def check_flow_series_function(v, f, order: int, out) -> Optional[str]:
    if out.kind != "function" or out.order != order or len(out.coefficients) != order + 1:
        return "wrong series shape"
    coeffs = out.coefficients
    n = v.chart.size
    pts = random_points(n, [f, *coeffs, *v.coefficients])
    for pt in pts:
        if value(coeffs[0], pt) != value(f, pt):
            return "t^0 coefficient is not the function"
        v_val = [value(c, pt) for c in v.coefficients]
        for k in range(order):
            _, grad = jet(coeffs[k], pt)
            deriv = sum(v_val[i] * grad[i] for i in range(n))
            if value(coeffs[k + 1], pt) * (k + 1) != deriv:
                return f"(k+1) c_(k+1) != v(c_k) at k = {k}"
    return None


def check_dmorphism_ok(result) -> Optional[str]:
    # the triples are built compatible, so the intertwining identity is a theorem
    if result.ok is not True or result.witness is not None:
        return "a compatible triple was rejected"
    return None


def _top_form(terms: Terms) -> Tuple[int, Terms]:
    n = max(sum(e) for e in terms)
    return n, {e: c for e, c in terms.items() if sum(e) == n}


def _q_terms(field_) -> Terms:
    n = field_.degree
    q: Terms = {}
    for (e1, e2), c in field_.b.terms.items():
        if e1 + e2 == n:
            q[(e1 + 1, e2)] = q.get((e1 + 1, e2), Fraction(0)) + c
    for (e1, e2), c in field_.a.terms.items():
        if e1 + e2 == n:
            q[(e1, e2 + 1)] = q.get((e1, e2 + 1), Fraction(0)) - c
    return {e: c for e, c in q.items() if c}


def _hat_at(terms: Terms, n: int, s: Fraction, t: Fraction) -> Fraction:
    """s^n p(1/s, t/s) at (s, t)."""
    return sum((c * s ** (n - e1 - e2) * t**e2 for (e1, e2), c in terms.items()), Fraction(0))


def check_infinity_analysis(field_, rep) -> Optional[str]:
    n = field_.degree
    q = _q_terms(field_)
    if rep.q_form.terms != q:
        return "Q differs from x*b_n - y*a_n"
    if rep.line_invariant != bool(q):
        return "line_invariant disagrees with Q != 0"
    if rep.p_restricted.terms != {(e2,): c for (e1, e2), c in q.items()}:
        return "P(t) differs from Q(1, t)"
    # the reported transform is the raw one divided by a common polynomial
    for s, t in random_points(2):
        a_hat = _hat_at(field_.a.terms, n, s, t)
        b_hat = _hat_at(field_.b.terms, n, s, t)
        raw_s, raw_t = -s * a_hat, -t * a_hat + b_hat
        got_s = eval_terms(rep.w_s.terms, (s, t))
        got_t = eval_terms(rep.w_t.terms, (s, t))
        if raw_s * got_t != raw_t * got_s:
            return "(w_s, w_t) is not proportional to the rescaled field"
    R, _ = _ring(("s", "t"))
    ws, wt = _to_ring(R, rep.w_s), _to_ring(R, rep.w_t)
    if ws and wt and not ws.gcd(wt).is_ground:
        return "(w_s, w_t) keeps a common factor"
    Rq, _ = _ring(field_.chart.variables)
    q_ring = Rq.from_dict({e: int(c) for e, c in q.items()})
    if rep.sing_infinity is None or _key_of(rep.sing_infinity) != _normal_key(q_ring.sqf_part()):
        return "sing_infinity is not the squarefree part of Q"
    import sympy

    t_sym = sympy.Symbol("t")
    p_line = sympy.Poly.from_dict({(e2,): sympy.Integer(int(c)) for (_, e2), c in q.items()}, t_sym)
    expected = {(Fraction(1), Fraction(int(r.p), int(r.q))) for r in p_line.ground_roots()}
    if eval_terms(q, (Fraction(0), Fraction(1))) == 0:
        expected.add((Fraction(0), Fraction(1)))
    got = set(rep.rational_points)
    if got != expected or len(got) != len(rep.rational_points):
        return "rational points at infinity differ from sympy's rational roots"
    return None


def check_curve_constraint(curve, field_, verdict: str) -> Optional[str]:
    R, _ = _ring(curve.chart.variables)
    _, top = _top_form(curve.terms)
    top_sqf = R.from_dict({e: int(c) for e, c in top.items()}).sqf_part()
    q_sqf = R.from_dict({e: int(c) for e, c in _q_terms(field_).items()}).sqf_part()
    expected = "consistent" if q_sqf.rem(top_sqf) == 0 else "excluded"
    return None if verdict == expected else f"verdict {verdict!r}, expected {expected!r}"


# ---------------------------------------------------------------------------
# cli: the default-flag suspension bench
# ---------------------------------------------------------------------------


def check_anosov_report(report: dict, seed: int) -> Optional[str]:
    if report.get("status") != "ok" or report.get("inputs", {}).get("seed") != seed:
        return "not an ok report for this seed"
    res = report["result"]
    b = res["bounds"]
    ls, lu = b["lambda_stable"], b["lambda_unstable"]
    if b["passed"] is not True:
        return "bounds did not pass"
    if not (0 < ls < 1 < lu) or abs(ls * lu - 1) > 1e-9:
        return "lambda_s * lambda_u != 1"
    orbit = res["closed_orbit"]
    if orbit["line_count"] != 3 or orbit["plane_count"] != 3:
        return "expected three invariant lines and three planes"
    dens = res["leaf_density"]
    if not (0 <= dens["coverage"] <= 1 and 0 <= dens["control_coverage"] <= 1):
        return "coverage outside [0, 1]"
    return None


# ---------------------------------------------------------------------------
# sympy bridge
# ---------------------------------------------------------------------------


def _ring(names: Sequence[str]):
    from sympy import ZZ
    from sympy.polys.orderings import grlex
    from sympy.polys.rings import ring

    R, *gens = ring(",".join(names), ZZ, grlex)
    return R, gens


def _to_ring(R, p):
    items = {}
    for e, c in p.terms.items():
        if c.denominator != 1:
            raise ValueError("expected integer coefficients")
        items[e] = int(c.numerator)
    return R.from_dict(items) if items else R.zero


def _normal_key(p) -> frozenset:
    """Integer-primitive with positive graded-lex leading coefficient."""
    _, prim = p.primitive()
    if prim.LC < 0:
        prim = -prim
    return frozenset((tuple(e), Fraction(int(c))) for e, c in prim.items())


def _key_of(p) -> frozenset:
    return frozenset(p.terms.items())
