"""Seeded inputs and the cases of the three benchmark workloads.

A *case* is one top-level call into liefol: one fresh ``liefol`` process
in ``cli``, one public library call in ``foliation`` and ``calculus``.
Every input is drawn from ``random.Random(seed)``; the program only ever
sees the generated inputs.

Cases that belong together (the five foliation operations on one map)
share a ``group`` and a state dict: the foliation returned by
``tangent_foliation`` is the input of the four calls after it.

Library calls go through the module attribute at call time
(``foliation.tangent_foliation(...)``), so the traced run sees the
wrappers it installs on those modules.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from liefol import dmod, foliation, liecalc, planar
from liefol.dmod import PolyMap
from liefol.liecalc import VectorField
from liefol.planar import PlanarField
from liefol.poly import Chart, Poly, RatFunc

import checks

NAMES = ("x", "y", "z", "w")
TARGET_NAMES = ("u", "v", "s")

# Instances drawn per rung.  The case list is one *pass*; a run repeats
# whole passes, so every run times the same mix of rungs.  A pass holds at
# least MIN_CASES cases; calculus draws more instances because its p90 and
# its throughput rest on a few heavy rungs whose cost varies with the seed.
FOLIATION_INSTANCES = 2
CALCULUS_INSTANCES = 4


@dataclass
class Case:
    key: str  # "<rung>#<instance>/<op>", unique within a workload
    op: str  # "<module>.<public function>"
    run: Callable[[dict], object]
    check: Callable[[object], Optional[str]]  # None if the answer is right
    state: dict = field(default_factory=dict, repr=False)


def _chart(n: int, names: Sequence[str] = NAMES) -> Chart:
    return Chart(tuple(names[:n]))


def _monomials(n: int, d: int) -> List[Tuple[int, ...]]:
    return [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d]


def _nonzero(rng: random.Random, bound: int) -> int:
    c = 0
    while c == 0:
        c = rng.randint(-bound, bound)
    return c


def dense_poly(rng: random.Random, chart: Chart, degree: int, bound: int = 3) -> Poly:
    """Every monomial of total degree <= ``degree`` with a nonzero coefficient.

    A full support keeps the cost of a rung steady from seed to seed: only
    the coefficient values change, never the shape of the polynomial.
    """
    return Poly(chart, {e: _nonzero(rng, bound) for e in _monomials(chart.size, degree)})


def dense_field(rng: random.Random, chart: Chart, degree: int) -> VectorField:
    return VectorField.from_coefficients(
        chart, [dense_poly(rng, chart, degree) for _ in range(chart.size)]
    )


def _tangent_field(comps: Sequence[Poly], chart: Chart) -> VectorField:
    """A polynomial field annihilating every component: the signed maximal
    minors of the Jacobian restricted to its first m + 1 columns."""
    m = len(comps)
    jac = [[c.partial(k) for k in range(m + 1)] for c in comps]
    coeffs = [Poly.zero(chart) for _ in range(chart.size)]
    for k in range(m + 1):
        minor = [row[:k] + row[k + 1 :] for row in jac]
        det = checks.det(minor)
        coeffs[k] = -det if k % 2 else det
    return VectorField.from_coefficients(chart, coeffs)


# ---------------------------------------------------------------------------
# foliation: dominant maps up a ladder of chart size, degree and rank
# ---------------------------------------------------------------------------

# (chart size n, degree d, components m).  Rungs grow until the RatFunc
# Gauss-Jordan path reaches its cliff: (3, 3, 1) and (4, 2, 1) take up to
# about a second per call.  (3, 2, 2) with the same dense support runs for
# more than a minute in is_invariant_subsheaf, so it sits above the cap and
# is left out of the timed ladder (the cap test uses it).
FOLIATION_RUNGS: Tuple[Tuple[int, int, int], ...] = (
    (2, 1, 1),
    (2, 2, 1),
    (2, 3, 1),
    (3, 1, 1),
    (3, 1, 2),
    (3, 2, 1),
    (3, 3, 1),
    (4, 1, 1),
    (4, 1, 2),
    (4, 1, 3),
    (4, 2, 1),
)


def dominant_map(rng: random.Random, chart: Chart, degree: int, m: int) -> List[Poly]:
    """Dense components whose Jacobian has rank m at a random point."""
    while True:
        comps = [dense_poly(rng, chart, degree) for _ in range(m)]
        jac = [[c.partial(k) for k in range(chart.size)] for c in comps]
        if checks.rank_at_points(jac, random.Random(rng.random())) == m:
            return comps


def foliation_group(
    rng: random.Random, rung: Tuple[int, int, int], instance: int, group: int
) -> List[Case]:
    n, d, m = rung
    chart = _chart(n)
    comps = dominant_map(rng, chart, d, m)
    # even groups: a random affine field (the span is rarely preserved);
    # odd groups: a field tangent to the fibres, which always preserves it
    v = dense_field(rng, chart, 1) if group % 2 == 0 else _tangent_field(comps, chart)
    label = f"n{n}d{d}m{m}#{instance}"
    state: dict = {}

    def need_fol(st: dict) -> foliation.FoliationGens:
        fol = st.get("fol")
        if fol is None:
            raise RuntimeError("tangent_foliation of this group did not finish")
        return fol

    def run_tangent(st: dict):
        st["fol"] = None
        fol = foliation.tangent_foliation(comps, chart)
        st["fol"] = fol
        return fol

    def op_case(op: str, run, check) -> Case:
        return Case(f"{label}/{op}", op, run, check, state)

    return [
        op_case(
            "foliation.tangent_foliation",
            run_tangent,
            lambda fol: checks.check_tangent_foliation(fol, comps, chart),
        ),
        op_case(
            "foliation.generic_rank",
            lambda st: (need_fol(st), foliation.generic_rank(need_fol(st))),
            lambda out: checks.check_generic_rank(out[0], out[1]),
        ),
        op_case(
            "foliation.is_involutive",
            lambda st: (need_fol(st), foliation.is_involutive(need_fol(st))),
            lambda out: checks.check_involutive(out[0], out[1]),
        ),
        op_case(
            "foliation.singular_locus",
            lambda st: (need_fol(st), foliation.singular_locus(need_fol(st))),
            lambda out: checks.check_singular_locus(out[0], out[1]),
        ),
        op_case(
            "foliation.is_invariant_subsheaf",
            lambda st: (need_fol(st), foliation.is_invariant_subsheaf(need_fol(st), v)),
            lambda out: checks.check_invariant_subsheaf(out[0], v, out[1]),
        ),
    ]


def foliation_cases(seed: int) -> List[Case]:
    rng = random.Random(seed)
    cases: List[Case] = []
    group = 0
    for instance in range(FOLIATION_INSTANCES):
        for rung in FOLIATION_RUNGS:
            cases.extend(foliation_group(rng, rung, instance, group))
            group += 1
    return cases


# ---------------------------------------------------------------------------
# calculus: polynomial Lie calculus, rational flows, fields at infinity
# ---------------------------------------------------------------------------

# Rational flow rungs: (chart size, degree of numerator and denominator,
# degree of the flowing field, order).  Cost grows 3-10x per order; the
# last rung of each row is where the gcd cliff starts.
RATIONAL_FLOW_RUNGS = (
    (2, 1, 1, 1),
    (2, 1, 1, 2),
    (2, 1, 1, 3),
    (2, 1, 1, 4),
    (2, 1, 2, 1),
    (2, 1, 2, 2),
    (2, 1, 2, 3),
    (2, 2, 1, 1),
    (2, 2, 1, 2),
    (3, 1, 1, 1),
    (3, 1, 1, 2),
)

# Magnitude of the constant coefficient of P(t) on the line at infinity.
# rational_roots scans its divisors one integer at a time.
PLANAR_MAGNITUDES = (10**3, 10**5, 10**6, 10**7)


def _triangular_morphism(
    rng: random.Random, n: int, degree: int
) -> Tuple[PolyMap, VectorField, VectorField]:
    """(phi, v, w) with v(phi_j) = w_j o phi, so check_dmorphism must accept.

    phi is the triangular automorphism (x1, x2 + p2(x1), x3 + p3(x1, x2));
    w is a dense field on the target and v = Dphi^{-1} (w o phi), which is
    polynomial because Dphi is unipotent.
    """
    source = _chart(n)
    target = _chart(n, TARGET_NAMES)
    xs = source.vars()
    comps = [xs[0]]
    for k in range(1, n):
        lower = _chart(k)
        shift = dense_poly(rng, lower, 2).substitute(xs[:k])
        comps.append(xs[k] + shift)
    w = dense_field(rng, target, degree)
    pulled = [c.as_poly().substitute(comps) for c in w.coefficients]
    v_coeffs: List[Poly] = []
    for k in range(n):
        acc = pulled[k]
        for j in range(k):
            acc = acc - comps[k].partial(j) * v_coeffs[j]
        v_coeffs.append(acc)
    phi = PolyMap(source, target, tuple(comps))
    return phi, VectorField.from_coefficients(source, v_coeffs), w


def _planar_field(rng: random.Random, degree: int, magnitude: int) -> PlanarField:
    """A coprime planar field of the given degree whose restriction P(t) to
    the line at infinity has constant coefficient of about ``magnitude``
    and a small leading coefficient."""
    chart = _chart(2)
    while True:
        a = dense_poly(rng, chart, degree)
        b = dense_poly(rng, chart, degree)
        big = rng.randint(magnitude, magnitude + magnitude // 10) * rng.choice((1, -1))
        b_terms = dict(b.terms)
        b_terms[(degree, 0)] = Fraction(big)  # P(0) = coefficient of x^n in b
        b = Poly(chart, b_terms)
        try:
            return PlanarField(a, b)
        except ValueError:  # a common factor: draw again
            continue


def calculus_cases(seed: int) -> List[Case]:
    rng = random.Random(seed)
    cases: List[Case] = []

    def add(key: str, op: str, run, check) -> None:
        cases.append(Case(key, op, lambda st, run=run: run(), check))

    for instance in range(CALCULUS_INSTANCES):
        # polynomial part: denominators stay 1
        for n in (2, 3):
            chart = _chart(n)
            for d in (1, 2, 3):
                label = f"n{n}d{d}#{instance}"
                v = dense_field(rng, chart, d)
                w = dense_field(rng, chart, d)
                f = dense_poly(rng, chart, d)
                add(
                    f"{label}/lie_bracket",
                    "liecalc.lie_bracket",
                    lambda v=v, w=w: liecalc.lie_bracket(v, w),
                    lambda out, v=v, w=w: checks.check_lie_bracket(v, w, out),
                )
                add(
                    f"{label}/flow_series_field",
                    "liecalc.flow_series_field",
                    lambda v=v, w=w: liecalc.flow_series_field(v, w, 3),
                    lambda out, v=v, w=w: checks.check_flow_series_field(v, w, 3, out),
                )
                add(
                    f"{label}/flow_series_function",
                    "liecalc.flow_series_function",
                    lambda v=v, f=f: liecalc.flow_series_function(v, f, 4),
                    lambda out, v=v, f=f: checks.check_flow_series_function(v, RatFunc(f), 4, out),
                )
                phi, sv, tw = _triangular_morphism(rng, n, min(d, 2))
                add(
                    f"{label}/check_dmorphism",
                    "dmod.check_dmorphism",
                    lambda phi=phi, sv=sv, tw=tw: dmod.check_dmorphism(phi, sv, tw),
                    checks.check_dmorphism_ok,
                )
        # rational part: a few large gcds on powers of one denominator
        for n, d, vd, order in RATIONAL_FLOW_RUNGS:
            chart = _chart(n)
            v = dense_field(rng, chart, vd)
            f = RatFunc(dense_poly(rng, chart, d), dense_poly(rng, chart, d))
            add(
                f"rat-n{n}d{d}v{vd}o{order}#{instance}/flow_series_function",
                "liecalc.flow_series_function",
                lambda v=v, f=f, order=order: liecalc.flow_series_function(v, f, order),
                lambda out, v=v, f=f, order=order: checks.check_flow_series_function(
                    v, f, order, out
                ),
            )
        # fields at infinity with large coefficients
        for magnitude in PLANAR_MAGNITUDES:
            degree = 2 + (instance % 2)
            field_ = _planar_field(rng, degree, magnitude)
            label = f"planar-d{degree}-1e{len(str(magnitude)) - 1}#{instance}"
            add(
                f"{label}/infinity_analysis",
                "planar.infinity_analysis",
                lambda field_=field_: planar.infinity_analysis(field_),
                lambda out, field_=field_: checks.check_infinity_analysis(field_, out),
            )
            chart = field_.chart
            # instance by instance, a curve whose top form is Q (consistent) or a random one
            if len(cases) % 2:
                curve = planar.q_polynomial(field_) + dense_poly(rng, chart, degree)
            else:
                curve = dense_poly(rng, chart, degree + 1)
            add(
                f"{label}/invariant_curve_constraint",
                "planar.invariant_curve_constraint",
                lambda curve=curve, field_=field_: planar.invariant_curve_constraint(
                    curve, field_
                ),
                lambda out, curve=curve, field_=field_: checks.check_curve_constraint(
                    curve, field_, out
                ),
            )
    return cases


# ---------------------------------------------------------------------------
# cli: fresh liefol processes on the golden problem files
# ---------------------------------------------------------------------------


def golden_argvs(root: Path) -> List[Tuple[str, List[str]]]:
    """The eight argv lists of the CLI golden acceptance check."""
    g = root / "tests" / "golden"
    return [
        ("bracket.json", ["bracket", str(g / "bracket.txt"), "v", "w"]),
        (
            "invariance.json",
            ["invariance", str(g / "spatial.txt"), "--field", "rot", "--foliation", "F"],
        ),
        ("foliation.json", ["foliation", str(g / "spatial.txt"), "F"]),
        ("planar_radial.json", ["planar", str(g / "planar_radial.txt")]),
        ("planar_rotation.json", ["planar", str(g / "planar_rotation.txt")]),
        ("planar_hyperbolic.json", ["planar", str(g / "planar_hyperbolic.txt"), "--curve", "C"]),
        ("flow_series.json", ["flow-series", str(g / "flow_series.txt"), "f", "--order", "2"]),
        ("anosov.json", ["anosov", "--samples", "4", "--t-max", "25", "--seed", "0"]),
    ]


CLI_CYCLES = 10  # cycles of ten calls in one pass


@dataclass
class CliCall:
    key: str
    argv: List[str]
    golden: Optional[bytes]  # expected stdout, or None for default-flag anosov


def cli_calls(seed: int, root: Path) -> List[CliCall]:
    """Cycles of the eight golden calls plus two default-flag ``anosov``
    calls (one call in five), shuffled within each cycle."""
    rng = random.Random(seed)
    goldens = [
        (name, argv, (root / "tests" / "golden" / name).read_bytes())
        for name, argv in golden_argvs(root)
    ]
    calls: List[CliCall] = []
    for cycle in range(CLI_CYCLES):
        batch = [CliCall(f"{name}#{cycle}", argv, data) for name, argv, data in goldens]
        for k in range(2):
            anosov_seed = rng.randrange(2**31)
            batch.append(
                CliCall(f"anosov-default-{k}#{cycle}", ["anosov", "--seed", str(anosov_seed)], None)
            )
        rng.shuffle(batch)
        calls.extend(batch)
    return calls


def check_cli_output(call: CliCall, returncode: int, stdout: bytes) -> Optional[str]:
    if returncode != 0:
        return f"exit code {returncode}"
    if call.golden is not None:
        return None if stdout == call.golden else "report differs from the golden file"
    return checks.check_anosov_report(json.loads(stdout), int(call.argv[-1]))


def build(workload: str, seed: int, root: str):
    """The case list of one workload: CliCall for cli, Case otherwise."""
    if workload == "cli":
        return cli_calls(seed, Path(root))
    if workload == "foliation":
        return foliation_cases(seed)
    if workload == "calculus":
        return calculus_cases(seed)
    raise ValueError(f"unknown workload {workload!r}")
