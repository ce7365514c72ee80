"""Acceptance gate: nine pinned end-to-end checks, one pass/fail line each.

Every check prints a single ``[PASS]``/``[FAIL]`` line (visible under
``pytest -s`` or in the captured output).  Tolerances and corpus sizes
are pinned here and nowhere else; a failing check means the package no
longer meets its contract, not that the bound needs loosening.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from conftest import XY, XYZ, random_field, random_poly
from test_dmod import product_morphism

import liefol.hyperbolic as hyperbolic
from liefol import (
    Chart,
    MorphismPreconditionError,
    check_dmorphism,
    PlanarField,
    Poly,
    VectorField,
    apply_derivation,
    content,
    divides,
    generic_rank,
    invariant_curve_constraint,
    is_invariant_subsheaf,
    is_involutive,
    lie_bracket,
    q_polynomial,
    singular_locus,
    tangent_foliation,
)
from liefol.cli import main
from liefol.liecalc import flow_series_function
from liefol.planar import INFINITY_CHART, LINE_CHART, infinity_analysis

X1 = Chart(("x",))
GOLDEN = Path(__file__).parent / "golden"

LAMBDA_STABLE = (3.0 - math.sqrt(5.0)) / 2.0


def _report(index: int, name: str, detail: str) -> None:
    print(f"[PASS] {index}/9 {name}: {detail}")


def test_1_lie_identities_exact_on_random_fields():
    """Antisymmetry, Jacobi, and the Leibniz rule, exactly, 200 samples."""
    rng = random.Random(11)
    charts = (X1, XY, XYZ)
    start = time.monotonic()
    for i in range(200):
        chart = charts[i % 3]
        u = random_field(rng, chart, 3, 9)
        v = random_field(rng, chart, 3, 9)
        w = random_field(rng, chart, 3, 9)
        f = random_poly(rng, chart, 3, 9)

        assert lie_bracket(v, w) == -lie_bracket(w, v)

        jacobi = (
            lie_bracket(u, lie_bracket(v, w))
            + lie_bracket(v, lie_bracket(w, u))
            + lie_bracket(w, lie_bracket(u, v))
        )
        assert jacobi.is_zero()

        lhs = lie_bracket(v, w.scale(f))
        rhs = w.scale(apply_derivation(v, f)) + lie_bracket(v, w).scale(f)
        assert lhs == rhs
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"lie suite took {elapsed:.1f}s (bound 30s)"
    _report(1, "lie identities", f"200 random triples exact in {elapsed:.2f}s (bound 30s)")


def test_2_bracket_agrees_with_derivation_commutator():
    """The coordinate bracket equals the commutator of derivations, 100 pairs."""
    rng = random.Random(23)
    charts = (X1, XY, XYZ)
    for i in range(100):
        chart = charts[i % 3]
        v = random_field(rng, chart, 3, 9)
        w = random_field(rng, chart, 3, 9)
        br = lie_bracket(v, w)
        for j, name in enumerate(chart.variables):
            coord = chart.var(name)
            commutator = apply_derivation(v, apply_derivation(w, coord)) - apply_derivation(
                w, apply_derivation(v, coord)
            )
            assert br.coefficients[j] == commutator
    _report(2, "bracket oracle", "100 pairs match the derivation commutator exactly")


def test_3_morphism_checker_accepts_and_rejects():
    """100 product-type intertwinings accepted; 100 perturbations rejected."""
    rng = random.Random(202)
    start = time.monotonic()
    for _ in range(100):
        phi, v, w = product_morphism(rng)
        assert check_dmorphism(phi, v, w).ok
    rejected = 0
    for _ in range(100):
        phi, v, w = product_morphism(rng)
        coeffs = list(v.coefficients)
        j = rng.randrange(2)
        shift = Poly.constant(phi.source, 0)
        while shift.is_zero():
            shift = random_poly(rng, phi.source, 1, 3)
        coeffs[j] = coeffs[j] + shift
        broken = VectorField.from_coefficients(phi.source, tuple(coeffs))
        try:
            check_dmorphism(phi, broken, w)
        except MorphismPreconditionError as exc:
            assert exc.coordinate == j
            rejected += 1
        else:  # pragma: no cover
            raise AssertionError("perturbed non-morphism was accepted")
    elapsed = time.monotonic() - start
    assert rejected == 100
    assert elapsed < 30.0, f"morphism suite took {elapsed:.1f}s (bound 30s)"
    _report(3, "morphism checker", f"100 accepted + 100 rejected in {elapsed:.2f}s (bound 30s)")


def test_4_flow_series_matches_matrix_exponential():
    """For linear fields the series equals sum A^k t^k / k!, exactly, 50 matrices."""
    rng = random.Random(47)
    x, y = XY.vars()
    order = 8
    for _ in range(50):
        a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
        v = VectorField.from_coefficients(XY, (x * a + y * b, x * c + y * d))
        series = [flow_series_function(v, coord, order) for coord in (x, y)]
        power = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        matrix = [[Fraction(a), Fraction(b)], [Fraction(c), Fraction(d)]]
        for k in range(order + 1):
            scale = Fraction(1, factorial(k))
            for i in range(2):
                expected = x * (power[i][0] * scale) + y * (power[i][1] * scale)
                coeff = series[i].coefficient(k)
                assert coeff.is_polynomial() and coeff.as_poly() == expected
            power = [
                [
                    power[0][0] * matrix[0][0] + power[0][1] * matrix[1][0],
                    power[0][0] * matrix[0][1] + power[0][1] * matrix[1][1],
                ],
                [
                    power[1][0] * matrix[0][0] + power[1][1] * matrix[1][0],
                    power[1][0] * matrix[0][1] + power[1][1] * matrix[1][1],
                ],
            ]
    _report(4, "flow series", "50 linear fields match exact matrix-power sums to order 8")


def test_5_tangent_foliations_and_singular_loci():
    """100 dominant maps give involutive rank n-m foliations; invariance and
    the three pinned singular loci hold."""
    rng = random.Random(500)
    produced = 0
    while produced < 100:
        if produced % 3 == 0:
            chart, m = XY, 1
        elif produced % 3 == 1:
            chart, m = XYZ, 1
        else:
            chart, m = XYZ, 2
        comps = tuple(random_poly(rng, chart, 2, 5) for _ in range(m))
        try:
            fol = tangent_foliation(comps, chart)
        except ValueError:
            continue  # not dominant; resample
        produced += 1
        assert len(fol.generators) == chart.size - m
        assert generic_rank(fol) == chart.size - m
        assert is_involutive(fol).ok

    for _ in range(50):
        phi, v, w = product_morphism(rng)
        fol = tangent_foliation(phi.components, phi.source)
        assert is_invariant_subsheaf(fol, v).ok

    x, y = XY.vars()
    x3, y3, z3 = XYZ.vars()
    from liefol import FoliationGens

    radial = FoliationGens(XY, (VectorField.from_coefficients(XY, (x, y)),))
    assert [str(g) for g in singular_locus(radial).generators] == ["x", "y"]
    horizontal = FoliationGens(XY, (VectorField.from_coefficients(XY, (1, 0)),))
    assert [str(g) for g in singular_locus(horizontal).generators] == ["1"]
    pair = FoliationGens(
        XYZ,
        (
            VectorField.from_coefficients(XYZ, (-y3, x3, 0)),
            VectorField.from_coefficients(XYZ, (0, 0, 1)),
        ),
    )
    assert [str(g) for g in singular_locus(pair).generators] == ["x", "y"]
    _report(5, "tangent foliations", "100 dominant maps + 50 invariance triples + 3 pinned loci")


def test_6_infinity_transform_and_worked_fields(capsys):
    """200 coprime equal-degree pairs satisfy the line-at-infinity identities;
    the three worked planar fields reproduce their committed CLI reports."""
    rng = random.Random(600)
    s_var = INFINITY_CHART.var("s")
    t_var = LINE_CHART.var("t")
    produced = 0
    while produced < 200:
        a = random_poly(rng, XY, 3, 6)
        b = random_poly(rng, XY, 3, 6)
        if a.is_zero() or b.is_zero() or a.total_degree() != b.total_degree():
            continue
        if not content([a, b]).is_constant():
            continue
        field = PlanarField(a, b)
        q = q_polynomial(field)
        if q.is_zero():
            continue
        produced += 1
        report = infinity_analysis(field)
        assert divides(s_var, report.w_s)
        assert report.p_restricted == q.substitute((Poly.one(LINE_CHART), t_var))

    worked = [
        ("planar_radial.json", ["planar", str(GOLDEN / "planar_radial.txt")]),
        ("planar_rotation.json", ["planar", str(GOLDEN / "planar_rotation.txt")]),
        (
            "planar_hyperbolic.json",
            ["planar", str(GOLDEN / "planar_hyperbolic.txt"), "--curve", "C"],
        ),
    ]
    for name, argv in worked:
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / name).read_text(), f"{name} drifted"
    _report(6, "line at infinity", "200 random pairs exact + 3 worked fields byte-stable")


def test_7_first_integral_curves_never_excluded():
    """50 invariant curves built from first integrals all pass the constraint."""
    rng = random.Random(63)
    produced = 0
    while produced < 50:
        f = random_poly(rng, XY, 3, 5)
        if f.is_constant():
            continue
        fy = f.partial("y")
        fx = f.partial("x")
        v = VectorField.from_coefficients(XY, (-fy, fx))
        if v.is_zero():
            continue
        field = PlanarField.from_vector_field(v)
        if q_polynomial(field).is_zero():
            continue
        curve = f - Fraction(rng.randint(-5, 5))
        if curve.is_constant():
            continue
        produced += 1
        assert invariant_curve_constraint(curve, field) == "consistent"
    _report(7, "first integrals", "50 level-set curves, none excluded")


def test_8_hyperbolic_bench():
    """Rate estimate, the 3+3 classification, and leaf density, under 10s."""
    start = time.monotonic()
    report = hyperbolic.verify_anosov_bounds(t_max=100)
    assert report.passed
    err = abs(report.lambda_stable_est - LAMBDA_STABLE)
    assert err < 1e-6, f"stable rate off by {err:.3e}"

    origin = hyperbolic.fixed_point()
    lines = hyperbolic.classify_invariant_lines(origin, 1)
    planes = hyperbolic.classify_invariant_planes(origin, 1)
    assert len(lines) == 3 and [l.label for l in lines] == ["stable", "flow", "unstable"]
    assert len(planes) == 3 and [p.label for p in planes] == ["stable", "unstable", "strong"]

    coverage = hyperbolic.leaf_density(0.05, 2000.0)
    control = hyperbolic.leaf_density(0.05, 2000.0, direction=(1.0, 1.0))
    assert coverage >= 0.99, f"leaf coverage {coverage}"
    assert control < 0.9, f"rational-slope control {control}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"hyperbolic suite took {elapsed:.1f}s (bound 10s)"
    _report(
        8,
        "hyperbolic bench",
        f"rate err {err:.1e}, 3 lines + 3 planes, density {coverage:.2f} vs {control:.2f}, "
        f"{elapsed:.2f}s (bound 10s)",
    )


def test_9_cli_reports_match_golden_files(capsys):
    """Every subcommand's report on the worked examples is byte-identical."""
    cases = [
        ("bracket.json", ["bracket", str(GOLDEN / "bracket.txt"), "v", "w"]),
        (
            "invariance.json",
            ["invariance", str(GOLDEN / "spatial.txt"), "--field", "rot", "--foliation", "F"],
        ),
        ("foliation.json", ["foliation", str(GOLDEN / "spatial.txt"), "F"]),
        ("planar_radial.json", ["planar", str(GOLDEN / "planar_radial.txt")]),
        ("planar_rotation.json", ["planar", str(GOLDEN / "planar_rotation.txt")]),
        (
            "planar_hyperbolic.json",
            ["planar", str(GOLDEN / "planar_hyperbolic.txt"), "--curve", "C"],
        ),
        ("flow_series.json", ["flow-series", str(GOLDEN / "flow_series.txt"), "f", "--order", "2"]),
        ("anosov.json", ["anosov", "--samples", "4", "--t-max", "25", "--seed", "0"]),
    ]
    for name, argv in cases:
        assert main(argv) == 0, name
        out = capsys.readouterr().out
        golden = (GOLDEN / name).read_text()
        assert out == golden, f"{name} is not byte-identical"
        json.loads(out)  # every fixture is well-formed JSON
    _report(9, "golden files", f"{len(cases)} reports byte-identical to committed fixtures")
