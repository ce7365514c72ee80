"""Foliations: rank, involutivity, invariance, singular loci, saturation."""

from __future__ import annotations

import copy
import pickle
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import XY, XYZ, assert_value_type, random_field, random_poly, random_ratfunc
from liefol import (
    Chart,
    ChartMismatchError,
    FoliationGens,
    Poly,
    RatFunc,
    VectorField,
    Verdict,
    apply_derivation,
    check_dmorphism,
    generic_rank,
    invariant_hypersurface,
    is_invariant_subsheaf,
    is_involutive,
    lie_bracket,
    saturate_rank1,
    singular_locus,
    tangent_foliation,
)
from liefol import foliation as foliation_module
from liefol import linalg
from liefol import poly as poly_module
from liefol.cli import parse_problem
from liefol.foliation import SingularIdeal
from liefol.poly import (
    _dot,
    clear_denominators,
    content,
    divexact,
    divides,
    glex_key,
    normalize,
    poly_det,
)
from test_dmod import product_morphism

X, Y = XY.vars()
X3, Y3, Z3 = XYZ.vars()
ZERO2, ONE2 = Poly.zero(XY), Poly.one(XY)
ZERO3, ONE3 = Poly.zero(XYZ), Poly.one(XYZ)
XYZW = Chart(("x", "y", "z", "w"))
GOLDEN = Path(__file__).parent / "golden"


def vf2(*coeffs):
    return VectorField.from_coefficients(XY, coeffs)


def vf3(*coeffs):
    return VectorField.from_coefficients(XYZ, coeffs)


def same_direction(v, w):
    """Do two nonzero fields span the same direction over the function field?"""
    return linalg.RowSpace([v.coefficients, w.coefficients]).rank == 1


RADIAL = vf2(X, Y)
ROTATION = vf2(-Y, X)


class TestSaturation:
    def test_content_removed(self):
        assert saturate_rank1(vf2(X * ONE2, ZERO2)) == vf2(ONE2, ZERO2)
        assert saturate_rank1(vf2(X**2 * Y, X * Y**2)) == RADIAL

    def test_already_saturated(self):
        assert saturate_rank1(RADIAL) == RADIAL

    def test_rational_coefficients_cleared(self):
        v = VectorField.from_coefficients(XY, (RatFunc(Y, X), RatFunc(ONE2)))
        assert saturate_rank1(v) == vf2(Y, X)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            saturate_rank1(VectorField.zero(XY))

    def test_idempotent_on_random_fields(self):
        rng = random.Random(51)
        for _ in range(25):
            v = random_field(rng, XY, max_degree=3, coeff_bound=5, nonzero=True)
            s = saturate_rank1(v)
            assert saturate_rank1(s) == s
            assert same_direction(v, s)


class TestValueTypes:
    def test_foliation_gens(self):
        fol = FoliationGens(XY, (vf2(X**2, X * Y),))
        assert fol.generators == (RADIAL,)
        same = FoliationGens(chart=XY, generators=[RADIAL])
        assert_value_type(fol, same, FoliationGens(XY, (ROTATION,)))

    def test_foliation_gens_errors(self):
        with pytest.raises(ValueError, match="a foliation needs at least one generator"):
            FoliationGens(XY, ())
        with pytest.raises(ValueError, match="zero generator"):
            FoliationGens(XY, (VectorField.zero(XY),))
        with pytest.raises(ChartMismatchError, match="generator on a different chart"):
            FoliationGens(XYZ, (RADIAL,))

    def test_singular_ideal(self):
        ideal = singular_locus(FoliationGens(XY, (RADIAL,)))
        same = SingularIdeal(chart=XY, generators=(X, Y))
        assert_value_type(ideal, same, SingularIdeal(XY, (ONE2,)))

    def test_queried_foliation_equals_a_fresh_one(self):
        gens = (vf3(-Y3, X3, ZERO3), vf3(ZERO3, X3, ONE3))
        fol = FoliationGens(XYZ, gens)
        generic_rank(fol)
        singular_locus(fol)
        assert fol._span is not None
        fresh = FoliationGens(XYZ, gens)
        assert fresh._span is None
        assert repr(fol) == repr(fresh)
        assert_value_type(fol, fresh, FoliationGens(XYZ, gens[:1]))

    def test_copies_rebuild_without_the_memo(self):
        queried = FoliationGens(XYZ, (vf3(-Y3, X3, ZERO3), vf3(ZERO3, X3, ONE3)))
        singular_locus(queried)
        tangent = tangent_foliation((X3 * Y3 + Z3 * Fraction(1, 2),), XYZ)
        along = tangent.generators[0].scale(X3 - 2) + tangent.generators[1].scale(Y3 * Z3)
        across = vf3(Y3, ZERO3, X3 * Z3)
        for fol in (queried, tangent):
            assert fol._span is not None
            verdicts = [is_invariant_subsheaf(fol, v) for v in (along, across)]
            if fol is tangent:
                assert [verdict.ok for verdict in verdicts] == [True, False]
            for clone in (copy.copy(fol), copy.deepcopy(fol), pickle.loads(pickle.dumps(fol))):
                assert clone == fol and hash(clone) == hash(fol) and repr(clone) == repr(fol)
                assert clone._span is None
                assert singular_locus(clone) == singular_locus(fol)
                assert [is_invariant_subsheaf(clone, v) for v in (along, across)] == verdicts


class TestSameRank1:
    def test_constant_proportionality(self):
        v = vf2(X, Y**2)
        assert same_direction(v, vf2(3 * X, 3 * Y**2))

    def test_distinct_directions(self):
        assert not same_direction(RADIAL, ROTATION)

    def test_polynomial_proportionality(self):
        one_var = __import__("liefol").Chart(("x",))
        x = one_var.var("x")
        a = VectorField.from_coefficients(one_var, (x,))
        b = VectorField.from_coefficients(one_var, (x**2,))
        assert same_direction(a, b)


class TestGenericRank:
    def test_independent_constants(self):
        fol = FoliationGens(XYZ, (vf3(ONE3, ZERO3, ZERO3), vf3(ZERO3, ONE3, ZERO3)))
        assert generic_rank(fol) == 2

    def test_proportional_rows_collapse(self):
        fol = FoliationGens(XY, (RADIAL, vf2(2 * X, 2 * Y)))
        assert generic_rank(fol) == 1

    def test_rotation_and_vertical(self):
        fol = FoliationGens(XYZ, (vf3(-Y3, X3, ZERO3), vf3(ZERO3, ZERO3, ONE3)))
        assert generic_rank(fol) == 2


class TestInvolutivity:
    def test_rotation_and_vertical(self):
        fol = FoliationGens(XYZ, (vf3(-Y3, X3, ZERO3), vf3(ZERO3, ZERO3, ONE3)))
        result = is_involutive(fol)
        assert result.ok and result.witness is None

    def test_heisenberg_pair_fails_with_witness(self):
        fol = FoliationGens(XYZ, (vf3(ONE3, ZERO3, ZERO3), vf3(ZERO3, ONE3, X3)))
        result = is_involutive(fol)
        assert not result.ok
        assert result.witness == vf3(ZERO3, ZERO3, ONE3)

    def test_rank_one_always_involutive(self):
        rng = random.Random(52)
        for _ in range(10):
            v = random_field(rng, XYZ, max_degree=2, coeff_bound=4, nonzero=True)
            assert is_involutive(FoliationGens(XYZ, (v,))).ok


class TestInvariance:
    def test_translation_invariant_under_scaling(self):
        fol = FoliationGens(XY, (vf2(ONE2, ZERO2),))
        v = vf2(X, 2 * Y)
        assert is_invariant_subsheaf(fol, v).ok

    def test_shear_breaks_invariance(self):
        fol = FoliationGens(XY, (vf2(ONE2, ZERO2),))
        v = vf2(ZERO2, X)
        result = is_invariant_subsheaf(fol, v)
        assert not result.ok
        assert result.witness == vf2(ZERO2, -ONE2)

    def test_field_preserves_itself(self):
        rng = random.Random(53)
        for _ in range(10):
            v = random_field(rng, XY, max_degree=2, coeff_bound=4, nonzero=True)
            assert is_invariant_subsheaf(FoliationGens(XY, (v,)), v).ok


class TestSingularLocus:
    def test_radial(self):
        ideal = singular_locus(FoliationGens(XY, (RADIAL,)))
        assert [str(g) for g in ideal.generators] == ["x", "y"]
        assert ideal.generators != (Poly.one(XY),)

    def test_nonvanishing_field(self):
        ideal = singular_locus(FoliationGens(XY, (vf2(ONE2, ZERO2),)))
        assert [str(g) for g in ideal.generators] == ["1"]
        assert ideal.generators == (Poly.one(XY),)

    def test_a_constant_entry_of_the_reduced_form_forms_no_minor(self, monkeypatch):
        """A constant entry of the reduced form is ± a maximal minor, a unit:
        the locus is (1) and no minor is formed, for a tangent foliation
        (a linear map) and for a declared one (the map's kernel)."""
        monkeypatch.setattr(foliation_module, "_minor", None)  # calling it fails
        fol = tangent_foliation((2 * X3 - Y3 + 1, 3 * X3 + Z3), XYZ)
        twin = FoliationGens(XYZ, fol.generators)
        for f in (fol, twin):
            assert singular_locus(f).generators == (ONE3,)

    def test_rotation_and_vertical_z_axis(self):
        fol = FoliationGens(XYZ, (vf3(-Y3, X3, ZERO3), vf3(ZERO3, ZERO3, ONE3)))
        ideal = singular_locus(fol)
        assert [str(g) for g in ideal.generators] == ["x", "y"]

    def test_common_content_removed(self):
        # generators share the factor x after saturation is per-field only
        fol = FoliationGens(XY, (vf2(X**2, X * Y),))
        # saturation on admission already divides x out
        ideal = singular_locus(fol)
        assert [str(g) for g in ideal.generators] == ["x", "y"]

    def test_dependent_generators_rejected(self):
        fol = FoliationGens(XY, (RADIAL, vf2(2 * X, 2 * Y)))
        with pytest.raises(ValueError):
            singular_locus(fol)

    def test_str(self):
        ideal = singular_locus(FoliationGens(XY, (RADIAL,)))
        assert str(ideal) == "(x, y)"


def _reference_singular_locus(fol: FoliationGens) -> SingularIdeal:
    """The minor ideal with one Bareiss determinant per maximal column set
    of the generator matrix, the computation that reading the minors off
    the reduced form replaces."""
    p = len(fol.generators)
    matrix = [g.polynomial_coefficients() for g in fol.generators]
    minors = []
    for cols in combinations(range(fol.chart.size), p):
        det = poly_det([[row[c] for c in cols] for row in matrix])
        if not det.is_zero():
            minors.append(det)
    if not minors:
        raise ValueError("generators are dependent at the generic point")
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


def _singular_corpus(seed: int):
    """Seeded families on 2-4 variables: rational coefficients, columns
    zero in every generator (pivots off the leading columns), p = 2 on
    four variables, where a minor has k = 2 columns off the pivots, and
    dependent families."""
    rng = random.Random(seed)
    shapes = [(XY, 1), (XYZ, 1), (XYZ, 2), (XYZW, 1), (XYZW, 2), (XYZW, 2), (XYZW, 3)]
    for chart, p in shapes * 4:
        if p > 1 and rng.random() < 0.2:
            gens = [random_field(rng, chart, 2, 5, nonzero=True) for _ in range(p - 1)]
            dependent = gens[0].scale(random_poly(rng, chart, 1, 5, allow_zero=False))
            gens.append(dependent if p == 2 else dependent + gens[1])
            yield FoliationGens(chart, tuple(gens))
            continue
        dead = rng.randrange(chart.size) if rng.random() < 0.3 else None
        gens = []
        for _ in range(p):
            coeffs = []
            for k in range(chart.size):
                c = random_poly(rng, chart, max_degree=2, coeff_bound=5)
                if k == dead:
                    c = Poly.zero(chart)
                elif rng.random() < 0.3:
                    c = c * Fraction(rng.randint(-4, 4) or 1, rng.randint(2, 7))
                coeffs.append(c)
            v = VectorField.from_coefficients(chart, coeffs)
            if v.is_zero():
                break
            gens.append(v)
        else:
            yield FoliationGens(chart, tuple(gens))


class TestSingularLocusReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_one_determinant_per_minor(self, seed, monkeypatch):
        real_det, dets = foliation_module.poly_det, []
        monkeypatch.setattr(
            foliation_module, "poly_det", lambda rows: dets.append(1) or real_det(rows)
        )
        dependent = rational = 0
        for fol in _singular_corpus(seed):
            rational += any(
                c.denominator != 1
                for g in fol.generators
                for p in g.polynomial_coefficients()
                for c in p.terms.values()
            )
            try:
                expected = _reference_singular_locus(fol)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    singular_locus(fol)
                assert str(got.value) == str(exc)
                dependent += 1
                continue
            assert singular_locus(fol) == expected
        # each kind of family occurred, and some minor had k >= 2
        assert dependent and rational and dets


def _map_corpus(seed: int):
    """Seeded maps on 2-4 variables with m < n components of degree at most
    two: rational coefficients, some components rational functions, and
    some maps that are not dominant."""
    rng = random.Random(seed)
    for chart in (XY, XYZ, XYZ, XYZW, XYZW, XYZW) * 6:
        comps = []
        for _ in range(rng.randint(1, chart.size - 1)):
            f = random_poly(rng, chart, max_degree=2, coeff_bound=5)
            if rng.random() < 0.3:
                f = f * Fraction(rng.randint(-4, 4) or 1, rng.randint(2, 7))
            if rng.random() < 0.2:
                f = RatFunc(f, random_poly(rng, chart, max_degree=1, coeff_bound=5, allow_zero=False))
            comps.append(f)
        yield chart, comps


def _jacobian_content(fol):
    """The common content of the nonzero m×m minors of a tangent
    foliation's Jacobian, with one determinant per minor."""
    rows = fol.span.rows
    blocks = combinations(range(fol.chart.size), len(rows))
    minors = (poly_det([[row[c] for c in cols] for row in rows]) for cols in blocks)
    return content([m for m in minors if not m.is_zero()])


def _in_kernel(fol, vector):
    """Is w in ker J, J the Jacobian rows of the map of a tangent foliation?
    With w's denominators cleared, every row must annihilate it."""
    w = clear_denominators(vector)
    return all(_dot(fol.chart, zip(row, w)).is_zero() for row in fol.span.rows)


class TestTangentFoliationDifferential:
    """``tangent_foliation`` takes the kernel vectors as they are, and its
    span is the kernel of the map's Jacobian, which answers rank,
    involutivity, singular locus and invariance; the constructor, which
    saturates the generators again, eliminates them on first use and
    works on them alone, must agree, and so must one determinant per
    maximal minor of the generators.  Membership in ker J is J·w = 0.
    The content divided out of each kernel vector is a multiple of the
    common content of J's minors, which the singular locus divides away;
    the seeds give contents and locus contents other than 1."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_a_foliation_built_from_its_generators(self, seed, monkeypatch):
        rng = random.Random(100 + seed)
        real_det, dets = foliation_module.poly_det, []
        monkeypatch.setattr(
            foliation_module, "poly_det", lambda rows: dets.append(1) or real_det(rows)
        )
        kinds = {
            "rejected": 0,
            "p = 2": 0,
            "k >= 2": 0,
            "invariant": 0,
            "first row only": 0,
            "kernel content not 1": 0,
            "locus content not 1": 0,
        }
        for chart, comps in _map_corpus(seed):
            try:
                fol = tangent_foliation(comps, chart)
            except ValueError:
                kinds["rejected"] += 1
                continue
            ref = FoliationGens(chart, fol.generators)
            assert fol.generators == ref.generators
            assert all(saturate_rank1(g) == g for g in fol.generators)
            kinds["p = 2"] += len(fol.generators) == 2
            assert generic_rank(fol) == generic_rank(ref) == len(fol.generators)
            common = _jacobian_content(fol)
            assert len(fol.span.contents) == len(fol.generators)
            assert all(divides(common, g) for g in fol.span.contents)
            kinds["kernel content not 1"] += any(not g.is_one() for g in fol.span.contents)
            kinds["locus content not 1"] += not common.is_one()
            assert is_involutive(fol) == is_involutive(ref)
            del dets[:]
            locus = singular_locus(fol)
            # a Jacobian minor with two columns off the Jacobian's pivots
            kinds["k >= 2"] += bool(dets)
            assert locus == singular_locus(ref) == _reference_singular_locus(ref)
            combination = [RatFunc.zero(chart)] * chart.size
            for g in fol.generators:
                factor = RatFunc(random_poly(rng, chart, 1, 5), random_poly(rng, chart, 1, 5, allow_zero=False))
                combination = [a + factor * c for a, c in zip(combination, g.coefficients)]
            assert _in_kernel(fol, combination) and combination in ref.span
            other = random_field(rng, chart, max_degree=2, coeff_bound=5).coefficients
            assert _in_kernel(fol, other) == (other in ref.span)
            # tangent to the fibres of φ_1 alone: the first Jacobian row
            # annihilates them, and the others need not
            for g in tangent_foliation(comps[:1], chart).generators:
                inside = _in_kernel(fol, g.coefficients)
                assert inside == (g.coefficients in ref.span)
                kinds["first row only"] += not inside
            # Frobenius: every bracket of two kernel generators is in ker J
            for gi, gj in combinations(fol.generators, 2):
                assert _in_kernel(fol, lie_bracket(gi, gj).coefficients)
            # zip would truncate silently: a wrong length is an error
            for wrong in (combination[:-1], combination + [RatFunc.zero(chart)]):
                with pytest.raises(ValueError, match="vector length differs"):
                    wrong in ref.span
            tangent = VectorField.zero(chart)
            for g in fol.generators:
                tangent = tangent + g.scale(random_poly(rng, chart, 1, 5))
            fields = {
                "random": random_field(rng, chart, max_degree=2, coeff_bound=5),
                "rational": VectorField.from_coefficients(
                    chart, [random_ratfunc(rng, chart, 1) for _ in range(chart.size)]
                ),
                "tangent": tangent,
                "rational tangent": VectorField.from_coefficients(chart, combination),
            }
            for name, v in fields.items():
                got = is_invariant_subsheaf(fol, v)
                assert got == is_invariant_subsheaf(ref, v)
                if name.endswith("tangent"):
                    assert got.ok
                kinds["invariant"] += got.ok
        assert all(kinds.values()), kinds

    def test_a_kernel_content_of_one_takes_no_locus_gcd(self, monkeypatch):
        """Each kernel entry is a minor of the Jacobian, so one kernel
        vector of content 1 makes the common content of the minors 1: the
        tangent singular locus runs no GCDHEU.  The declared twin, which
        has no kernel contents, takes its gcds and gets the same locus."""
        a, b, c, d = XYZW.vars()
        comps = (a**2 + b * c - d * Fraction(2, 3), b * d + a * c * Fraction(1, 5))
        fol = tangent_foliation(comps, XYZW)
        assert any(g.is_one() for g in fol.span.contents)
        calls, real = [], poly_module._heu_gcd
        monkeypatch.setattr(poly_module, "_heu_gcd", lambda p, q: calls.append(1) or real(p, q))
        locus = singular_locus(fol)
        assert len(locus.generators) == 6 and not calls
        assert singular_locus(FoliationGens(XYZW, fol.generators)) == locus
        assert calls

    @pytest.mark.parametrize("name", ["m1", "m2"])
    def test_involutive_as_its_declared_twin(self, name):
        """A tangent foliation is involutive by construction and takes no
        bracket; its declared twin brackets its generators and must agree."""
        problem = parse_problem((GOLDEN / "map_foliation.txt").read_text())
        _, _, comps = problem.lookup("map", name)
        fol = tangent_foliation(comps, problem.chart)
        twin = FoliationGens(problem.chart, fol.generators)
        assert is_involutive(fol) == is_involutive(twin) == (True, None)

    def test_declared_twin_of_two_dense_cubics(self):
        """The foliation declared by the kernel generators of two dense
        cubics on four variables answers rank and involutivity as their
        tangent foliation does, within 2 s.  Eliminating on the generators
        themselves forms sums of thousands of term products, the large-sum
        path of `poly._dot` that the benchmark workloads never reach."""
        problem = parse_problem((GOLDEN / "map_degree3_rank2.txt").read_text())
        _, _, comps = problem.lookup("map", "m")
        fol = tangent_foliation(comps, problem.chart)
        twin = FoliationGens(problem.chart, fol.generators)
        start = time.perf_counter()
        rank, involutive = generic_rank(twin), is_involutive(twin)
        assert time.perf_counter() - start < 2.0
        assert rank == generic_rank(fol) == 2
        assert involutive.ok and is_involutive(fol).ok


class TestTangentFoliation:
    def test_coordinate_projection(self):
        fol = tangent_foliation((RatFunc(X),), XY)
        assert fol.generators == (vf2(ZERO2, ONE2),)

    def test_circle_levels(self):
        fol = tangent_foliation((RatFunc(X**2 + Y**2),), XY)
        assert fol.generators == (ROTATION,)

    def test_rational_first_integral(self):
        fol = tangent_foliation((RatFunc(Y, X),), XY)
        assert fol.generators == (RADIAL,)

    def test_accepts_bare_polynomials(self):
        fol = tangent_foliation((X**2 + Y**2,), XY)
        assert fol.generators == (ROTATION,)

    def test_not_dominant_rejected(self):
        with pytest.raises(ValueError, match="dominant"):
            tangent_foliation((X, X**2), XY)

    def test_finite_fibres_rejected(self):
        with pytest.raises(ValueError):
            tangent_foliation((X, Y), XY)

    def test_kernel_annihilates_components(self):
        rng = random.Random(54)
        produced = 0
        while produced < 25:
            f = random_poly(rng, XYZ, max_degree=2, coeff_bound=4)
            if f.is_constant():
                continue
            fol = tangent_foliation((f,), XYZ)
            produced += 1
            assert generic_rank(fol) == 2
            assert is_involutive(fol).ok
            for g in fol.generators:
                assert apply_derivation(g, f).is_zero()


    def test_polynomial_map_constructs_no_fraction(self, monkeypatch):
        """On a polynomial map the tangent foliation and its singular locus
        run on integer numerators alone: the normal forms, the units of the
        kernel vectors and the division by a constant construct no
        ``Fraction``.  The loci are those of the generators."""
        maps = [
            ((X**2 * Y,), XY),  # a kernel content of x
            ((X3**2 + Y3 * Z3, X3 * Y3 - 2 * Z3**2), XYZ),
            ((-3 * X3**2 + 6 * Y3 * Z3 + 9,), XYZ),
            ((2 * X3 - Y3, 3 * X3 + Z3), XYZ),
        ]
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        if "_from_coprime_ints" in vars(Fraction):  # Python 3.12 arithmetic
            coprime = Fraction._from_coprime_ints
            monkeypatch.setattr(
                Fraction,
                "_from_coprime_ints",
                classmethod(lambda cls, n, d: made.append((n, d)) or coprime(n, d)),
            )
        results = [singular_locus(tangent_foliation(comps, chart)) for comps, chart in maps]
        monkeypatch.undo()
        assert made == []
        for (comps, chart), ideal in zip(maps, results):
            fol = tangent_foliation(comps, chart)
            assert ideal == _reference_singular_locus(FoliationGens(chart, fol.generators))


class TestMorphismInvariance:
    """Tangent foliations of flow morphisms are invariant under the flow."""

    def test_product_family(self):
        rng = random.Random(55)
        checked = 0
        while checked < 25:
            phi, v, w = product_morphism(rng)
            if any(c.is_constant() for c in phi.components):
                continue
            assert check_dmorphism(phi, v, w).ok
            fol = tangent_foliation(phi.components, phi.source)
            result = is_invariant_subsheaf(fol, v)
            assert result.ok, result.witness
            checked += 1

    def test_denominators_cleared_once_per_field(self, monkeypatch):
        """A tangent foliation's invariance test clears the denominators of
        v once, not once per component of φ, and those of no generator,
        which are stored polynomial; the verdicts are those of the
        foliation built from the same generators."""
        calls = []
        real = foliation_module._common_denominator
        monkeypatch.setattr(
            foliation_module, "_common_denominator", lambda fs: calls.append(1) or real(fs)
        )
        x, y, z, w = XYZW.vars()
        rng = random.Random(57)
        v = VectorField(XYZW, (x * y, x - y**2, z * w, x + w))
        cases = [(tangent_foliation((x, y), XYZW), v)]
        for _ in range(5):
            phi, v, _ = product_morphism(rng)
            cases.append((tangent_foliation(phi.components, phi.source), v))
        for fol, v in cases:
            assert len(fol.span.components) == 2
            del calls[:]
            assert is_invariant_subsheaf(fol, v).ok
            assert len(calls) == 1
            assert is_invariant_subsheaf(FoliationGens(fol.chart, fol.generators), v).ok

    def test_the_three_checks_return_one_verdict(self):
        """Involutivity, invariance and the D-morphism check answer with the
        one type ``Verdict``, on declared and tangent foliations alike, with
        a witness or without."""
        phi, v, w = product_morphism(random.Random(58))
        tangent = tangent_foliation(phi.components, phi.source)
        declared = FoliationGens(tangent.chart, tangent.generators)
        heisenberg = FoliationGens(XYZ, (vf3(ONE3, ZERO3, ZERO3), vf3(ZERO3, ONE3, X3)))
        shear = FoliationGens(XY, (vf2(ONE2, ZERO2),))
        verdicts = [
            check_dmorphism(phi, v, w),
            is_involutive(tangent),
            is_involutive(declared),
            is_involutive(heisenberg),
            is_invariant_subsheaf(tangent, v),
            is_invariant_subsheaf(declared, v),
            is_invariant_subsheaf(shear, vf2(ZERO2, X)),
        ]
        assert {type(r) for r in verdicts} == {Verdict}
        assert [r.ok for r in verdicts] == [True] * 3 + [False, True, True, False]
        assert verdicts[3].witness == vf3(ZERO3, ZERO3, ONE3)
        assert verdicts[6] == Verdict(False, vf2(ZERO2, -ONE2))

    def test_first_integral_level_sets(self):
        # x*y is a first integral of x dx - y dy; its tangent foliation
        # is spanned by the field itself
        v = vf2(X, -Y)
        fol = tangent_foliation((X * Y,), XY)
        assert is_invariant_subsheaf(fol, v).ok
        assert same_direction(fol.generators[0], v)


class TestInvariantHypersurface:
    def test_axis_invariant(self):
        assert invariant_hypersurface(Y, vf2(X, -Y))

    def test_translated_line_not_invariant(self):
        assert not invariant_hypersurface(X + Y, vf2(ONE2, ZERO2))

    def test_conic(self):
        assert invariant_hypersurface(X**2 - Y**2 - 1, vf2(Y, X))

    def test_unit_circle_under_rotation(self):
        assert invariant_hypersurface(X**2 + Y**2 - 1, ROTATION)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            invariant_hypersurface(ONE2, RADIAL)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            invariant_hypersurface(X**2, RADIAL)

    def test_rational_field_cleared(self):
        v = VectorField.from_coefficients(XY, (RatFunc(X, Y), RatFunc.constant(XY, -1)))
        # saturation gives (x, -y): both axes invariant
        assert invariant_hypersurface(X, v)
        assert invariant_hypersurface(Y, v)
