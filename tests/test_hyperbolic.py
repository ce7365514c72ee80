"""Exact suspension dynamics, tangent cocycle, and leaf density."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import assert_value_type
from liefol import (
    AnosovReport,
    LabeledLine,
    LabeledPlane,
    SuspensionState,
    TangentFrame,
    cat_power,
    classify_invariant_lines,
    classify_invariant_planes,
    crossings,
    differential_flow,
    fixed_point,
    leaf_density,
    plane_is_invariant,
    suspension_flow,
    torus_distance,
    verify_anosov_bounds,
)
from liefol import hyperbolic
from liefol.hyperbolic import _leaf_boxes

LAMBDA_S = (3.0 - math.sqrt(5.0)) / 2.0
LAMBDA_U = (3.0 + math.sqrt(5.0)) / 2.0


def rand_state(rng):
    return SuspensionState(
        Fraction(rng.randint(0, 999), 1000),
        Fraction(rng.randint(0, 999), 1000),
        Fraction(rng.randint(0, 999), 1000),
    )


def rand_time(rng):
    return Fraction(rng.randint(-4000, 4000), 100)


class TestFlow:
    def test_fixed_point(self):
        assert suspension_flow(fixed_point(), 1) == fixed_point()
        assert suspension_flow(fixed_point(), Fraction(17, 3)).x == 0

    def test_time_zero_is_identity(self):
        s = SuspensionState(Fraction(1, 3), Fraction(2, 7), Fraction(1, 2))
        assert suspension_flow(s, 0) == s

    def test_single_crossing(self):
        s = SuspensionState(Fraction(1, 4), Fraction(0), Fraction(1, 2))
        out = suspension_flow(s, Fraction(1, 2))
        assert (out.x, out.y, out.roof) == (Fraction(1, 2), Fraction(1, 4), Fraction(0))

    def test_group_law_exact(self):
        rng = random.Random(71)
        for _ in range(60):
            s = rand_state(rng)
            t1, t2 = rand_time(rng), rand_time(rng)
            assert suspension_flow(s, t1 + t2) == suspension_flow(
                suspension_flow(s, t1), t2
            )

    def test_flow_invertible(self):
        rng = random.Random(72)
        for _ in range(30):
            s = rand_state(rng)
            t = rand_time(rng)
            assert suspension_flow(suspension_flow(s, t), -t) == s

    def test_period_two_orbit(self):
        s = SuspensionState(Fraction(4, 5), Fraction(3, 5), Fraction(0))
        assert suspension_flow(s, 2) == s
        assert suspension_flow(s, 1) != s

    def test_crossings(self):
        s = SuspensionState(Fraction(0), Fraction(0), Fraction(1, 2))
        assert crossings(s, Fraction(1, 4)) == 0
        assert crossings(s, Fraction(1, 2)) == 1
        assert crossings(s, 7) == 7
        assert crossings(s, -1) == -1

    def test_flow_matches_the_unreduced_matrix(self):
        # suspension_flow reduces CAT^k mod the common denominator of x and y
        rng = random.Random(76)
        for _ in range(150):
            exact = rand_state(rng)
            binary = SuspensionState(rng.random(), rng.random(), rng.random())
            t = rng.choice((rand_time(rng), rng.uniform(-60, 60)))
            for s in (exact, binary):
                k = crossings(s, t)
                m = cat_power(k)
                x = m[0][0] * s.x + m[0][1] * s.y
                y = m[1][0] * s.x + m[1][1] * s.y
                assert suspension_flow(s, t) == SuspensionState(x, y, s.roof + Fraction(t) - k)

    def test_millions_of_crossings_answer_at_once(self):
        s = SuspensionState(Fraction(1, 3), Fraction(2, 7), Fraction(1, 2))
        start = time.perf_counter()
        out = suspension_flow(s, 3 * 10**6 + 3)
        assert time.perf_counter() - start < 1.0
        # the orbit of (1/3, 2/7) under CAT mod 1 has period 8
        assert out == suspension_flow(s, 3) != s

    def test_integer_times_cross_the_roof_t_times(self):
        # the per-time rates of verify_anosov_bounds rely on this from any state
        rng = random.Random(73)
        for _ in range(200):
            s = SuspensionState(*(Fraction(rng.random()) for _ in range(3)))
            t = rng.randint(1, 300)
            assert crossings(s, t) - crossings(s, 0) == t


class TestValueTypes:
    def test_suspension_state(self):
        s = SuspensionState(Fraction(5, 4), Fraction(-1, 3), 2)
        assert (s.x, s.y, s.roof) == (Fraction(1, 4), Fraction(2, 3), Fraction(0))
        assert all(type(c) is Fraction for c in (s.x, s.y, s.roof))
        same = SuspensionState(x=0.25, y=Fraction(2, 3), roof=Fraction(-3))
        assert_value_type(s, same, SuspensionState(Fraction(1, 4), Fraction(2, 3), Fraction(1, 2)))
        with pytest.raises(TypeError, match="bad coordinate type: str"):
            SuspensionState("1/2", 0, 0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinates_rejected(self, value):
        message = "a coordinate must be finite"
        with pytest.raises(ValueError, match=message):
            SuspensionState(value, 0, 0)
        with pytest.raises(ValueError, match=message):
            SuspensionState(0, 0, value)
        with pytest.raises(ValueError, match=message):
            suspension_flow(fixed_point(), value)
        with pytest.raises(ValueError, match=message):
            crossings(fixed_point(), value)

    def test_records(self):
        frame = TangentFrame.cat_frame()
        assert frame._fields[-1] == "FLOW" and frame.FLOW == (0.0, 0.0, 1.0)
        assert TangentFrame(*frame[:4]) == frame
        report = verify_anosov_bounds(t_max=5)
        assert report._fields[0] == "lambda_stable_est" and report.swapped is False
        assert AnosovReport(**report._asdict()) == report
        line = LabeledLine("flow", 1.0, (0.0, 0.0, 1.0))
        assert line in classify_invariant_lines(fixed_point(), 1)
        plane = LabeledPlane(label="strong", basis=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
        for record in (frame, report, line, plane):
            assert type(record)(*record) == record
            assert hash(type(record)(*record)) == hash(record)
            with pytest.raises(AttributeError):
                record.label = "other"


class TestTorusDistance:
    def test_wraparound(self):
        a = SuspensionState(Fraction(1, 100), 0, 0)
        b = SuspensionState(Fraction(99, 100), 0, 0)
        assert torus_distance(a, b) == pytest.approx(0.02)

    def test_symmetry_and_identity(self):
        rng = random.Random(73)
        for _ in range(10):
            a, b = rand_state(rng), rand_state(rng)
            assert torus_distance(a, b) == torus_distance(b, a)
            assert torus_distance(a, a) == 0.0


class TestCatPower:
    def test_inverse(self):
        assert cat_power(-1) == ((1, -1), (-1, 2))
        for k in range(-6, 7):
            m = cat_power(k)
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1

    def test_additivity(self):
        for a in range(-4, 5):
            for b in range(-4, 5):
                mab = cat_power(a + b)
                ma, mb = cat_power(a), cat_power(b)
                prod = (
                    (
                        ma[0][0] * mb[0][0] + ma[0][1] * mb[1][0],
                        ma[0][0] * mb[0][1] + ma[0][1] * mb[1][1],
                    ),
                    (
                        ma[1][0] * mb[0][0] + ma[1][1] * mb[1][0],
                        ma[1][0] * mb[0][1] + ma[1][1] * mb[1][1],
                    ),
                )
                assert prod == mab


class TestDifferential:
    def test_flow_direction_preserved(self):
        rng = random.Random(74)
        for _ in range(10):
            s = rand_state(rng)
            t = rand_time(rng)
            assert differential_flow((0.0, 0.0, 1.0), t, s) == (0.0, 0.0, 1.0)

    def test_stable_direction_contracts(self):
        frame = TangentFrame.cat_frame()
        u = (frame.stable[0], frame.stable[1], 0.0)
        out = differential_flow(u, 1, fixed_point())
        for got, want in zip(out, (LAMBDA_S * u[0], LAMBDA_S * u[1], 0.0)):
            assert got == pytest.approx(want, abs=1e-12)

    def test_unstable_direction_squares(self):
        frame = TangentFrame.cat_frame()
        u = (frame.unstable[0], frame.unstable[1], 0.0)
        out = differential_flow(u, 2, fixed_point())
        for got, want in zip(out, (LAMBDA_U**2 * u[0], LAMBDA_U**2 * u[1], 0.0)):
            assert got == pytest.approx(want, rel=1e-12)

    def test_cocycle_multiplicativity(self):
        rng = random.Random(75)
        for _ in range(20):
            s = rand_state(rng)
            t1, t2 = rng.randint(-10, 10), rng.randint(-10, 10)
            u = (float(rng.randint(-3, 3)), float(rng.randint(-3, 3)), 1.0)
            mid = suspension_flow(s, t1)
            # integer times keep all arithmetic in exact integers
            step = differential_flow(differential_flow(u, t1, s), t2, mid)
            alltogether = differential_flow(u, t1 + t2, s)
            assert step == alltogether

    def test_crossing_guard(self):
        with pytest.raises(ValueError, match="refuse"):
            differential_flow((1.0, 0.0, 0.0), 10**6, fixed_point())

    def test_bad_vector_length(self):
        with pytest.raises(ValueError):
            differential_flow((1.0, 0.0), 1, fixed_point())


class TestAnosovBounds:
    def test_bounds_hold(self):
        report = verify_anosov_bounds(t_max=40)
        assert report.passed
        assert abs(report.lambda_stable_est - LAMBDA_S) < 1e-6
        assert abs(report.lambda_unstable_est - LAMBDA_U) < 1e-6
        assert abs(report.lambda_stable_est * report.lambda_unstable_est - 1) < 1e-12
        assert abs(report.lambda_stable_est - report.lambda_stable_backward) < 1e-9
        assert report.c_stable < 10 and report.c_unstable < 10
        assert report.c_stable_lower > 0.1
        assert report.flow_exponent == pytest.approx(0.0, abs=1e-9)

    def test_swapped_bundles_fail(self):
        report = verify_anosov_bounds(t_max=30, swap_bundles=True)
        assert not report.passed

    def test_reproducible(self):
        assert verify_anosov_bounds(t_max=25) == verify_anosov_bounds(t_max=25)

    def test_draws_no_sample_states(self):
        # the cocycle is the same at every state, so there is no sample
        # count or seed to pass, and none in the report
        with pytest.raises(TypeError):
            verify_anosov_bounds(samples=1)
        with pytest.raises(TypeError):
            verify_anosov_bounds(seed=0)
        assert not {"samples", "seed"} & set(AnosovReport._fields)

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            verify_anosov_bounds(t_max=1)
        with pytest.raises(ValueError):
            verify_anosov_bounds(t_max=10**4)


class TestInvariantLines:
    def test_three_lines_at_fixed_point(self):
        lines = classify_invariant_lines(fixed_point(), 1)
        assert [ln.label for ln in lines] == ["stable", "flow", "unstable"]
        eigs = [ln.eigenvalue for ln in lines]
        assert eigs[0] == pytest.approx(LAMBDA_S, abs=1e-9)
        assert eigs[1] == pytest.approx(1.0, abs=1e-12)
        assert eigs[2] == pytest.approx(LAMBDA_U, abs=1e-9)

    def test_crossings_beyond_the_bound_rejected(self):
        # lambda_s^k underflows at k = 738 and lambda_u^k overflows by 800;
        # the bound is differential_flow's
        bound = hyperbolic._MAX_CROSSINGS
        assert classify_invariant_lines(fixed_point(), bound)[0].eigenvalue > 0
        for k in (bound + 1, 738, 800, -800):
            for classify in (classify_invariant_lines, classify_invariant_planes):
                with pytest.raises(ValueError, match=f"refuse beyond {bound}"):
                    classify(fixed_point(), k)

    def test_period_two_squares_eigenvalues(self):
        s = SuspensionState(Fraction(4, 5), Fraction(3, 5), Fraction(0))
        lines = classify_invariant_lines(s, 2)
        assert lines[0].eigenvalue == pytest.approx(LAMBDA_S**2, abs=1e-9)
        assert lines[2].eigenvalue == pytest.approx(LAMBDA_U**2, abs=1e-9)
        # the eigendirections agree with those at the fixed point: the
        # splitting of a constant-coefficient cocycle does not move
        base = classify_invariant_lines(fixed_point(), 1)
        for got, want in zip(lines, base):
            assert got.direction == pytest.approx(want.direction, abs=1e-9)


def _return_map(state, period):
    """The return differential CAT^k (+) 1, k the roof crossings in one period."""
    m = cat_power(crossings(state, period))
    return ((m[0][0], m[0][1], 0), (m[1][0], m[1][1], 0), (0, 0, 1))


def _numpy_lines(state, period):
    """The float classification that the exact one replaced: np.linalg.eig
    of the 3x3 return map, sorted by modulus, unit length, first
    non-negligible component positive."""
    np = pytest.importorskip("numpy")
    values, vectors = np.linalg.eig(np.array(_return_map(state, period), dtype=float))
    lines = []
    for idx in np.argsort(np.abs(values.real)):
        v = vectors[:, idx].real
        v = v / np.linalg.norm(v)
        if next(c for c in v if abs(c) > 1e-12) < 0:
            v = -v
        lines.append((float(values[idx].real), tuple(float(c) for c in v)))
    return lines


def _numpy_plane_is_invariant(state, period, u, w):
    np = pytest.importorskip("numpy")
    m = np.array(_return_map(state, period), dtype=float)
    normal = np.cross(np.asarray(u, dtype=float), np.asarray(w, dtype=float))
    normal = normal / np.linalg.norm(normal)
    images = [m @ np.asarray(vec, dtype=float) for vec in (u, w)]
    return all(abs(img @ normal) <= 1e-9 * np.linalg.norm(img) for img in images)


class TestExactClassification:
    """The exact eigendata against the numpy path it replaced."""

    @pytest.mark.parametrize("period", [1, 2, 3, -1])
    def test_lines_match_numpy_eig(self, period):
        lines = classify_invariant_lines(fixed_point(), period)
        assert [ln.label for ln in lines] == ["stable", "flow", "unstable"]
        for line, (value, direction) in zip(lines, _numpy_lines(fixed_point(), period)):
            assert line.eigenvalue == pytest.approx(value, abs=1e-12)
            assert line.direction == pytest.approx(direction, abs=1e-12)

    def test_negative_period_swaps_the_eigenvectors(self):
        forward = classify_invariant_lines(fixed_point(), 1)
        backward = classify_invariant_lines(fixed_point(), -1)
        assert backward[0].direction == forward[2].direction
        assert backward[2].direction == forward[0].direction
        assert backward[0].eigenvalue == forward[0].eigenvalue

    @pytest.mark.parametrize("period", [0, 1, 2, 3, -1])
    def test_invariance_checks_match_numpy(self, period):
        state = fixed_point()
        eigen = [ln.direction for ln in classify_invariant_lines(state, 1)]
        rng = random.Random(76)
        others = [(1.0, 0.0, 0.0), (0.0, 1.0, 1.0), (eigen[0][0] + 0.01, eigen[0][1], 0.0)]
        others += [tuple(float(rng.randint(-5, 5)) for _ in range(3)) for _ in range(6)]
        vectors = [v for v in eigen + others if any(v)]
        for i, u in enumerate(vectors):
            for w in vectors[i + 1 :]:
                try:
                    got = plane_is_invariant(state, period, u, w)
                except ValueError:  # parallel pair
                    continue
                assert got == _numpy_plane_is_invariant(state, period, u, w)

    def test_equal_moduli_rejected(self):
        # zero roof crossings: the return map is the identity
        with pytest.raises(ValueError, match="equal modulus"):
            classify_invariant_lines(fixed_point(), 0)

    def test_open_orbit_rejected_everywhere(self):
        s = SuspensionState(Fraction(1, 3), Fraction(0), Fraction(0))
        with pytest.raises(ValueError, match="does not close"):
            classify_invariant_lines(s, 1)
        with pytest.raises(ValueError, match="does not close"):
            plane_is_invariant(s, 1, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))


class TestInvariantPlanes:
    def test_three_planes_at_fixed_point(self):
        planes = classify_invariant_planes(fixed_point(), 1)
        assert [p.label for p in planes] == ["stable", "unstable", "strong"]

    def test_plane_membership(self):
        planes = {p.label: p for p in classify_invariant_planes(fixed_point(), 1)}
        for plane in planes.values():
            u, w = plane.basis
            assert plane_is_invariant(fixed_point(), 1, u, w)

    def test_random_flow_plane_not_invariant(self):
        # plane spanned by the flow direction and a non-eigen vector
        assert not plane_is_invariant(fixed_point(), 1, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))

    def test_degenerate_basis_rejected(self):
        with pytest.raises(ValueError, match="plane"):
            plane_is_invariant(fixed_point(), 1, (1.0, 0.0, 0.0), (2.0, 0.0, 0.0))


class TestLeafDensity:
    def test_single_box(self):
        assert leaf_density(1.0, 5.0) == 1.0

    def test_irrational_slope_fills(self):
        assert leaf_density(0.05, 2000.0) == 1.0

    def test_rational_slope_plateaus(self):
        # the diagonal from the origin only ever meets diagonal boxes: it
        # passes through every corner between them and steps diagonally
        for arc in (5.0, 50.0, 2000.0):
            assert leaf_density(0.05, arc, direction=(1.0, 1.0)) == 20 / 400

    def test_monotone_in_arc_length(self):
        short = leaf_density(0.05, 5.0)
        longer = leaf_density(0.05, 50.0)
        assert short <= longer

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            leaf_density(0.0, 10.0)
        with pytest.raises(ValueError):
            leaf_density(0.05, -1.0)
        with pytest.raises(ValueError):
            leaf_density(0.05, 10.0, direction=(0.0, 0.0))

    @pytest.mark.parametrize("arc", [math.inf, math.nan])
    def test_non_finite_arc_length_rejected(self, arc):
        with pytest.raises(ValueError, match="arc_length must be positive and finite"):
            leaf_density(0.05, arc)

    @pytest.mark.parametrize(
        "direction", [(math.inf, 1.0), (1.0, -math.inf), (math.nan, 1.0), (math.nan, math.nan)]
    )
    def test_non_finite_direction_rejected(self, direction):
        with pytest.raises(ValueError, match="direction must be finite"):
            leaf_density(0.05, 10.0, direction=direction)

    def test_three_distance_gap_oracle(self):
        """Independent equidistribution witness for the stable slope.

        Successive wraps of the leaf shift the intercept by the slope;
        the classical three-distance theorem says the circle gaps of
        that arithmetic progression take at most three values, and for
        a badly-approximable slope they shrink like 1/N — which is what
        forces every box row to fill.
        """
        frame = TangentFrame.cat_frame()
        alpha = abs(frame.stable[1] / frame.stable[0]) % 1.0
        n = 200
        points = sorted((k * alpha) % 1.0 for k in range(n))
        gaps = [b - a for a, b in zip(points, points[1:])]
        gaps.append(points[0] + 1.0 - points[-1])
        distinct = {round(g, 9) for g in gaps}
        assert len(distinct) <= 3
        assert max(gaps) < 0.02


def _sampled_walk(epsilon, arc_length, direction):
    """The boxes found by the walk that the exact traversal replaced: a
    sample every epsilon/8 of arc length."""
    grid = max(1, round(1.0 / epsilon))
    norm = math.hypot(*direction)
    dx, dy = direction[0] / norm, direction[1] / norm
    step = epsilon / 8.0
    x = y = 0.0
    visited = {0}
    for _ in range(int(arc_length / step)):
        x = (x + dx * step) % 1.0
        y = (y + dy * step) % 1.0
        visited.add(int(x * grid) * grid + int(y * grid))
    return visited


def _exact_boxes(grid, direction, s_end):
    """Independent oracle for the traversal, in Fractions.

    The line s * direction, 0 < s < s_end (both components non-zero),
    is cut at every integer value of either coordinate into wrap
    segments, each inside one unit square of the plane.  A box meets a
    segment when the open s-intervals that put each coordinate strictly
    inside the box overlap.  Returns box -> total s-length inside it,
    with the origin's box always present, as the traversal counts it.
    """
    p, q = (Fraction(c) for c in direction)
    cuts = {Fraction(0), s_end}
    for c in (p, q):
        cuts.update(n / abs(c) for n in range(1, math.floor(s_end * abs(c)) + 1))
    cuts = sorted(s for s in cuts if s <= s_end)
    met = {0: Fraction(0)}
    for s0, s1 in zip(cuts, cuts[1:]):
        mid = (s0 + s1) / 2
        square = (math.floor(mid * p), math.floor(mid * q))
        for col in range(grid):
            for row in range(grid):
                lo, hi = s0, s1
                for c, corner, k in zip((p, q), square, (col, row)):
                    ends = ((corner + Fraction(k, grid)) / c, (corner + Fraction(k + 1, grid)) / c)
                    lo, hi = max(lo, min(ends)), min(hi, max(ends))
                if lo < hi:
                    box = col * grid + row
                    met[box] = met.get(box, Fraction(0)) + hi - lo
    return met


class TestExactTraversal:
    def test_matches_oracle_on_rational_directions(self):
        rng = random.Random(77)
        for _ in range(80):
            p = rng.choice([-1, 1]) * rng.randint(1, 5)
            q = rng.choice([-1, 1]) * rng.randint(1, 5)
            grid = rng.choice([1, 2, 3, 4, 5, 7])
            # s_end * grid * p and s_end * grid * q are never integers, so the
            # float arc length cannot land on a gridline crossing
            s_end = Fraction(2 * rng.randint(0, 2 * grid * abs(p * q)) + 1, 2 * grid * abs(p * q))
            arc = float(s_end) * math.hypot(p, q)
            got = set(_leaf_boxes(grid, float(p), float(q), arc))
            assert got == set(_exact_boxes(grid, (p, q), s_end)), (p, q, grid, s_end)

    def test_matches_oracle_on_stable_direction(self):
        # a float direction is an exact binary fraction, so the oracle applies
        stable = TangentFrame.cat_frame().stable
        s_end = Fraction(5.0) / Fraction(math.hypot(*stable))
        assert set(_leaf_boxes(20, *stable, 5.0)) == set(_exact_boxes(20, stable, s_end))

    def test_corner_clipped_boxes_now_counted(self):
        stable = TangentFrame.cat_frame().stable
        exact = _exact_boxes(20, stable, Fraction(5.0) / Fraction(math.hypot(*stable)))
        missed = set(exact) - _sampled_walk(0.05, 5.0, stable)
        assert sorted(missed) == [26, 52, 258, 264]
        for box in missed:
            # the line crosses these boxes for less than one sampling step
            assert 0 < exact[box] * math.hypot(*stable) < 0.05 / 8
        assert leaf_density(0.05, 5.0) == len(exact) / 400 == 0.3475

    def test_early_exit_matches_full_walk(self):
        cases = [
            (0.05, 20.0, None),
            (0.05, 2000.0, None),
            (0.02, 5000.0, None),
            (0.1, 30.0, (3.0, -7.0)),
            (0.25, 4.0, (1.0, 3.0)),
            (0.02, 5000.0, (1.0, 1.0)),
            (0.1, 0.5, (1.0, 1.0)),
            (0.05, 300.0, (2.0, 2.0)),
            (0.25, 7.0, (-1.0, 2.0)),
            (0.1, 1.0, (-1.0, 2.0)),
        ]
        for epsilon, arc, direction in cases:
            grid = round(1.0 / epsilon)
            d = direction or TangentFrame.cat_frame().stable
            full = len(set(_leaf_boxes(grid, *d, arc))) / grid**2
            assert leaf_density(epsilon, arc, direction) == full
        assert leaf_density(0.02, 5000.0) == 1.0

    def test_line_along_a_gridline_keeps_one_side(self):
        assert leaf_density(0.25, 10.0, direction=(0.0, 1.0)) == 4 / 16
        assert leaf_density(0.25, 10.0, direction=(0.0, -1.0)) == 4 / 16
        assert set(_leaf_boxes(4, -1.0, 0.0, 10.0)) == {0, 4, 8, 12}
