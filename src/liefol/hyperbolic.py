"""Numeric test bench for the suspension of the torus automorphism [[2, 1], [1, 1]].

The suspension lives on (R^2/Z^2) x [0, 1) with the automorphism applied
once per unit of roof time.  States carry exact `Fraction` coordinates:
the automorphism is an integer matrix and the roof advances by exact
rational steps, so the flow's group law holds on the nose instead of
drowning in the ~2.618^t amplification a float mod-1 iteration suffers.

The differential of the time-t flow in the flat trivialization is
block-diagonal: the integer matrix power on the torus factor (one factor
per roof crossing) and 1 on the flow direction.  The hyperbolic
splitting is spanned by the eigenvectors of the automorphism; those are
irrational, and a float copy of the stable direction is useless for
long-time contraction measurements — its ~1e-16 unstable component
overtakes the true signal near t = 19.  The bound verifier therefore
carries the directions exactly in Q(sqrt 5) (integer pairs over one
fixed denominator), applies the exact cocycle, and only then takes
logarithms, using the algebraic conjugate to dodge catastrophic
cancellation.  The regression that estimates the contraction rate never
consults the claimed eigenvalues.

Along a closed orbit the return differential is CAT^k (+) 1, k the
number of roof crossings in one period, so the invariant lines and
planes are read off the same exact eigendata: eigenvalues lambda^|k| in
Q(sqrt 5), the two eigenvectors (swapped for k < 0) and the flow line.
Leaf density is an exact grid traversal (Amanatides & Woo, 1987) that
steps once per gridline crossing.  The module needs no package outside
the standard library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import _Frozen

CAT: Tuple[Tuple[int, int], Tuple[int, int]] = ((2, 1), (1, 1))
CAT_INV: Tuple[Tuple[int, int], Tuple[int, int]] = ((1, -1), (-1, 2))

_MAX_CROSSINGS = 600  # keeps every norm within float range


def _mat_mul(m1, m2, modulus: int):
    m = (
        (m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0], m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
        (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0], m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]),
    )
    return tuple(tuple(e % modulus for e in row) for row in m) if modulus else m


def cat_power(k: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Exact integer power of the automorphism (negative k uses the inverse)."""
    return _cat_power(k, 0)


def _cat_power(k: int, modulus: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """CAT^k, with its entries reduced mod ``modulus`` unless it is 0."""
    base = CAT if k >= 0 else CAT_INV
    k = abs(k)
    result = ((1, 0), (0, 1))
    while k:
        if k & 1:
            result = _mat_mul(result, base, modulus)
        base = _mat_mul(base, base, modulus)
        k >>= 1
    return result


def _mod1(value: Fraction) -> Fraction:
    return value - math.floor(value)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"a coordinate must be finite, not {value!r}")
        return Fraction(value)  # exact binary expansion
    raise TypeError(f"bad coordinate type: {type(value).__name__}")


class SuspensionState(_Frozen):
    """A point of the mapping torus: torus coordinates and roof coordinate,
    each normalized into [0, 1)."""

    __slots__ = ("x", "y", "roof")

    def __init__(self, x, y, roof) -> None:
        object.__setattr__(self, "x", _mod1(_as_fraction(x)))
        object.__setattr__(self, "y", _mod1(_as_fraction(y)))
        object.__setattr__(self, "roof", _mod1(_as_fraction(roof)))


def fixed_point() -> SuspensionState:
    """The origin: a closed orbit of period 1."""
    return SuspensionState(Fraction(0), Fraction(0), Fraction(0))


def crossings(state: SuspensionState, t) -> int:
    """Number of roof crossings in flowing for time t (negative if t < 0)."""
    return math.floor(state.roof + _as_fraction(t))


def suspension_flow(state: SuspensionState, t) -> SuspensionState:
    """Flow the state for time t (any sign), exactly."""
    tq = _as_fraction(t)
    total = state.roof + tq
    k = math.floor(total)
    # CAT^k (x, y) mod 1 depends on CAT^k only mod the common denominator of x, y
    m = _cat_power(k, math.lcm(state.x.denominator, state.y.denominator))
    x = m[0][0] * state.x + m[0][1] * state.y
    y = m[1][0] * state.x + m[1][1] * state.y
    return SuspensionState(_mod1(x), _mod1(y), total - k)


def torus_distance(s1: SuspensionState, s2: SuspensionState) -> float:
    """Sup distance on the mapping torus' flat coordinates (each circle-valued)."""

    def circ(a: Fraction, b: Fraction) -> Fraction:
        d = abs(a - b)
        return min(d, 1 - d)

    return float(max(circ(s1.x, s2.x), circ(s1.y, s2.y), circ(s1.roof, s2.roof)))


def _bounded(k: int, t) -> int:
    """The crossing count k of time t, if CAT^k keeps its norms in float range."""
    if abs(k) > _MAX_CROSSINGS:
        raise ValueError(f"time {t} crosses the roof {k} times; refuse beyond {_MAX_CROSSINGS}")
    return k


def differential_flow(
    u: Sequence[float], t, state: SuspensionState
) -> Tuple[float, float, float]:
    """Image of a tangent vector under the differential of the time-t flow.

    In the flat trivialization this is the integer matrix power on the
    torus components and the identity on the roof component.
    """
    if len(u) != 3:
        raise ValueError("tangent vectors have three components")
    k = _bounded(crossings(state, t), t)
    m = cat_power(k)
    return (
        m[0][0] * u[0] + m[0][1] * u[1],
        m[1][0] * u[0] + m[1][1] * u[1],
        float(u[2]),
    )


# ---------------------------------------------------------------------------
# Exact arithmetic in Q(sqrt 5)
# ---------------------------------------------------------------------------

_SQRT5 = math.sqrt(5.0)

# A vector of Q(sqrt 5)^2 is a pair of integer pairs ((xa, xb), (ya, yb)),
# standing for ((xa + xb*sqrt 5) / _DEN, (ya + yb*sqrt 5) / _DEN).  Integer
# matrices keep the denominator, so a rate walk is integer arithmetic only.
_DEN = 2
_Q5Vec = Tuple[Tuple[int, int], Tuple[int, int]]


def _q5_float(a: int, b: int) -> float:
    """(a + b*sqrt 5) / _DEN as a float."""
    return a / _DEN + b / _DEN * _SQRT5


def _q5_log(a: int, b: int, den: int) -> float:
    """log of the positive element (a + b*sqrt 5) / den, safe against
    cancellation.

    Whichever of the element and its conjugate is larger in magnitude is
    computed accurately in floats; the smaller one is recovered through
    the exact rational norm element * conjugate = (a^2 - 5 b^2) / den^2,
    taken in lowest terms.
    """
    fa = a / den
    fb = b / den * _SQRT5
    direct = fa + fb
    conj = fa - fb
    if abs(direct) >= abs(conj):
        if direct <= 0:
            raise ValueError("element is not positive")
        return math.log(direct)
    norm = abs(a * a - 5 * b * b)
    den *= den
    g = math.gcd(norm, den)
    return math.log(norm // g) - math.log(den // g) - math.log(abs(conj))


# Exact eigendata of the automorphism: eigenvalues (3 -+ sqrt5)/2 with
# eigenvectors (1, lambda - 2), over _DEN.
_E_SS: _Q5Vec = ((2, 0), (-1, -1))
_E_SU: _Q5Vec = ((2, 0), (-1, 1))


def _apply_int_matrix(m, vec: _Q5Vec) -> _Q5Vec:
    (xa, xb), (ya, yb) = vec
    return (
        (m[0][0] * xa + m[0][1] * ya, m[0][0] * xb + m[0][1] * yb),
        (m[1][0] * xa + m[1][1] * ya, m[1][0] * xb + m[1][1] * yb),
    )


def _q5_lognorm(vec: _Q5Vec) -> float:
    """log of the Euclidean norm; the squared norm lies over _DEN^2."""
    (xa, xb), (ya, yb) = vec
    return 0.5 * _q5_log(
        xa * xa + 5 * xb * xb + ya * ya + 5 * yb * yb, 2 * (xa * xb + ya * yb), _DEN * _DEN
    )


_FLOW = (0.0, 0.0, 1.0)  # the flow direction; a NamedTuple class holds no field values


class TangentFrame(NamedTuple):
    """Float view of the splitting: stable / unstable torus directions plus
    the flow direction (0, 0, 1); the exact forms live module-private."""

    stable: Tuple[float, float]
    unstable: Tuple[float, float]
    lambda_stable: float
    lambda_unstable: float

    FLOW: Tuple[float, float, float] = _FLOW

    @classmethod
    def cat_frame(cls) -> "TangentFrame":
        return cls(
            stable=_STABLE_LINE[:2],
            unstable=_UNSTABLE_LINE[:2],
            lambda_stable=(3.0 - _SQRT5) / 2.0,
            lambda_unstable=(3.0 + _SQRT5) / 2.0,
        )


def _regress_slope(points: List[Tuple[float, float]]) -> float:
    n = len(points)
    mean_t = sum(p[0] for p in points) / n
    mean_y = sum(p[1] for p in points) / n
    num = sum((t - mean_t) * (y - mean_y) for t, y in points)
    den = sum((t - mean_t) ** 2 for t, y in points)
    return num / den


def _measure_rate(direction: _Q5Vec, matrix, t_max) -> Tuple[float, List[float]]:
    """Log-norm growth of an exact direction under an integer cocycle.

    Returns the least-squares slope and the per-time log norms relative
    to time zero, the same from every state (see ``verify_anosov_bounds``).
    """
    base_log = _q5_lognorm(direction)
    logs: List[float] = []
    vec = direction
    for _ in range(t_max):
        vec = _apply_int_matrix(matrix, vec)
        logs.append(_q5_lognorm(vec) - base_log)
    return _regress_slope(list(enumerate(logs, start=1))), logs


class AnosovReport(NamedTuple):
    """Outcome of the splitting verification.

    Rates are regression estimates from measured norms; the C constants
    are the extremal deviations from pure exponential behaviour (both
    should sit at 1 for a constant splitting).  ``passed`` asserts
    contraction/expansion in the claimed directions, forward/backward
    consistency, unit eigenvalue product, and a flat flow direction —
    it does not compare against any externally claimed rate.
    """

    lambda_stable_est: float
    lambda_unstable_est: float
    lambda_stable_backward: float
    lambda_unstable_backward: float
    c_stable: float
    c_unstable: float
    c_stable_lower: float
    flow_exponent: float
    passed: bool
    samples: int
    t_max: int
    seed: int
    swapped: bool


def verify_anosov_bounds(
    samples: int = 50,
    t_max: int = 100,
    seed: int = 0,
    swap_bundles: bool = False,
) -> AnosovReport:
    """Measure contraction/expansion rates of the claimed splitting.

    ``swap_bundles`` feeds the unstable direction as the claimed stable
    one (and vice versa); the report then fails, which is the negative
    control for this harness.

    No result depends on ``samples`` or ``seed``, which the report only
    echoes: the cocycle is the same at every state, and an integer time t
    crosses the roof t times from any roof in [0, 1), so the rates and
    the flow-direction fit are measured once, the fit from ``fixed_point()``.
    """
    if samples < 1:
        raise ValueError("need at least one sample state")
    if not 2 <= t_max <= 300:
        raise ValueError("t_max must lie in [2, 300]")
    claimed_stable = _E_SU if swap_bundles else _E_SS
    claimed_unstable = _E_SS if swap_bundles else _E_SU

    slope_s, logs_s = _measure_rate(claimed_stable, CAT, t_max)
    slope_u, logs_u = _measure_rate(claimed_unstable, CAT, t_max)
    slope_s_back, logs_s_back = _measure_rate(claimed_stable, CAT_INV, t_max)
    slope_u_back, _ = _measure_rate(claimed_unstable, CAT_INV, t_max)

    lambda_s = math.exp(slope_s)
    lambda_u = math.exp(slope_u)
    lambda_s_back = math.exp(-slope_s_back)
    lambda_u_back = math.exp(-slope_u_back)

    c_stable = max(
        math.exp(lognorm - t * slope_s) for t, lognorm in enumerate(logs_s, start=1)
    )
    c_unstable = max(
        math.exp(t * slope_u - lognorm) for t, lognorm in enumerate(logs_u, start=1)
    )
    c_stable_lower = min(
        math.exp(lognorm - t * slope_s_back) for t, lognorm in enumerate(logs_s_back, start=1)
    )

    # flow direction through the public float differential
    flow_points = []
    origin = fixed_point()
    for t in range(1, min(t_max, 32) + 1):
        img = differential_flow(_FLOW, t, origin)
        flow_points.append((float(t), math.log(math.hypot(*img))))
    flow_exponent = _regress_slope(flow_points)

    passed = (
        lambda_s < 1.0
        and lambda_u > 1.0
        and abs(lambda_s * lambda_u - 1.0) < 1e-12
        and abs(lambda_s_back - lambda_s) < 1e-9
        and abs(lambda_u_back - lambda_u) < 1e-9
        and c_stable < 10.0
        and c_unstable < 10.0
        and c_stable_lower > 0.1
        and abs(flow_exponent) < 1e-9
    )
    return AnosovReport(
        lambda_stable_est=lambda_s,
        lambda_unstable_est=lambda_u,
        lambda_stable_backward=lambda_s_back,
        lambda_unstable_backward=lambda_u_back,
        c_stable=c_stable,
        c_unstable=c_unstable,
        c_stable_lower=c_stable_lower,
        flow_exponent=flow_exponent,
        passed=passed,
        samples=samples,
        t_max=t_max,
        seed=seed,
        swapped=swap_bundles,
    )


# ---------------------------------------------------------------------------
# Invariant lines and planes along a closed orbit
# ---------------------------------------------------------------------------


class LabeledLine(NamedTuple):
    label: str  # "stable" | "flow" | "unstable"
    eigenvalue: float
    direction: Tuple[float, float, float]


class LabeledPlane(NamedTuple):
    label: str  # "stable" | "unstable" | "strong"
    basis: Tuple[Tuple[float, float, float], Tuple[float, float, float]]


_PERIOD_TOL = 1e-9

_Vec3 = Tuple[float, float, float]


def _return_crossings(state: SuspensionState, period) -> int:
    """Roof crossings k over one period of a closed orbit."""
    image = suspension_flow(state, period)
    distance = torus_distance(image, state)
    if distance > _PERIOD_TOL:
        raise ValueError(f"orbit does not close after time {period} (distance {distance:.3e})")
    return crossings(state, period)


def _vec3(vec: Sequence[float]) -> _Vec3:
    if len(vec) != 3:
        raise ValueError("tangent vectors have three components")
    return (float(vec[0]), float(vec[1]), float(vec[2]))


def _unit(vec: _Vec3, message: str) -> _Vec3:
    norm = math.hypot(*vec)
    if norm == 0:
        raise ValueError(message)
    return (vec[0] / norm, vec[1] / norm, vec[2] / norm)


def _cross(u: _Vec3, w: _Vec3) -> _Vec3:
    return (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])


def _dot(u: _Vec3, w: _Vec3) -> float:
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


def _torus_line(vec: _Q5Vec) -> _Vec3:
    return _unit((_q5_float(*vec[0]), _q5_float(*vec[1]), 0.0), "zero direction")


# Unit float views of the eigenlines of every CAT^k (+) 1 with k != 0.  Both
# torus eigenvectors have first component 1, so they are already sign-normalized.
_STABLE_LINE = _torus_line(_E_SS)
_UNSTABLE_LINE = _torus_line(_E_SU)
_EIGENLINES = (_STABLE_LINE, _FLOW, _UNSTABLE_LINE)


def classify_invariant_lines(state: SuspensionState, period) -> Tuple[LabeledLine, ...]:
    """The three invariant tangent lines along a closed orbit.

    The return differential CAT^k (+) 1 has eigenvalues lambda_s^|k|, 1
    and lambda_u^|k|; for k < 0 the torus eigenvectors trade places.
    k = 0 gives the identity, which has no isolated lines, and |k| above
    ``_MAX_CROSSINGS`` leaves float range: errors, not silent answers.
    """
    k = _bounded(_return_crossings(state, period), period)
    if k == 0:
        raise ValueError("return map has eigenvalues of equal modulus; lines are not isolated")
    # CAT^n e_u = lambda_u^n e_u exactly, and the first component of e_u is 1
    grow = _q5_float(*_apply_int_matrix(cat_power(abs(k)), _E_SU)[0])
    stable, unstable = (_STABLE_LINE, _UNSTABLE_LINE) if k > 0 else (_UNSTABLE_LINE, _STABLE_LINE)
    return (
        # lambda_s^n = 1 / lambda_u^n; its direct float would cancel catastrophically
        LabeledLine(label="stable", eigenvalue=1.0 / grow, direction=stable),
        LabeledLine(label="flow", eigenvalue=1.0, direction=_FLOW),
        LabeledLine(label="unstable", eigenvalue=grow, direction=unstable),
    )


def classify_invariant_planes(state: SuspensionState, period) -> Tuple[LabeledPlane, ...]:
    """The three invariant tangent planes along a closed orbit: the two
    center bundles (flow + stable / flow + unstable) and the strong span."""
    lines = {line.label: line for line in classify_invariant_lines(state, period)}
    pairs = (
        ("stable", ("flow", "stable")),
        ("unstable", ("flow", "unstable")),
        ("strong", ("stable", "unstable")),
    )
    planes = []
    for label, (first, second) in pairs:
        basis = (lines[first].direction, lines[second].direction)
        if not plane_is_invariant(state, period, basis[0], basis[1]):
            raise AssertionError(f"eigenplane {label!r} failed its invariance check")
        planes.append(LabeledPlane(label=label, basis=basis))
    return tuple(planes)


def plane_is_invariant(
    state: SuspensionState, period, u: Sequence[float], w: Sequence[float]
) -> bool:
    """Does the return differential preserve the plane spanned by u, w?

    For k != 0 the invariant planes are the spans of two eigenlines, i.e.
    the planes whose normal is orthogonal to two of them; for k = 0 every
    plane is invariant.
    """
    k = _return_crossings(state, period)
    normal = _unit(_cross(_vec3(u), _vec3(w)), "basis does not span a plane")
    orthogonal = sum(abs(_dot(normal, e)) <= _PERIOD_TOL for e in _EIGENLINES)
    return k == 0 or orthogonal >= 2


# ---------------------------------------------------------------------------
# Density of a leaf line on the torus fibre
# ---------------------------------------------------------------------------


def _leaf_boxes(grid: int, dx: float, dy: float, arc_length: float) -> Iterator[int]:
    """Boxes met by the line t * (dx, dy) / |(dx, dy)|, 0 <= t < arc_length,
    on the unit torus cut into grid x grid boxes, as indices col * grid + row.

    Amanatides-Woo traversal: one step per gridline crossing.  The n-th
    crossing of the vertical gridlines comes at n * tdelta_x, tdelta_x =
    |(dx, dy)| / (grid * |dx|), and likewise for rows; the times are
    compared as n_x * |dy| against n_y * |dx| (both scaled by
    grid * |dx| * |dy| / |(dx, dy)|) and never accumulated.  For integer
    components, or |dx| = |dy|, these products are exact, so a line
    through a grid corner gives an exact tie and steps both axes at once.
    The box of the origin comes first; a line along a gridline keeps to
    the boxes on its positive side.
    """
    ax, ay = abs(dx), abs(dy)
    scale = arc_length * grid / math.hypot(dx, dy)
    # crossings n >= 1 with n * tdelta < arc_length, per axis
    x_count = max(0, math.ceil(scale * ax) - 1)
    y_count = max(0, math.ceil(scale * ay) - 1)
    col_step = 1 if dx >= 0 else -1
    row_step = 1 if dy >= 0 else -1
    col = 0 if dx >= 0 else grid - 1
    row = 0 if dy >= 0 else grid - 1
    yield 0
    yield col * grid + row
    nx = ny = 1
    while nx <= x_count or ny <= y_count:
        x_time = nx * ay if nx <= x_count else math.inf
        y_time = ny * ax if ny <= y_count else math.inf
        if x_time <= y_time:
            col = (col + col_step) % grid
            nx += 1
        if y_time <= x_time:
            row = (row + row_step) % grid
            ny += 1
        yield col * grid + row


def leaf_density(
    epsilon: float,
    arc_length: float,
    direction: Optional[Tuple[float, float]] = None,
) -> float:
    """Fraction of the epsilon-grid boxes met by a line through the origin.

    The line follows ``direction`` (default: the stable eigendirection)
    for ``arc_length`` on the unit torus, cut into round(1/epsilon) boxes
    per side.  A box counts as met when the line passes through its open
    interior, plus the box [0, 1/grid)^2 of the origin.  Where the line
    passes exactly through a grid corner it steps diagonally, so the
    boxes that only touch it at that corner are not met: the diagonal
    (1, 1) meets exactly the grid diagonal boxes.  The walk is exact
    (`_leaf_boxes`) and stops as soon as every box is met; for integer
    components (p, q) the leaf is closed, so it also stops after one
    period, arc length |(p, q)| / gcd(p, q).  It is exact
    for the float direction it is given: a rational slope passed as
    rounded unit components, such as (1, 3) / sqrt(10), is a slightly
    different line that clips the boxes at the corners it passes, so pass
    a rational slope with integer components.
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if not 0 < arc_length < math.inf:
        raise ValueError("arc_length must be positive and finite")
    grid = max(1, round(1.0 / epsilon))
    if direction is None:
        dx, dy = TangentFrame.cat_frame().stable
    else:
        dx, dy = float(direction[0]), float(direction[1])
        if not (math.isfinite(dx) and math.isfinite(dy)):
            raise ValueError("direction must be finite")
        if dx == 0 and dy == 0:
            raise ValueError("zero direction")
        if dx.is_integer() and dy.is_integer():
            arc_length = min(arc_length, math.hypot(dx, dy) / math.gcd(int(dx), int(dy)))
    total = grid * grid
    visited = set()
    for box in _leaf_boxes(grid, dx, dy, arc_length):
        visited.add(box)
        if len(visited) == total:
            break
    return len(visited) / total
