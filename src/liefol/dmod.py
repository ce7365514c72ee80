"""Polynomial maps between charts and the differential-morphism check.

A ``PolyMap`` is a polynomial map phi from a source chart to a target
chart, one component per target variable; it pulls functions on the
target back to the source.

``check_dmorphism`` verifies, for a triple (phi, v, w), the
compatibility condition

    sum_k  dphi_j/dx_k * v_k  =  w_j o phi        (for every j),

that is v(phi_j) = w_j o phi, and nothing more.  The right sides come
from one composition: the numerators and denominators of all of w's
coefficients are pulled back through phi together, so the image of each
monomial they use is built once per check.  The matrix identity
that makes the differential of phi intertwine the Lie derivatives along
v and w,

    B^phi . J  =  J . A  +  v(J),

where J is the Jacobian of phi, A and B are the partials matrices of v
and w, and B^phi is B composed with phi, follows from it: its (j, k)
entry is d/dx_k of v(phi_j) = w_j o phi, whose right side gives
(B^phi . J)_jk by the chain rule and whose left side gives
(J . A)_jk + v(J_jk), partials commuting.  That holds for rational v and
w as well, so the check does not test it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple, Union

from . import _Frozen
from .liecalc import VectorField, _derive
from .poly import (
    Chart,
    ChartMismatchError,
    Poly,
    RatFunc,
    _as_ratfunc,
    _common_denominator,
    _compose,
)


class PolyMap(_Frozen):
    """A polynomial map between charts, one component per target variable."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Chart, target: Chart, components: Sequence[Poly]) -> None:
        comps = tuple(components)
        if len(comps) != target.size:
            raise ValueError(
                f"map into {target} needs {target.size} components, got {len(comps)}"
            )
        for c in comps:
            if c.chart != source:
                raise ChartMismatchError("component not defined on the source chart")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", comps)

    def pull_back(self, f: Union[RatFunc, Poly]) -> RatFunc:
        """f o phi for a function on the target chart."""
        return _as_ratfunc(self.target, f).substitute(self.components)

    def __str__(self) -> str:
        body = ", ".join(str(c) for c in self.components)
        return f"({body})"


class MorphismPreconditionError(ValueError):
    """The triple (phi, v, w) fails the compatibility condition.

    ``coordinate`` names the first target coordinate j with
    ``v(phi_j) != w_j o phi``.
    """

    def __init__(self, coordinate: int, name: str, lhs: RatFunc, rhs: RatFunc):
        super().__init__(
            f"v(phi_{coordinate + 1}) != w_{coordinate + 1} o phi "
            f"in coordinate {name!r}: {lhs} vs {rhs}"
        )
        self.coordinate = coordinate


class DMorphismResult(NamedTuple):
    """The verdict of ``check_dmorphism``: ``(True, None)`` whenever it returns."""

    ok: bool
    witness: Optional[Tuple[int, int, RatFunc]]  # always None: a failure raises instead


def check_dmorphism(phi: PolyMap, v: VectorField, w: VectorField) -> DMorphismResult:
    """Verify that phi is a morphism of flows: v(phi_j) = w_j o phi for every j.

    w is pulled back in one composition, each monomial image built once.
    Raises MorphismPreconditionError naming the first j where the
    condition fails, and ZeroDivisionError if w_j's denominator pulls
    back to zero there.  Once it holds, dphi intertwines the Lie
    derivatives along v and w: the identity B^phi . J = J . A + v(J) is
    the x_k-derivative of v(phi_j) = w_j o phi (see the module
    docstring), so the result is ``(True, None)``.
    """
    if v.chart != phi.source:
        raise ChartMismatchError("v must live on the source chart")
    if w.chart != phi.target:
        raise ChartMismatchError("w must live on the target chart")

    # v's common denominator once, for all of its derivations below, and
    # w's numerators and denominators pulled back in one composition
    qv, pv = _common_denominator(v.coefficients)
    pulled = _compose([f for c in w.coefficients for f in (c.num, c.den)], phi.components)
    for j, (component, num, den) in enumerate(zip(phi.components, pulled[::2], pulled[1::2])):
        lhs = _derive(qv, pv, RatFunc(component))
        if den.is_zero():
            raise ZeroDivisionError("substitution lands in the polar locus")
        rhs = RatFunc(num, den)
        if lhs != rhs:
            raise MorphismPreconditionError(j, phi.target.variables[j], lhs, rhs)
    return DMorphismResult(True, None)
