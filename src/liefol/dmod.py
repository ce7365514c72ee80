"""Polynomial maps between charts and the differential-morphism check.

A ``PolyMap`` is a polynomial map phi from a source chart to a target
chart, one component per target variable; it gives its Jacobian and
pulls functions on the target back to the source.

``check_dmorphism`` verifies, for a triple (phi, v, w), first the
compatibility condition

    sum_k  dphi_j/dx_k * v_k  =  w_j o phi        (for every j)

and then the matrix identity that makes the differential of phi
intertwine the Lie derivatives along v and w,

    B^phi . J  =  J . A  +  v(J),

where J is the Jacobian of phi, A and B are the partials matrices of v
and w, and B^phi is B composed with phi.  The identity is a theorem
whenever the compatibility condition holds, so a False verdict from the
second stage indicates a defect in this package rather than in the
input; the result carries a witness entry for exactly that reason.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple, Union

from . import _Frozen
from .liecalc import VectorField, _derive, jacobian_matrix
from .poly import Chart, ChartMismatchError, Poly, RatFunc, _as_ratfunc, _common_denominator, _dot


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

    def jacobian(self) -> Tuple[Tuple[Poly, ...], ...]:
        """J[j][k] = d(phi_j)/dx_k, a (target x source) matrix."""
        return tuple(
            tuple(c.partial(k) for k in range(self.source.size)) for c in self.components
        )

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
    ok: bool
    witness: Optional[Tuple[int, int, RatFunc]]  # (row, col, defect entry)


def check_dmorphism(phi: PolyMap, v: VectorField, w: VectorField) -> DMorphismResult:
    """Verify that dphi intertwines the Lie derivatives along v and w.

    Raises MorphismPreconditionError if (phi, v, w) is not a morphism of
    flows in the first place.  Once the precondition holds the matrix
    identity is guaranteed, so ``ok=False`` (with its witness entry)
    signals an internal inconsistency, not bad input.
    """
    if v.chart != phi.source:
        raise ChartMismatchError("v must live on the source chart")
    if w.chart != phi.target:
        raise ChartMismatchError("w must live on the target chart")

    # v's common denominator once, for its n + n^2 derivations below
    qv, pv = _common_denominator(v.coefficients)
    for j, component in enumerate(phi.components):
        lhs = _derive(qv, pv, RatFunc(component))
        rhs = phi.pull_back(w.coefficients[j])
        if lhs != rhs:
            raise MorphismPreconditionError(j, phi.target.variables[j], lhs, rhs)

    jac = phi.jacobian()  # q x p, polynomial
    a = jacobian_matrix(v)  # p x p
    b = jacobian_matrix(w)  # q x q
    b_phi = [[phi.pull_back(entry) for entry in row] for row in b]

    # Each sum of products is one ``_dot`` over the common denominator of
    # its rational factors (a row of b o phi, a column of a); the other
    # factor, an entry of dphi, is polynomial.
    chart = phi.source
    q = phi.target.size
    p = phi.source.size
    a_columns = [_common_denominator(a[j][k] for j in range(p)) for k in range(p)]
    for i in range(q):
        den_b, row_b = _common_denominator(b_phi[i])
        for k in range(p):
            left = RatFunc(_dot(chart, [(row_b[j], jac[j][k]) for j in range(q)]), den_b)
            den_a, column_a = a_columns[k]
            right = _derive(qv, pv, RatFunc(jac[i][k])) + RatFunc(
                _dot(chart, [(jac[i][j], column_a[j]) for j in range(p)]), den_a
            )
            if left != right:
                return DMorphismResult(False, (i, k, left - right))
    return DMorphismResult(True, None)
