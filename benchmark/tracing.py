"""Spans around liefol's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function in *every* liefol module
namespace that binds it (``foliation``, ``linalg`` and ``planar`` import
``content``, ``divexact``, ``poly_det`` and ``squarefree_part`` by name),
and patches the ``Poly``/``RatFunc`` operators at class level.
``uninstall`` puts the originals back.

A span is (name, start, end, parent span, case id), kept in flat arrays
in memory and written out once, when the run ends.  A span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# (layer metric name, module, attribute) -- attribute "Class.method" patches a class
TRACED: Tuple[Tuple[str, str, str], ...] = (
    ("poly.gcd", "liefol.poly", "gcd"),
    ("poly.divexact", "liefol.poly", "divexact"),
    ("poly.squarefree_part", "liefol.poly", "squarefree_part"),
    ("poly.poly_det", "liefol.poly", "poly_det"),
    ("poly.mul", "liefol.poly", "Poly.__mul__"),
    ("poly.mul", "liefol.poly", "Poly.__rmul__"),
    ("poly.ratfunc_arith", "liefol.poly", "RatFunc.__add__"),
    ("poly.ratfunc_arith", "liefol.poly", "RatFunc.__radd__"),
    ("poly.ratfunc_arith", "liefol.poly", "RatFunc.__sub__"),
    ("poly.ratfunc_arith", "liefol.poly", "RatFunc.__rsub__"),
    ("poly.ratfunc_arith", "liefol.poly", "RatFunc.__mul__"),
    ("poly.ratfunc_arith", "liefol.poly", "RatFunc.__rmul__"),
    ("poly.ratfunc_arith", "liefol.poly", "RatFunc.__truediv__"),
    ("poly.ratfunc_arith", "liefol.poly", "RatFunc.__rtruediv__"),
    ("expr.parse", "liefol.expr", "parse_polynomial"),
    ("expr.parse", "liefol.expr", "parse_field_coefficients"),
    ("liecalc.lie_bracket", "liefol.liecalc", "lie_bracket"),
    ("liecalc.apply_derivation", "liefol.liecalc", "apply_derivation"),
    ("liecalc.flow_series", "liefol.liecalc", "flow_series_field"),
    ("liecalc.flow_series", "liefol.liecalc", "flow_series_function"),
    ("dmod.check_dmorphism", "liefol.dmod", "check_dmorphism"),
    ("linalg.rref", "liefol.linalg", "rref"),
    ("linalg.kernel_basis", "liefol.linalg", "kernel_basis"),
    ("linalg.clear_to_polynomials", "liefol.linalg", "clear_to_polynomials"),
    ("foliation.tangent_foliation", "liefol.foliation", "tangent_foliation"),
    ("foliation.generic_rank", "liefol.foliation", "generic_rank"),
    ("foliation.is_involutive", "liefol.foliation", "is_involutive"),
    ("foliation.is_invariant_subsheaf", "liefol.foliation", "is_invariant_subsheaf"),
    ("foliation.singular_locus", "liefol.foliation", "singular_locus"),
    ("planar.infinity_analysis", "liefol.planar", "infinity_analysis"),
    ("planar.rational_roots", "liefol.planar", "rational_roots"),
    ("planar.invariant_curve_constraint", "liefol.planar", "invariant_curve_constraint"),
    ("hyperbolic.verify_anosov_bounds", "liefol.hyperbolic", "verify_anosov_bounds"),
    ("hyperbolic.leaf_density", "liefol.hyperbolic", "leaf_density"),
    ("hyperbolic.classify", "liefol.hyperbolic", "classify_invariant_lines"),
    ("hyperbolic.classify", "liefol.hyperbolic", "classify_invariant_planes"),
)

# layers whose results are polynomials: their size feeds result_terms_max
# and result_coeff_bits_max
_SIZED = {"poly.gcd", "poly.divexact", "poly.squarefree_part", "poly.poly_det", "poly.mul"}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self.case_id = -1
        self.terms_max = 0
        self.coeff_bits_max = 0
        self.gcd_nontrivial = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name not in self.names:
            self.names.append(name)
        k = self.names.index(name)
        kind, start, end, parent, case, stack = (
            self.kind, self.start, self.end, self.parent, self.case, self._stack,
        )
        sized = name in _SIZED
        is_gcd = name == "poly.gcd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(kind)
            kind.append(k)
            parent.append(stack[-1] if stack else -1)
            case.append(self.case_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if sized and result.__class__.__name__ == "Poly":
                self._measure(result)
                if is_gcd and not result.is_constant():
                    self.gcd_nontrivial += 1
            return result

        return wrapper

    def _measure(self, p) -> None:
        terms = p.terms
        if len(terms) > self.terms_max:
            self.terms_max = len(terms)
        for c in terms.values():
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if b > self.coeff_bits_max:
                self.coeff_bits_max = b

    def install(self) -> None:
        for name, module_name, attr in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "liefol" or mod_name.startswith("liefol."):
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- derived table -----------------------------------------------------

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer name: calls and summed self time in seconds."""
        n = len(self.kind)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        table = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = table[self.names[self.kind[i]]]
            row["calls"] += 1
            row["self_s"] += self.end[i] - self.start[i] - child[i]
        return table

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: name, start, end, parent, case."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\tcase\n")
            for i in range(len(self.kind)):
                out.write(
                    f"{names[self.kind[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.case[i]}\n"
                )
