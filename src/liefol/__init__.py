"""liefol: exact Lie calculus for polynomial vector fields, algebraic
foliations, planar fields at infinity, and a hyperbolic suspension bench.

The symbolic kernel (charts, polynomials, rational functions) is exact
over Q; the hyperbolic module is the only numeric corner, and even
there states and cocycles are exact with floats at the reporting edge.

``import liefol`` runs none of the submodules.  It registers ``poly``,
``expr``, ``liecalc``, ``dmod``, ``linalg``, ``foliation``, ``planar``
and ``hyperbolic`` in ``sys.modules``, and as attributes of the package,
as lazy modules (`importlib.util.LazyLoader`): a module's code runs on
the first access to one of its attributes, or when another module
imports a name from it.  The public names below are served by a module
``__getattr__`` (PEP 562), so ``liefol.Poly`` runs ``poly`` alone and
``liefol.verify_anosov_bounds`` ``hyperbolic`` alone.  A command-line
call is a fresh process, and compiling and running every module cost
more than most calls compute; ``liefol.cli`` resolves each name at call
time, so a call runs only the modules its subcommand uses.  ``cli``
itself is imported the ordinary way, so that ``python -m liefol.cli``
does not find it already in ``sys.modules``.

The package's immutable value types (``Chart``, ``VectorField``,
``SuspensionState`` and the rest) share ``_Frozen`` below.  It lives here
because this module is always loaded, so ``hyperbolic`` can use it without
running ``poly``.
"""

import importlib.util
import sys
from operator import attrgetter

__version__ = "0.1.0"

# public names, by the module that defines them
_EXPORTS = {
    "poly": (
        "Chart",
        "ChartMismatchError",
        "ExactDivisionError",
        "Poly",
        "RatFunc",
        "clear_denominators",
        "content",
        "divexact",
        "divides",
        "format_poly",
        "gcd",
        "lcm",
        "normalize",
        "poly_det",
        "squarefree_part",
    ),
    "expr": ("ParseError", "parse_field_coefficients", "parse_polynomial"),
    "liecalc": (
        "FlowSeries",
        "VectorField",
        "Verdict",
        "apply_derivation",
        "flow_series_field",
        "flow_series_function",
        "lie_bracket",
    ),
    "dmod": (
        "MorphismPreconditionError",
        "PolyMap",
        "check_dmorphism",
    ),
    "linalg": (),
    "foliation": (
        "FoliationGens",
        "SingularIdeal",
        "generic_rank",
        "invariant_hypersurface",
        "is_invariant_subsheaf",
        "is_involutive",
        "saturate_rank1",
        "singular_locus",
        "tangent_foliation",
    ),
    "planar": (
        "CONSISTENT",
        "EXCLUDED",
        "InfinityReport",
        "PlanarField",
        "infinity_analysis",
        "invariant_curve_constraint",
        "q_polynomial",
        "rational_roots",
        "to_infinity_chart",
    ),
    "hyperbolic": (
        "CAT",
        "AnosovReport",
        "LabeledLine",
        "LabeledPlane",
        "SuspensionState",
        "TangentFrame",
        "cat_power",
        "classify_invariant_lines",
        "classify_invariant_planes",
        "crossings",
        "differential_flow",
        "fixed_point",
        "leaf_density",
        "plane_is_invariant",
        "suspension_flow",
        "torus_distance",
        "verify_anosov_bounds",
    ),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, "__version__"]


class _Frozen:
    """Base of an immutable value type: a subclass names its fields in
    ``__slots__`` and sets them in its ``__init__`` with
    ``object.__setattr__``.  Two instances are equal, and hash alike, when
    they have the same type and equal fields; a value never equals a tuple
    or an instance of another type.  A slot whose name starts with ``_``
    is not a field but a memo of something the fields determine: equality,
    hash and repr ignore it.  ``copy``, ``deepcopy`` and ``pickle`` rebuild
    a value through its constructor from its fields, so a memo is not
    carried over."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if self is other:  # hot paths mostly compare a chart with itself
            return True
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _lazy_submodule(name: str):
    """The submodule ``liefol.<name>``, registered but not yet executed
    (an already imported one is kept, so that its classes stay the same)."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy_submodule(_name)
del _name


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
