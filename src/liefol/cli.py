"""Command-line interface: problem files in, JSON reports out.

Problem files are line-oriented; ``#`` starts a comment.  The first
significant line declares the chart, then named objects follow::

    vars: x y
    field v = x*dx + y*dy
    field w = -y*dx + x*dy
    map phi = x^2 + y^2, x*y
    foliation F = v, w
    curve C = x*y - 1

Expressions use integers, rationals ``p/q``, variable names, ``+ - * ^``
with non-negative integer exponents, and parentheses.  Field
expressions additionally use the basis symbols ``d<var>`` (``dx1 ..
dxn`` also accepted); map components are comma-separated.

A name is declared once, and no chart variable is reused as one.  Every
subcommand finds the objects it needs by one rule, `ProblemFile.lookup`:
a name given on the command line must be declared with a kind that the
argument accepts (``--foliation`` takes a foliation or a map, the
``flow-series`` target a field or a curve); a name left out means the
only object of the first accepted kind that the file declares at all, so
``foliation FILE`` takes the file's one foliation, or its one map when it
declares no foliation.  ``bracket`` takes both field names or neither,
and neither means the file's two fields.  ``anosov`` reads no file.

Every subcommand prints a single JSON report to standard output —
``{"op": ..., "inputs": ..., "result": ..., "status": "ok"}`` on
success, ``{"op": ..., "status": "error", "error": msg}`` with exit
code 1 otherwise; a failure that is a defect of the program itself
carries a message starting with ``internal:``.  A malformed command line
(unknown subcommand, bad or missing argument) is such an error too, with
``op`` null when no subcommand was recognized, and a numeric flag outside
``FLAG_RANGES`` is reported as an error before any work is done.  All
symbolic values appear in the canonical text form, which re-parses to
the same object; ``anosov`` floats are rounded to 12 significant digits
so reports are byte-stable, and its ``result`` is the same for every
``--seed`` and ``--samples``, which ``inputs`` only echoes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, NamedTuple, NoReturn, Optional, Sequence, Tuple

from . import expr, foliation, hyperbolic, liecalc, planar, poly

_KINDS = ("field", "map", "foliation", "curve")

# Accepted ranges of the numeric flags, checked before any work.  The
# bounds keep every call within a few seconds: the Anosov bounds check
# costs four exact rate walks of t_max steps, and leaf density steps once
# per gridline crossing, at most about 1.4 * arc_length / epsilon times.
# ``anosov --samples`` (like ``--seed``) feeds no result and is only
# echoed in ``inputs``; it keeps its range all the same.
FLAG_RANGES: Dict[str, Tuple[float, float]] = {
    "order": (0, 30),
    "samples": (1, 200),
    "t_max": (2, 300),
    "epsilon": (0.02, 1.0),
    "arc_length": (1.0, 5000.0),
}


class ProblemError(ValueError):
    """A malformed problem file; the message carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ProblemFile(NamedTuple):
    chart: poly.Chart
    # the declared objects in file order: name -> (kind, value)
    objects: Dict[str, Tuple[str, object]]

    def lookup(self, kinds: str, name: Optional[str] = None) -> Tuple[str, str, object]:
        """The name, kind and value of the object declared as ``name``,
        which must be of one of ``kinds`` ("field", "foliation or map",
        ...); with no name, of the only object of the first of ``kinds``
        that the file declares at all."""
        allowed = kinds.split(" or ")
        if name is None:
            declared = [kind for kind, _ in self.objects.values()]
            kind = next((k for k in allowed if k in declared), allowed[0])
            count = declared.count(kind)
            if count != 1:
                raise ValueError(f"problem file declares {count} {kind}s; name one explicitly")
            name = next(n for n, (k, _) in self.objects.items() if k == kind)
        kind, value = self.objects.get(name, ("", None))
        if kind not in allowed:
            raise ValueError(f"no {kinds} named {name!r} in the problem file")
        return name, kind, value


def parse_problem(text: str) -> ProblemFile:
    stripped = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    lines = [(lineno, line) for lineno, line in enumerate(stripped, start=1) if line]
    if not lines:
        raise ProblemError("empty problem file", 1)
    lineno, line = lines[0]
    if not line.startswith("vars:"):
        raise ProblemError("the first declaration must be 'vars: <names>'", lineno)
    names = line[len("vars:") :].replace(",", " ").split()
    if not names:
        raise ProblemError("no variables declared", lineno)
    try:
        chart = poly.Chart(tuple(names))
    except ValueError as exc:
        raise ProblemError(str(exc), lineno) from None
    problem = ProblemFile(chart, {})
    for lineno, line in lines[1:]:
        if line.startswith("vars:"):
            raise ProblemError("variables are already declared", lineno)
        head, _, payload = line.partition("=")
        declaration = head.split()
        if len(declaration) != 2 or declaration[0] not in _KINDS or not payload.strip():
            raise ProblemError(
                "expected '<field|map|foliation|curve> <name> = <payload>'", lineno
            )
        kind, name = declaration
        if not poly._NAME_RE.match(name):
            raise ProblemError(f"bad name {name!r}", lineno)
        if name in problem.objects or name in chart.variables:
            raise ProblemError(f"duplicate name {name!r}", lineno)
        payload = payload.strip()
        value: object
        try:
            if kind == "field":
                coeffs = expr.parse_field_coefficients(payload, chart)
                value = liecalc.VectorField.from_coefficients(chart, coeffs)
            elif kind == "map":
                value = expr.parse_polynomials(payload, chart)
            elif kind == "foliation":
                gens = [problem.lookup("field", g)[2] for g in payload.replace(",", " ").split()]
                if not gens:
                    raise ValueError("foliation needs at least one generator")
                value = foliation.FoliationGens(chart, tuple(gens))
            else:  # curve
                value = expr.parse_polynomial(payload, chart)
        except ValueError as exc:  # expr.ParseError too
            raise ProblemError(str(exc), lineno) from None
        problem.objects[name] = (kind, value)
    return problem


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _f12(x: float) -> float:
    """Round to 12 significant digits (and normalize -0.0) for byte-stable JSON."""
    return float(f"{float(x):.12g}") + 0.0


def _field_json(v: liecalc.VectorField) -> List[str]:
    return [str(c) for c in v.coefficients]


def _named_field(name: str, v: liecalc.VectorField) -> Dict[str, object]:
    return {"name": name, "coefficients": _field_json(v)}


def _emit(report: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _fail(op: Optional[str], message: str) -> int:
    _emit({"op": op, "status": "error", "error": message})
    return 1


def _read_problem(path: Optional[str]) -> ProblemFile:
    if path is None:
        raise ValueError("this subcommand needs a problem file (or '-' for stdin)")
    if path == "-":
        return parse_problem(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


# ---------------------------------------------------------------------------
# Subcommands: each returns the report's inputs and result
# ---------------------------------------------------------------------------

Report = Tuple[Dict[str, object], Dict[str, object]]


def _cmd_bracket(args: argparse.Namespace, problem: ProblemFile) -> Report:
    names = [args.v, args.w]
    if names == [None, None]:
        names = [n for n, (kind, _) in problem.objects.items() if kind == "field"]
        if len(names) != 2:
            raise ValueError("name two fields (the file does not declare exactly two)")
    elif None in names:
        raise ValueError("name either both fields or neither")
    (name_v, _, v), (name_w, _, w) = [problem.lookup("field", n) for n in names]
    return (
        {"v": _named_field(name_v, v), "w": _named_field(name_w, w)},
        {"coefficients": _field_json(liecalc.lie_bracket(v, w))},
    )


def _foliation(problem: ProblemFile, name: Optional[str]) -> Tuple[str, foliation.FoliationGens]:
    """The foliation declared as ``name``, or the tangent foliation of the map."""
    name, kind, value = problem.lookup("foliation or map", name)
    if kind == "map":
        value = foliation.tangent_foliation(value, problem.chart)
    return name, value


def _cmd_invariance(args: argparse.Namespace, problem: ProblemFile) -> Report:
    field_name, _, v = problem.lookup("field", args.field)
    if args.foliation is None and args.curve is None:
        raise ValueError("nothing to check: pass --foliation and/or --curve")
    inputs: Dict[str, object] = {"field": _named_field(field_name, v)}
    result: Dict[str, object] = {}
    if args.foliation is not None:
        name, fol = _foliation(problem, args.foliation)
        inputs["foliation"] = {
            "name": name,
            "generators": [_field_json(g) for g in fol.generators],
        }
        verdict = foliation.is_invariant_subsheaf(fol, v)
        result["foliation"] = {
            "invariant": verdict.ok,
            "witness": None if verdict.witness is None else _field_json(verdict.witness),
        }
    if args.curve is not None:
        _, _, curve = problem.lookup("curve", args.curve)
        inputs["curve"] = {"name": args.curve, "equation": str(curve)}
        result["curve"] = {"invariant": foliation.invariant_hypersurface(curve, v)}
    return inputs, result


def _cmd_foliation(args: argparse.Namespace, problem: ProblemFile) -> Report:
    name, fol = _foliation(problem, args.name)
    rank = foliation.generic_rank(fol)
    involutive = foliation.is_involutive(fol)
    if rank == len(fol.generators):
        locus: Optional[List[str]] = [str(g) for g in foliation.singular_locus(fol).generators]
        note = None
    else:
        locus = None
        note = "generators are dependent at the generic point; no minor ideal"
    result: Dict[str, object] = {
        "rank": rank,
        "involutive": involutive.ok,
        "witness": None if involutive.witness is None else _field_json(involutive.witness),
        "singular_locus": locus,
    }
    if note:
        result["note"] = note
    return {"name": name, "generators": [_field_json(g) for g in fol.generators]}, result


def _cmd_planar(args: argparse.Namespace, problem: ProblemFile) -> Report:
    field_name, _, v = problem.lookup("field", args.field)
    field = planar.PlanarField.from_vector_field(v)
    report = planar.infinity_analysis(field)
    result: Dict[str, object] = {
        "degree": field.degree,
        "saturated_coefficients": [str(field.a), str(field.b)],
        "Q": str(report.q_form),
        "P": str(report.p_restricted),
        "line_invariant": report.line_invariant,
        "w_s": str(report.w_s),
        "w_t": str(report.w_t),
        "sing_infinity": None if report.sing_infinity is None else str(report.sing_infinity),
        "rational_infinity_points": [[str(px), str(py)] for px, py in report.rational_points],
    }
    inputs: Dict[str, object] = {"field": _named_field(field_name, v)}
    if args.curve is not None:
        _, _, curve = problem.lookup("curve", args.curve)
        inputs["curve"] = {"name": args.curve, "equation": str(curve)}
        result["curve_verdict"] = planar.invariant_curve_constraint(curve, field)
    return inputs, result


def _cmd_flow_series(args: argparse.Namespace, problem: ProblemFile) -> Report:
    field_name, _, v = problem.lookup("field", args.v)
    target, kind, value = problem.lookup("field or curve", args.target)
    if kind == "field":
        series = liecalc.flow_series_field(v, value, args.order)
        coeffs: object = [_field_json(c) for c in series.coefficients]
    else:
        series = liecalc.flow_series_function(v, value, args.order)
        coeffs = [str(c) for c in series.coefficients]
    return (
        {
            "field": _named_field(field_name, v),
            "order": args.order,
            "target": {"kind": series.kind, "name": target},
        },
        {"kind": series.kind, "order": series.order, "coefficients": coeffs},
    )


def _cmd_anosov(args: argparse.Namespace, _: None) -> Report:
    bounds = hyperbolic.verify_anosov_bounds(t_max=args.t_max, swap_bundles=args.swap_bundles)
    state = hyperbolic.fixed_point()
    lines = hyperbolic.classify_invariant_lines(state, 1)
    planes = hyperbolic.classify_invariant_planes(state, 1)
    coverage = hyperbolic.leaf_density(args.epsilon, args.arc_length)
    control = hyperbolic.leaf_density(args.epsilon, args.arc_length, direction=(1.0, 1.0))
    result = {
        "bounds": {
            "lambda_stable": _f12(bounds.lambda_stable_est),
            "lambda_unstable": _f12(bounds.lambda_unstable_est),
            "lambda_stable_backward": _f12(bounds.lambda_stable_backward),
            "lambda_unstable_backward": _f12(bounds.lambda_unstable_backward),
            "C_stable": _f12(bounds.c_stable),
            "C_unstable": _f12(bounds.c_unstable),
            "C_stable_lower": _f12(bounds.c_stable_lower),
            "flow_exponent": _f12(bounds.flow_exponent),
            "passed": bounds.passed,
        },
        "closed_orbit": {
            "state": [0.0, 0.0, 0.0],
            "period": 1,
            "lines": [
                {
                    "label": line.label,
                    "eigenvalue": _f12(line.eigenvalue),
                    "direction": [_f12(c) for c in line.direction],
                }
                for line in lines
            ],
            "line_count": len(lines),
            "planes": [
                {
                    "label": plane.label,
                    "basis": [[_f12(c) for c in vec] for vec in plane.basis],
                }
                for plane in planes
            ],
            "plane_count": len(planes),
        },
        "leaf_density": {
            "epsilon": _f12(args.epsilon),
            "arc_length": _f12(args.arc_length),
            "coverage": _f12(coverage),
            "control_coverage": _f12(control),
        },
    }
    inputs = {
        "seed": args.seed,
        "samples": args.samples,
        "t_max": args.t_max,
        "epsilon": _f12(args.epsilon),
        "arc_length": _f12(args.arc_length),
        "swap_bundles": args.swap_bundles,
    }
    return inputs, result


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class UsageError(ValueError):
    """A malformed command line; ``op`` is the subcommand, when known."""

    def __init__(self, op: Optional[str], message: str):
        super().__init__(message)
        self.op = op


class _ArgumentParser(argparse.ArgumentParser):
    """Raises `UsageError` where argparse would print usage and exit 2,
    so that `main` reports a bad command line as a JSON error."""

    def error(self, message: str) -> NoReturn:
        # a subcommand's parser is named "liefol <op>"
        raise UsageError(self.prog.partition(" ")[2] or None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="liefol",
        description="Lie calculus, foliations, and the hyperbolic suspension bench.",
    )
    sub = parser.add_subparsers(dest="op", required=True)

    p = sub.add_parser("bracket", help="Lie bracket of two declared fields")
    p.add_argument("problem", nargs="?", help="problem file ('-' for stdin)")
    p.add_argument("v", nargs="?", default=None, help="first field name")
    p.add_argument("w", nargs="?", default=None, help="second field name")
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("invariance", help="invariance of a foliation and/or curve under a field")
    p.add_argument("problem", nargs="?")
    p.add_argument("--field", default=None, help="field name (default: the only field)")
    p.add_argument("--foliation", default=None, help="foliation or map name")
    p.add_argument("--curve", default=None, help="curve name")
    p.set_defaults(handler=_cmd_invariance)

    p = sub.add_parser("foliation", help="rank, involutivity, and singular locus")
    p.add_argument("problem", nargs="?")
    p.add_argument("name", nargs="?", default=None, help="foliation or map name")
    p.set_defaults(handler=_cmd_foliation)

    p = sub.add_parser("planar", help="behaviour at the line at infinity")
    p.add_argument("problem", nargs="?")
    p.add_argument("--field", default=None)
    p.add_argument("--curve", default=None, help="check the curve's constraint at infinity")
    p.set_defaults(handler=_cmd_planar)

    p = sub.add_parser("flow-series", help="formal flow expansion of a function or field")
    p.add_argument("problem", nargs="?")
    p.add_argument("target", help="name of the curve (function) or field to expand")
    p.add_argument("--v", default=None, help="flowing field (default: the only field)")
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(handler=_cmd_flow_series)

    p = sub.add_parser("anosov", help="suspension bench: bounds, lines, planes, leaf density")
    p.add_argument("problem", nargs="?", help="ignored; present for interface uniformity")
    p.add_argument("--seed", type=int, default=0, help="echoed in inputs; no result reads it")
    p.add_argument("--samples", type=int, default=50, help="echoed in inputs; no result reads it")
    p.add_argument("--t-max", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--arc-length", type=float, default=2000.0)
    p.add_argument("--swap-bundles", action="store_true", help="negative control")
    p.set_defaults(handler=_cmd_anosov)

    return parser


def _check_flag_ranges(args: argparse.Namespace) -> None:
    for name, (low, high) in FLAG_RANGES.items():
        value = getattr(args, name, None)
        if value is not None and not low <= value <= high:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must lie in [{low}, {high}], got {value}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            raise UsageError(args.op, f"unrecognized arguments: {' '.join(extra)}")
    except UsageError as exc:
        return _fail(exc.op, str(exc))
    try:
        _check_flag_ranges(args)
        problem = None if args.op == "anosov" else _read_problem(args.problem)
        inputs, result = args.handler(args, problem)
        if problem is not None:
            inputs = {"vars": list(problem.chart.variables), **inputs}
        _emit({"op": args.op, "inputs": inputs, "result": result, "status": "ok"})
        return 0
    except BrokenPipeError:  # pragma: no cover
        return 1
    except (ValueError, KeyError, OSError, ZeroDivisionError) as exc:
        return _fail(args.op, str(exc))
    except Exception as exc:  # a defect, still reported as JSON
        return _fail(args.op, f"internal: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
