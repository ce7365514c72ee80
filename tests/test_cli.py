"""Problem-file parsing and the JSON-reporting subcommands."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import liefol
from liefol.cli import FLAG_RANGES, ProblemError, build_parser, main, parse_problem

GOLDEN = Path(__file__).parent / "golden"

BASIC = """\
# a pair of fields on the plane
vars: x y
field v = x*dx + y*dy
field w = -y*dx + x*dy
curve C = x*y - 1
"""

SPATIAL = """\
vars: x y z
field rot = -y*dx + x*dy
field vert = dz
foliation F = rot, vert
map proj = x
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParseProblem:
    def test_basic(self):
        problem = parse_problem(BASIC)
        assert problem.chart.variables == ("x", "y")
        assert problem._fields == ("chart", "objects")
        assert [(name, kind) for name, (kind, _) in problem.objects.items()] == [
            ("v", "field"), ("w", "field"), ("C", "curve")
        ]
        curve = problem.objects["C"][1]
        assert str(curve) == "x*y - 1"
        assert problem.lookup("curve") == ("C", "curve", curve)
        assert problem.lookup("field", "w") == ("w", "field", problem.objects["w"][1])
        assert problem.lookup("field or curve", "C") == ("C", "curve", curve)
        with pytest.raises(ValueError, match="declares 2 fields; name one explicitly"):
            problem.lookup("field")
        with pytest.raises(ValueError, match="no curve named 'D' in the problem file"):
            problem.lookup("curve", "D")
        with pytest.raises(AttributeError):
            problem.chart = None

    def test_vars_must_come_first(self):
        with pytest.raises(ProblemError, match="vars"):
            parse_problem("field v = dx\nvars: x\n")

    def test_duplicate_name_rejected(self):
        text = "vars: x\nfield v = dx\nfield v = x*dx\n"
        with pytest.raises(ProblemError, match="duplicate"):
            parse_problem(text)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProblemError):
            parse_problem("vars: x\nwidget v = dx\n")

    def test_undeclared_basis(self):
        with pytest.raises(ProblemError):
            parse_problem("vars: x\nfield v = dx + dz\n")

    def test_foliation_references_fields(self):
        # undeclared, then declared as a curve and as a map: the same message
        for text, name in [
            ("vars: x y\nfield v = dx\nfoliation F = v, ghost\n", "ghost"),
            ("vars: x y\ncurve C = x\nfoliation F = C\n", "C"),
            ("vars: x y\nmap m = x*y\nfoliation F = m\n", "m"),
        ]:
            with pytest.raises(ProblemError) as exc:
                parse_problem(text)
            assert str(exc.value) == f"line 3: no field named {name!r} in the problem file"

    def test_error_carries_line_number(self):
        try:
            parse_problem("vars: x\nfield v = +++\n")
        except ProblemError as err:
            assert err.line == 2
        else:  # pragma: no cover
            pytest.fail("expected a ProblemError")

    @pytest.mark.parametrize("name", ["\u00e9", "x\u00e9", "\u0663", "v2\u00b2"])
    def test_names_are_ascii_like_chart_variables(self, name, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(f"vars: x\nfield {name} = x*dx\n", encoding="utf-8")
        code, report = run(capsys, "invariance", str(path), "--field", name, "--curve", "C")
        assert code == 1
        assert report["error"] == f"line 2: bad name {name!r}"

    def test_bad_field_term_names_the_term(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("vars: x y\nfield v = x*dx + y\n")
        code, report = run(capsys, "planar", str(path))
        assert (code, report["error"]) == (1, "line 2: field term y carries no basis factor")

    def test_comments_and_blanks_ignored(self):
        problem = parse_problem("# top\n\nvars: x\n# middle\nfield v = dx\n")
        assert list(problem.objects) == ["v"]


# problem files for the name rule, by the objects they declare
PROBLEMS = {
    "one_of_each": """\
vars: x y
field v = x*dx + -1*y*dy
curve C = x*y - 1
foliation F = v
map m = x*y
""",
    "several": """\
vars: x y
field u = dy
field v = x*dx + -1*y*dy
field w = dx
curve C = x*y - 1
curve D = x
foliation F = v
foliation G = w
map m = x*y
""",
    "two_fields_two_maps": """\
vars: x y
field v = x*dx + -1*y*dy
field w = dx
map m = x*y
map n = x + y
""",
    "one_map": "vars: x y\nmap m = x*y\n",
    "one_field": "vars: x y\nfield v = dx\n",
}


def _picked(inputs):
    """The object names a report's inputs resolved to."""
    return {
        key: value["name"] if isinstance(value, dict) else value
        for key, value in inputs.items()
        if key in ("name", "v", "w", "field", "foliation", "curve", "target")
    }


class TestNameResolution:
    """Which declared object each subcommand picks for a name, given or
    omitted, and the message when none fits."""

    @pytest.mark.parametrize(
        "problem, argv, expected",
        [
            # bracket: both names or neither; neither means exactly two fields
            ("two_fields_two_maps", ["bracket"], {"v": "v", "w": "w"}),
            ("one_of_each", ["bracket"], "name two fields (the file does not declare exactly two)"),
            ("several", ["bracket"], "name two fields (the file does not declare exactly two)"),
            ("several", ["bracket", "v"], "name either both fields or neither"),
            ("several", ["bracket", "v", "ghost"], "no field named 'ghost' in the problem file"),
            ("several", ["bracket", "C", "v"], "no field named 'C' in the problem file"),
            # invariance
            ("one_of_each", ["invariance", "--curve", "C"], {"field": "v", "curve": "C"}),
            (
                "several",
                ["invariance", "--curve", "C"],
                "problem file declares 3 fields; name one explicitly",
            ),
            (
                "several",
                ["invariance", "--field", "ghost", "--curve", "C"],
                "no field named 'ghost' in the problem file",
            ),
            (
                "several",
                ["invariance", "--field", "C", "--curve", "C"],
                "no field named 'C' in the problem file",
            ),
            (
                "several",
                ["invariance", "--field", "v", "--foliation", "m", "--curve", "D"],
                {"field": "v", "foliation": "m", "curve": "D"},
            ),
            (
                "several",
                ["invariance", "--field", "v", "--foliation", "ghost"],
                "no foliation or map named 'ghost' in the problem file",
            ),
            (
                "several",
                ["invariance", "--field", "v", "--foliation", "w"],
                "no foliation or map named 'w' in the problem file",
            ),
            (
                "several",
                ["invariance", "--field", "v", "--curve", "ghost"],
                "no curve named 'ghost' in the problem file",
            ),
            (
                "several",
                ["invariance", "--field", "v", "--curve", "m"],
                "no curve named 'm' in the problem file",
            ),
            # foliation: the only foliation, else the only map
            ("one_of_each", ["foliation"], {"name": "F"}),
            ("one_of_each", ["foliation", "m"], {"name": "m"}),
            ("one_map", ["foliation"], {"name": "m"}),
            ("several", ["foliation"], "problem file declares 2 foliations; name one explicitly"),
            (
                "two_fields_two_maps",
                ["foliation"],
                "problem file declares 2 maps; name one explicitly",
            ),
            ("one_field", ["foliation"], "problem file declares 0 foliations; name one explicitly"),
            (
                "several",
                ["foliation", "ghost"],
                "no foliation or map named 'ghost' in the problem file",
            ),
            ("several", ["foliation", "v"], "no foliation or map named 'v' in the problem file"),
            # planar
            ("one_of_each", ["planar", "--curve", "C"], {"field": "v", "curve": "C"}),
            ("several", ["planar"], "problem file declares 3 fields; name one explicitly"),
            (
                "several",
                ["planar", "--field", "ghost"],
                "no field named 'ghost' in the problem file",
            ),
            ("several", ["planar", "--field", "C"], "no field named 'C' in the problem file"),
            (
                "several",
                ["planar", "--field", "v", "--curve", "F"],
                "no curve named 'F' in the problem file",
            ),
            # flow-series: the target is a field or a curve
            ("one_of_each", ["flow-series", "C"], {"field": "v", "target": "C"}),
            ("several", ["flow-series", "w", "--v", "v"], {"field": "v", "target": "w"}),
            (
                "several",
                ["flow-series", "C"],
                "problem file declares 3 fields; name one explicitly",
            ),
            (
                "several",
                ["flow-series", "C", "--v", "ghost"],
                "no field named 'ghost' in the problem file",
            ),
            ("several", ["flow-series", "C", "--v", "D"], "no field named 'D' in the problem file"),
            (
                "several",
                ["flow-series", "ghost", "--v", "v"],
                "no field or curve named 'ghost' in the problem file",
            ),
            (
                "several",
                ["flow-series", "m", "--v", "v"],
                "no field or curve named 'm' in the problem file",
            ),
        ],
    )
    def test_name_rule(self, problem, argv, expected, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(PROBLEMS[problem])
        order = ["--order", "1"] if argv[0] == "flow-series" else []
        code, report = run(capsys, argv[0], str(path), *argv[1:], *order)
        if isinstance(expected, str):
            assert (code, report) == (1, {"op": argv[0], "status": "error", "error": expected})
        else:
            assert code == 0
            assert _picked(report["inputs"]) == expected


class TestBracket(object):
    def test_named_pair(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(BASIC)
        code, report = run(capsys, "bracket", str(path), "v", "w")
        assert code == 0
        assert report["status"] == "ok"
        assert report["result"]["coefficients"] == ["0", "0"]

    def test_default_pair_when_exactly_two(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(BASIC)
        code, report = run(capsys, "bracket", str(path))
        assert code == 0
        assert report["inputs"]["v"]["name"] == "v"

    def test_scaling_example(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("vars: x y\nfield v = x*dx\nfield w = dx\n")
        code, report = run(capsys, "bracket", str(path), "v", "w")
        assert code == 0
        assert report["result"]["coefficients"] == ["-1", "0"]

    def test_unknown_field_errors(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(BASIC)
        code, report = run(capsys, "bracket", str(path), "v", "ghost")
        assert code == 1
        assert report["status"] == "error"
        assert "ghost" in report["error"]


class TestInvariance:
    def test_foliation_and_curve(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(SPATIAL)
        code, report = run(capsys, "invariance", str(path), "--field", "rot", "--foliation", "F")
        assert code == 0
        assert report["result"]["foliation"]["invariant"] is True

    def test_curve_invariance(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("vars: x y\nfield h = x*dx + -1*y*dy\ncurve C = x*y - 1\n")
        code, report = run(capsys, "invariance", str(path), "--curve", "C")
        assert code == 0
        assert report["result"]["curve"]["invariant"] is True

    def test_map_resolves_to_tangent_foliation(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(
            "vars: x y\nfield v = x*dx + -1*y*dy\nmap m = x*y\n"
        )
        code, report = run(capsys, "invariance", str(path), "--field", "v", "--foliation", "m")
        assert code == 0
        assert report["result"]["foliation"]["invariant"] is True

    def test_nothing_to_check(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(BASIC)
        code, report = run(capsys, "invariance", str(path), "--field", "v")
        assert code == 1
        assert "nothing to check" in report["error"]

    def test_witness_on_failure(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("vars: x y\nfield shear = x*dy\nfield horiz = dx\nfoliation F = horiz\n")
        code, report = run(capsys, "invariance", str(path), "--field", "shear", "--foliation", "F")
        assert code == 0
        block = report["result"]["foliation"]
        assert block["invariant"] is False
        assert block["witness"] == ["0", "-1"]


class TestFoliation:
    def test_rank_involutivity_singular(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(SPATIAL)
        code, report = run(capsys, "foliation", str(path), "F")
        assert code == 0
        result = report["result"]
        assert result["rank"] == 2
        assert result["involutive"] is True
        assert result["singular_locus"] == ["x", "y"]

    def test_non_involutive_witness(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(
            "vars: x y z\nfield a = dx\nfield b = dy + x*dz\nfoliation H = a, b\n"
        )
        code, report = run(capsys, "foliation", str(path), "H")
        assert code == 0
        result = report["result"]
        assert result["involutive"] is False
        assert result["witness"] == ["0", "0", "1"]

    def test_dependent_generators_note(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(
            "vars: x y\nfield v = x*dx + y*dy\nfield w = 2*x*dx + 2*y*dy\nfoliation F = v, w\n"
        )
        code, report = run(capsys, "foliation", str(path), "F")
        assert code == 0
        result = report["result"]
        assert result["rank"] == 1
        assert result["singular_locus"] is None
        assert "note" in result

    def test_four_variables_two_generators(self, capsys):
        """p = 2 on four variables: the minor on the two columns off the
        pivots is a determinant, the other five are read off the reduced form."""
        code = main(["foliation", str(GOLDEN / "foliation_four_vars.txt"), "F"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["result"]["singular_locus"] == [
            "x*z^2", "x*z^2 - z^2*w - 6*x*y", "x^2", "x*y", "x*y - y*w", "y^2"
        ]
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "ffc0136d1626b2ac2c695ccb6dbfae63c9f02b0732dc23cad609de36182e7ae1"
        )

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("map_foliation_m1.json", ["foliation", "map_foliation.txt", "m1"]),
            ("map_foliation_m2.json", ["foliation", "map_foliation.txt", "m2"]),
            ("map_invariance.json", ["invariance", "map_foliation.txt", "--field", "v", "--foliation", "m1"]),
            ("map_degree3_rank2.json", ["foliation", "map_degree3_rank2.txt", "m"]),
        ],
    )
    def test_tangent_foliation_of_a_dominant_map(self, golden, argv, capsys):
        """Rank one and rank two on four variables, rational coefficients,
        and two dense cubics: the reports are byte-identical to the
        committed ones."""
        code = main([argv[0], str(GOLDEN / argv[1]), *argv[2:]])
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()

    def test_degree3_rank2_map(self, capsys):
        """Two dense cubics on four variables, whose kernel generators have
        degree 4 and 2x2 minors of degree 8 with a common factor of degree
        4: the report answers within a bound, and its locus is the kernel
        generators' minor ideal recomputed with sympy."""
        start = time.perf_counter()
        code = main(["foliation", str(GOLDEN / "map_degree3_rank2.txt"), "m"])
        out = capsys.readouterr().out
        assert time.perf_counter() - start < 10.0
        assert code == 0
        report = json.loads(out)
        assert len(report["result"]["singular_locus"]) == 6
        sympy = pytest.importorskip("sympy")
        from sympy.polys.domains import QQ
        from sympy.polys.rings import ring

        R, *_ = ring(",".join(report["inputs"]["vars"]), QQ)

        def parse(text):
            return R(sympy.sympify(text.replace("^", "**")))

        a, b = [[parse(c) for c in g] for g in report["inputs"]["generators"]]
        minors = [a[i] * b[j] - a[j] * b[i] for i, j in itertools.combinations(range(4), 2)]
        minors = [m for m in minors if m]
        common = minors[0]
        for m in minors[1:]:
            common = common.gcd(m)
        assert not common.is_ground
        expected = {m.exquo(common).monic() for m in minors}
        assert {parse(g).monic() for g in report["result"]["singular_locus"]} == expected

    def test_degree4_rank2_map(self, capsys):
        """Two dense quartics on four variables: involutivity asks whether
        its bracket is in the kernel of the Jacobian, so the whole report,
        byte-identical to the committed one, answers within 2 s."""
        start = time.perf_counter()
        code = main(["foliation", str(GOLDEN / "map_degree4_rank2.txt"), "m"])
        out = capsys.readouterr().out
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert out == (GOLDEN / "map_degree4_rank2.json").read_text()

    def test_map_argument(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("vars: x y\nmap m = x^2 + y^2\n")
        code, report = run(capsys, "foliation", str(path), "m")
        assert code == 0
        assert report["result"]["rank"] == 1


class TestPlanar:
    def test_rotation(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("vars: x y\nfield rot = -y*dx + x*dy\n")
        code, report = run(capsys, "planar", str(path))
        assert code == 0
        result = report["result"]
        assert result["Q"] == "x^2 + y^2"
        assert result["line_invariant"] is True
        assert result["rational_infinity_points"] == []

    def test_hyperbolic_with_curve(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("vars: x y\nfield h = x*dx + -1*y*dy\ncurve C = x*y - 1\n")
        code, report = run(capsys, "planar", str(path), "--curve", "C")
        assert code == 0
        result = report["result"]
        assert result["Q"] == "-2*x*y"
        assert result["curve_verdict"] == "consistent"
        assert result["rational_infinity_points"] == [["1", "0"], ["0", "1"]]

    def test_radial_degenerates(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("vars: x y\nfield v = x*dx + y*dy\n")
        code, report = run(capsys, "planar", str(path))
        assert code == 0
        assert report["result"]["line_invariant"] is False

    def test_three_variable_chart_rejected(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(SPATIAL)
        code, report = run(capsys, "planar", str(path), "--field", "rot")
        assert code == 1
        assert report["error"] == "planar analysis needs a two-variable chart"

    @pytest.mark.parametrize("extra", [[], ["--curve", "C"]])
    def test_one_variable_chart_rejected(self, tmp_path, capsys, extra):
        path = tmp_path / "p.txt"
        path.write_text("vars: x\nfield v = x*dx\ncurve C = x\n")
        code, report = run(capsys, "planar", str(path), *extra)
        assert code == 1
        assert report["error"] == "planar analysis needs a two-variable chart"


class TestFlowSeries:
    def test_function_target(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("vars: x y\nfield v = x*dx + y*dy\ncurve f = x\n")
        code, report = run(capsys, "flow-series", str(path), "f", "--order", "2")
        assert code == 0
        result = report["result"]
        assert result["kind"] == "function"
        assert result["coefficients"] == ["x", "x", "1/2*x"]

    def test_field_target(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("vars: x y\nfield v = x*dx\nfield w = dx\n")
        code, report = run(capsys, "flow-series", str(path), "w", "--v", "v", "--order", "2")
        assert code == 0
        result = report["result"]
        assert result["kind"] == "field"
        assert result["coefficients"] == [["1", "0"], ["-1", "0"], ["1/2", "0"]]

    def test_unknown_target(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(BASIC)
        code, report = run(capsys, "flow-series", str(path), "ghost")
        assert code == 1


class TestAnosov:
    def test_default_run(self, capsys):
        code, report = run(capsys, "anosov", "--samples", "6", "--t-max", "25")
        assert code == 0
        result = report["result"]
        assert result["bounds"]["passed"] is True
        assert result["bounds"]["lambda_stable"] == pytest.approx(0.381966011250, abs=1e-9)
        assert [ln["label"] for ln in result["closed_orbit"]["lines"]] == [
            "stable",
            "flow",
            "unstable",
        ]
        assert len(result["closed_orbit"]["planes"]) == 3
        assert result["leaf_density"]["coverage"] == 1.0
        assert result["leaf_density"]["control_coverage"] < 0.9

    def test_swap_bundles_fails(self, capsys):
        code, report = run(capsys, "anosov", "--samples", "4", "--t-max", "20", "--swap-bundles")
        assert code == 0
        assert report["result"]["bounds"]["passed"] is False


class TestErrorReporting:
    def test_missing_file(self, capsys):
        code, report = run(capsys, "bracket", "/no/such/file")
        assert code == 1
        assert report["status"] == "error"

    def test_problem_error_includes_line(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("vars: x\nfield v = ???\n")
        code, report = run(capsys, "bracket", str(path))
        assert code == 1
        assert "line 2" in report["error"]

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(BASIC))
        code, report = run(capsys, "bracket", "-")
        assert code == 0
        assert report["result"]["coefficients"] == ["0", "0"]

    @pytest.mark.parametrize(
        "problem, message",
        [
            ("", "line 1: empty problem file"),
            ("# nothing here\n\n   # still nothing\n", "line 1: empty problem file"),
            ("vars:\n", "line 1: no variables declared"),
            ("vars: x y\nvars: z\n", "line 2: variables are already declared"),
            (
                "vars: x y\nfield v = x*dx\nfoliation F = ,\n",
                "line 3: foliation needs at least one generator",
            ),
            (
                "vars: x y\nfield v = 1/0*dx\n",
                "line 2: zero denominator in rational literal (at column 3)",
            ),
            (
                "vars: x y\ncurve C = x + 1/\n",
                "line 2: expected an integer after '/' (at column 6)",
            ),
            (None, "this subcommand needs a problem file (or '-' for stdin)"),
        ],
    )
    def test_problem_file_errors(self, problem, message, tmp_path, capsys):
        """Each malformed problem file, and a missing one, is a JSON error
        with exit code 1, not an internal one."""
        argv = ["foliation"]
        if problem is not None:
            path = tmp_path / "p.txt"
            path.write_text(problem)
            argv.append(str(path))
        code, report = run(capsys, *argv)
        assert code == 1
        assert report == {"op": "foliation", "status": "error", "error": message}

    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.txt"
        curve = "(" * 3000 + "x" + ")" * 3000
        path.write_text(f"vars: x y\nfield v = x*dx + y*dy\ncurve C = {curve}\n")
        code, report = run(capsys, "planar", str(path))
        assert code == 1
        assert report["status"] == "error"
        assert "line 3" in report["error"] and "nests too deeply" in report["error"]

    def test_unexpected_exception_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("liefol.cli.liecalc.lie_bracket", broken)
        path = tmp_path / "p.txt"
        path.write_text(BASIC)
        code, report = run(capsys, "bracket", str(path))
        assert code == 1
        assert report == {
            "op": "bracket",
            "status": "error",
            "error": "internal: RuntimeError: boom",
        }


class TestArgumentErrors:
    """A malformed command line is a JSON error with exit code 1, not
    argparse's usage text with exit code 2."""

    @pytest.mark.parametrize(
        "argv, op, message",
        [
            (["anosov", "--samples", "abc"], "anosov", "argument --samples: invalid int value"),
            (["frob"], None, "argument op: invalid choice: 'frob'"),
            (["flow-series"], "flow-series", "the following arguments are required: target"),
            ([], None, "the following arguments are required: op"),
            (["anosov", "--bogus"], "anosov", "unrecognized arguments: --bogus"),
        ],
    )
    def test_bad_command_line(self, argv, op, message, capsys):
        code, report = run(capsys, *argv)
        assert code == 1
        assert report["op"] == op and report["status"] == "error"
        assert report["error"].startswith(message)
        assert set(report) == {"op", "status", "error"}

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["anosov", "--help"])
        assert info.value.code == 0
        assert "--arc-length" in capsys.readouterr().out


def test_cli_import_leaves_numpy_out():
    src = str(Path(liefol.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, liefol.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


class TestBudgets:
    def test_large_coefficient_at_infinity(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("vars: x y\nfield v = x*dx + (2*y - 1000000000000*x)*dy\n")
        start = time.perf_counter()
        code, report = run(capsys, "planar", str(path))
        assert time.perf_counter() - start < 5.0
        assert code == 0 and report["status"] == "ok"
        assert ["1", "1000000000000"] in report["result"]["rational_infinity_points"]

    def test_huge_power_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "power.txt"
        path.write_text("vars: x y\nfield v = x*dx + y*dy\ncurve C = (x+y+1)^200000\n")
        start = time.perf_counter()
        code, report = run(capsys, "planar", str(path))
        assert time.perf_counter() - start < 5.0
        assert code == 1 and report["status"] == "error"
        assert "line 3" in report["error"] and "exceeds the limit" in report["error"]
        assert "column 9" in report["error"]  # the exponent, counted in the payload

    @pytest.mark.parametrize("curve", ["7^3000000", "7^30000000"])
    def test_huge_coefficient_is_a_parse_error(self, curve, tmp_path, capsys):
        path = tmp_path / "constant.txt"
        path.write_text(f"vars: x y\nfield v = x*dx + y*dy\ncurve C = {curve}\n")
        start = time.perf_counter()
        code, report = run(capsys, "invariance", str(path), "--curve", "C")
        assert time.perf_counter() - start < 0.5
        assert code == 1 and report["status"] == "error"
        assert "line 3" in report["error"] and "bits exceeds the limit" in report["error"]

    @pytest.mark.parametrize(
        "problem, argv, message",
        [
            (
                f"vars: x\nfield v = {'9' * 1500}*x^2*dx\ncurve f = x\n",
                ["flow-series", "f", "--order", "3"],
                "a coefficient of 14949 bits has more than 4300 digits, too many to print",
            ),
            (
                f"vars: x\nfield v = x*dx\ncurve f = x + {'7' * 5000}\n",
                ["invariance", "--curve", "f"],
                "line 3: integer literal of 5000 digits exceeds the limit 4300 (at column 5)",
            ),
        ],
        ids=["render", "parse"],
    )
    def test_digit_limit_is_reported_by_liefol(self, problem, argv, message, tmp_path, capsys):
        """A literal or a result past CPython's int/str digit limit (4300 by
        default) is an error the program words itself."""
        if getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300:
            pytest.skip("needs the default int/str conversion limit")
        path = tmp_path / "digits.txt"
        path.write_text(problem)
        code, report = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 1
        assert report == {"op": argv[0], "status": "error", "error": message}

    @pytest.mark.parametrize("components", [2, 4])
    def test_map_components_share_one_budget(self, components, tmp_path, capsys):
        """Each component fits alone; the map is rejected before any is expanded."""
        path = tmp_path / "map.txt"
        payload = ", ".join(["(x+y+1)^50*(x-y+2)^50"] * components)
        path.write_text(f"vars: x y\nmap m = {payload}\n")
        start = time.perf_counter()
        code, report = run(capsys, "foliation", str(path), "m")
        assert time.perf_counter() - start < 0.5
        assert code == 1 and report["status"] == "error"
        assert "line 2" in report["error"] and "terms in all exceed the limit" in report["error"]

    def test_map_components_parse_as_before(self):
        problem = parse_problem("vars: x y\nmap m = x^2 + y, -x*y , 1/2\n")
        kind, components = problem.objects["m"]
        assert kind == "map"
        assert [str(c) for c in components] == ["x^2 + y", "-x*y", "1/2"]
        for payload in ("x, , y", "x,", ", x"):
            with pytest.raises(ProblemError, match="line 2"):
                parse_problem(f"vars: x y\nmap m = {payload}\n")

    @pytest.mark.parametrize(
        "name, sha256",
        [
            # Q is nonzero: the pair's content is 1, which a general gcd
            # took over 20 s to find at this degree
            (
                "planar_degree36.txt",
                "a34b77b0db6a344a1191249ff5c345908b12ff41b7d011dc70f4372763c75bfd",
            ),
            # Q = 0: the pair's content is s
            (
                "planar_degree36_line_not_invariant.txt",
                "c0cd1399c9049d155bd89c3d4645ea37842055b4379fe6d737e6b01d5a96b49a",
            ),
            # GCDHEU gives up on the pair's coprimality gcd, and the PRS
            # fallback answers
            (
                "planar_degree50.txt",
                "8a9ce598d3737ff99fdc7eb1aacd774ab96c4928b820d8b03f8634262ec5fdc9",
            ),
        ],
    )
    def test_degree36_planar_field(self, name, sha256, capsys):
        start = time.perf_counter()
        code = main(["planar", str(GOLDEN / name)])
        out = capsys.readouterr().out
        assert time.perf_counter() - start < 10.0
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_planar_field_with_a_long_lead(self, capsys):
        """P(t) = (1 - t)(N t^2 + 5t - 1), N the 1274-digit product of the
        primes below 3000: the rational root 1 is found at one prime."""
        start = time.perf_counter()
        code = main(["planar", str(GOLDEN / "planar_long_lead.txt")])
        out = capsys.readouterr().out
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out == (GOLDEN / "planar_long_lead.json").read_text()
        assert json.loads(out)["result"]["rational_infinity_points"] == [["1", "1"]]

    def test_degree70_rank_one_map(self, capsys):
        """Two equal 2556-term components: every product of the Bareiss
        elimination runs on large operands in the dense accumulator."""
        start = time.perf_counter()
        code = main(["foliation", str(GOLDEN / "map_rank1_degree70.txt"), "m"])
        out = capsys.readouterr().out
        assert time.perf_counter() - start < 30.0
        assert code == 1
        assert "(Jacobian rank 1)" in json.loads(out)["error"]
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "78551848944cb663fcb0ef16e038579bc24bca5c7b10b8e1e36f171ab0ffb374"
        )

    def test_sum_of_large_expansions_is_a_parse_error(self, tmp_path, capsys):
        """Each power fits alone; the sum is rejected before any is expanded."""
        path = tmp_path / "sum.txt"
        curve = "(x+y+1)^100 + (x-y+2)^100 + (x+2*y+3)^100"
        path.write_text(f"vars: x y\nfield v = x*dx + y*dy\ncurve C = {curve}\n")
        start = time.perf_counter()
        code, report = run(capsys, "invariance", str(path), "--curve", "C")
        assert time.perf_counter() - start < 0.5
        assert code == 1 and report["status"] == "error"
        assert "line 3" in report["error"] and "terms in all exceed the limit" in report["error"]

    @pytest.mark.parametrize(
        "curve", ["(x+y+z+1)^60", "(x+y+1)^100*(x-y+2)^100", "(x+y+1)^100*(x-y+2)^50"]
    )
    def test_large_expansion_is_a_parse_error(self, curve, tmp_path, capsys):
        path = tmp_path / "curve.txt"
        path.write_text(f"vars: x y z\nfield v = x*dx + y*dy\ncurve C = {curve}\n")
        start = time.perf_counter()
        code, report = run(capsys, "invariance", str(path), "--curve", "C")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and report["status"] == "error"
        assert "line 3" in report["error"] and "exceeds the limit" in report["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["anosov", "--arc-length", "1e9"],
            ["anosov", "--arc-length", "0"],
            ["anosov", "--samples", "100000000"],
            ["anosov", "--samples", "0"],
            ["anosov", "--t-max", "1000"],
            ["anosov", "--epsilon", "0"],
            ["anosov", "--epsilon", "1e-9"],
            ["anosov", "--epsilon", "nan"],
            ["flow-series", "PROBLEM", "C", "--order", "100000"],
            ["flow-series", "PROBLEM", "C", "--order", "-1"],
        ],
    )
    def test_out_of_range_flag(self, argv, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("ran before the flags were checked")

        monkeypatch.setattr("liefol.cli.hyperbolic.verify_anosov_bounds", no_work)
        monkeypatch.setattr("liefol.cli.liecalc.flow_series_function", no_work)
        path = tmp_path / "p.txt"
        path.write_text(BASIC)
        argv = [str(path) if a == "PROBLEM" else a for a in argv]
        code, report = run(capsys, *argv)
        assert code == 1 and report["status"] == "error"
        assert report["error"].startswith(argv[-2] + " must lie in")

    def test_defaults_lie_in_range(self):
        parser = build_parser()
        for argv in (["anosov"], ["flow-series", "p.txt", "C"]):
            args = parser.parse_args(argv)
            for name, (low, high) in FLAG_RANGES.items():
                if hasattr(args, name):
                    assert low <= getattr(args, name) <= high
