"""The loading contract: ``import liefol`` runs no submodule, the public
names resolve to the objects of their defining modules, and a CLI call
runs only the modules its subcommand uses."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import liefol

SRC = str(Path(liefol.__file__).resolve().parents[1])
ROOT = Path(SRC).parent
GOLDEN = ROOT / "tests" / "golden"

LAZY = ("poly", "expr", "liecalc", "dmod", "linalg", "foliation", "planar", "hyperbolic")

# Modules a call should not load: ``dataclasses`` costs more to import, with
# the ``inspect`` it pulls in, than most calls spend computing.
HEAVY = ("dataclasses", "inspect")

# Run in a fresh interpreter: import liefol (and optionally run cli.main on
# argv), then print the lazy submodules whose code has run, whether
# liefol.cli is imported, and which of HEAVY are.  type() reads the
# module's class without an attribute access, so it triggers no load.
_PROBE = """
import contextlib, io, sys, types
import liefol
argv = sys.argv[1:]
if argv:
    from liefol import cli
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
names = {lazy!r}
print(*sorted(n for n in names if type(sys.modules["liefol." + n]) is types.ModuleType))
print("liefol.cli" in sys.modules)
print(*[m for m in {heavy!r} if m in sys.modules])
"""


def _env():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _executed(*argv):
    """The lazy submodules executed in a fresh process, whether
    ``liefol.cli`` is imported, and the modules of HEAVY imported."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(lazy=LAZY, heavy=HEAVY), *argv],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    executed, cli_loaded, heavy = out.stdout.splitlines()
    return set(executed.split()), cli_loaded == "True", set(heavy.split())


def test_import_registers_but_runs_no_submodule():
    # the probe reads sys.modules["liefol.<name>"] for every lazy name
    executed, cli_loaded, heavy = _executed()
    assert executed == set()
    assert not cli_loaded
    assert heavy == set()


@pytest.mark.parametrize(
    "argv, ran",
    [
        (["anosov"], {"hyperbolic"}),
        (["bracket", "tests/golden/bracket.txt", "v", "w"], {"poly", "expr", "liecalc"}),
        (
            ["foliation", "tests/golden/spatial.txt", "F"],
            {"poly", "expr", "liecalc", "linalg", "foliation"},
        ),
        (
            ["planar", "tests/golden/planar_hyperbolic.txt", "--curve", "C"],
            {"poly", "expr", "liecalc", "planar"},
        ),
        (
            ["invariance", "tests/golden/spatial.txt", "--field", "rot", "--foliation", "F"],
            {"poly", "expr", "liecalc", "linalg", "foliation"},
        ),
        (
            ["flow-series", "tests/golden/flow_series.txt", "f", "--order", "2"],
            {"poly", "expr", "liecalc"},
        ),
        # a malformed command line and a flag out of range run nothing
        (["bogus"], set()),
        (["anosov", "--samples", "0"], set()),
        (["flow-series", "tests/golden/flow_series.txt", "f", "--order", "-1"], set()),
    ],
)
def test_cli_runs_only_what_the_subcommand_uses(argv, ran):
    executed, _, heavy = _executed(*argv)
    assert executed == ran
    if "planar" in ran:
        # planar.InfinityReport is a dataclass: the one reason planar loads them
        assert heavy == set(HEAVY)
    else:
        assert heavy == set()


# Run in a fresh interpreter: import liefol, load benchmark/tracing.py from
# its file, and print each TRACED entry that does not resolve the way
# Tracer.install reads it, then whether linalg binds poly's function.
_TRACED_PROBE = """
import importlib.util, sys
import liefol
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
for _, module, attr in tracing.TRACED:
    owner = sys.modules[module]
    if "." in attr:
        cls, meth = attr.split(".")
        found = meth in vars(getattr(owner, cls))
    else:
        found = hasattr(owner, attr)
    if not found:
        print(module, attr)
clear = sys.modules["liefol.poly"].clear_to_polynomials
print(sys.modules["liefol.linalg"].clear_to_polynomials is clear, clear.__module__)
"""


def test_traced_names_resolve():
    """Every function ``benchmark/tracing.py`` wraps is found where it
    looks, so moving a function between modules cannot silently break
    ``run.py --trace 1``; ``linalg.clear_to_polynomials`` is ``poly``'s."""
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_PROBE, str(ROOT / "benchmark" / "tracing.py")],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == ["True liefol.poly"]


def test_public_names_are_the_defining_modules_objects():
    assert liefol.__all__[-1] == "__version__"
    for name in liefol.__all__[:-1]:
        module = getattr(liefol, liefol._ORIGIN[name])
        obj = getattr(liefol, name)
        assert obj is getattr(module, name), name
        if isinstance(obj, (type, types.FunctionType)):
            assert obj.__module__ == module.__name__, name


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from liefol import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(liefol.__all__)
    assert set(liefol.__all__) <= set(dir(liefol))
    assert set(LAZY) <= set(dir(liefol))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        liefol.no_such_name


def _unread_imports(path: Path):
    """(line, name) for each name a module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    """A name imported into the package, its tests or its scripts is read
    there: an import left behind by removed code fails this."""
    unread = {
        str(path.relative_to(ROOT)): names
        for folder in ("src/liefol", "tests", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (names := _unread_imports(path))
    }
    assert unread == {}


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("bracket.json", ["bracket", "tests/golden/bracket.txt", "v", "w"]),
        ("anosov.json", ["anosov", "--samples", "4", "--t-max", "25", "--seed", "0"]),
    ],
)
def test_run_as_module_warns_nothing(golden, argv):
    """``python -m liefol.cli`` finds ``liefol.cli`` unregistered, so runpy
    has nothing to warn about, even with warnings as errors."""
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "liefol.cli", *argv],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        check=True,
    )
    assert out.stderr == b""
    assert out.stdout == (GOLDEN / golden).read_bytes()
