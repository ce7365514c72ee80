"""The benchmark's own tests: the cap, the answer checks, a second seed.

    PYTHONPATH=src python3 -m pytest -q benchmark
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from liefol import VectorField  # noqa: E402


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, previous)


def _group(rung, instance=0, seed=0):
    return workloads.foliation_group(random.Random(seed), rung, instance, 0)


def test_cap_fires_on_the_cliff_rung(alarm):
    # (3, 2, 2) with dense support: is_invariant_subsheaf runs for minutes
    group = _group((3, 2, 2))
    status, _, fol = run.run_library_case(group[0], run.CAP_S)
    assert status == "ok" and group[0].check(fol) is None
    status, took, out = run.run_library_case(group[4], 0.5)
    assert status == "timeout" and out is None
    assert 0.5 <= took < 5.0


def test_cap_kills_a_cli_process():
    call = workloads.CliCall("slow", ["anosov", "--arc-length", "1e9"], None)
    status, took, out = run.run_cli_case(call, 1.0)
    assert status == "timeout" and out is None
    assert took < 10.0


def test_checker_rejects_corrupted_foliation_answers(alarm):
    group = _group((3, 1, 2), instance=1)
    outs = []
    for case in group:
        status, _, out = run.run_library_case(case, run.CAP_S)
        assert status == "ok"
        assert case.check(out) is None, case.key
        outs.append(out)
    fol = outs[0]
    chart = fol.chart
    x = chart.var("x")
    g = fol.generators[0]
    bent = VectorField.from_coefficients(
        chart, [g.coefficients[0] + x, *g.coefficients[1:]]
    )
    wrong_fol = type(fol)(chart, (bent,))
    assert group[0].check(wrong_fol) is not None
    assert group[1].check((fol, 2)) is not None
    ideal = outs[3][1]
    wrong_ideal = type(ideal)(chart, (ideal.generators[0] + x * x,) + ideal.generators[1:])
    assert group[3].check((fol, wrong_ideal)) is not None
    verdict = outs[4][1]
    assert group[4].check((fol, verdict._replace(ok=not verdict.ok, witness=None))) is not None


def test_checker_rejects_corrupted_calculus_answers(alarm):
    cases = workloads.calculus_cases(3)
    seen = set()
    for case in cases:
        if case.op in seen:
            continue
        seen.add(case.op)
        status, _, out = run.run_library_case(case, run.CAP_S)
        assert status == "ok" and case.check(out) is None, case.key
        bad = _corrupt(out)
        assert case.check(bad) is not None, case.key
    assert len(seen) == 6


def _corrupt(out):
    if isinstance(out, str):  # invariant_curve_constraint verdict
        return "excluded" if out == "consistent" else "consistent"
    if hasattr(out, "kind"):  # flow series: bend the last coefficient
        last = out.coefficients[-1]
        if out.kind == "field":
            last = last + VectorField.from_coefficients(last.chart, [1] * last.chart.size)
        else:
            last = last + 1
        return type(out)(out.kind, out.order, out.coefficients[:-1] + (last,))
    if hasattr(out, "q_form"):  # infinity analysis: drop the rational points
        return dataclasses.replace(out, rational_points=((1, 10**9),))
    if hasattr(out, "_replace"):  # dmorphism verdict
        return out._replace(ok=False)
    return VectorField.from_coefficients(  # bracket
        out.chart, [out.coefficients[0] + 1, *out.coefficients[1:]]
    )


def test_checker_rejects_corrupted_cli_reports():
    calls = workloads.cli_calls(0, ROOT)
    golden = next(c for c in calls if c.golden is not None)
    assert workloads.check_cli_output(golden, 0, golden.golden) is None
    assert workloads.check_cli_output(golden, 0, golden.golden.replace(b"x", b"y", 1)) is not None
    assert workloads.check_cli_output(golden, 1, golden.golden) is not None
    anosov = next(c for c in calls if c.golden is None)
    status, _, (rc, stdout) = run.run_cli_case(anosov, run.CAP_S)
    assert status == "ok" and workloads.check_cli_output(anosov, rc, stdout) is None
    report = json.loads(stdout)
    report["result"]["bounds"]["lambda_unstable"] *= 1.001
    assert workloads.check_cli_output(anosov, 0, json.dumps(report).encode()) is not None


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmark" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_second_seed_runs_to_completion():
    proc = _bench("--workload", "foliation", "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_CASES
    # whole passes only, so every run times the same mix of cases
    assert result["attempted"] % len(workloads.foliation_cases(7)) == 0
    assert set(result["metrics"]) == {
        m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    args = ("--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", "0")
    proc = _bench(*args, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
