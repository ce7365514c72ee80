#!/usr/bin/env python3
"""liefol benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 benchmark/run.py --workload {cli,foliation,calculus} --seed N \\
        --seconds S --trace {0,1}

    # every workload, end to end and traced
    for w in cli foliation calculus; do for t in 0 1; do
        python3 benchmark/run.py --workload $w --seed 0 --seconds 20 --trace $t
    done; done

Run it from the root of a checkout.  Each workload is a closed loop with
one client: the next case starts only when the previous one has
finished, and each case runs under a time cap (a capped case is recorded
as "timeout" and counts as failed).  Answers are checked after the timed
pass, outside the timed region.

The case list of a workload is one *pass* over a fixed mix of cases.
``--trace 0`` repeats whole passes until ``--seconds`` have gone by (and
at least MIN_CASES cases have run) and prints the end-to-end metrics; as
it stops only between passes, every run times the same mix of cases,
however fast the program is.  ``--trace 1`` runs one pass (one cycle of
ten calls for cli) untraced and then traced, case by case, and prints
the per-layer metrics derived from the spans; the spans are written to
``.bench_out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and units
come from BENCHMARK.json at the root of the checkout.

End-to-end times are in reference seconds (see ``reference.py``): each
case's wall time is scaled by the speed of a fixed loop timed just before
and just after it, because this kind of host wanders in speed by more
than a regression bound.  The human-readable lines also give wall times.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from reference import reference_s, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("cli", "foliation", "calculus")
MIN_CASES = 100  # so that ten samples lie beyond p90
CAP_S = 10.0  # every timed case at the default seed takes under ~1 s
HARD_LIMIT_S = 120.0  # a run stops starting cases after this, even mid-pass
SETUP_REPEATS = 5
CLI_TRACE_CALLS = 10  # the traced cli run: one cycle of ten calls

# A fresh interpreter: import liefol, then build the workload's inputs.
# Prints the wall time in reference seconds, then in seconds.
_SETUP_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from time import perf_counter
from reference import reference_s, scaled
before = reference_s()
t0 = perf_counter()
import liefol, liefol.cli
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])
took = perf_counter() - t0
print(scaled(took, before, reference_s()), took)
"""

_IMPORT_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import liefol
print(time.perf_counter() - t0)
"""


class CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTimeout()


# (case index, status, seconds, output): reference seconds in the timed pass,
# wall seconds in the traced run
Record = Tuple[int, str, float, object]


# ---------------------------------------------------------------------------
# running one case
# ---------------------------------------------------------------------------


def run_library_case(case, cap: float) -> Tuple[str, float, object]:
    """Run one in-process case under a SIGALRM cap."""
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        t0 = perf_counter()
        try:
            out = case.run(case.state)
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        return "timeout", perf_counter() - t0, None
    except Exception as exc:  # the case failed; record why and go on
        return "error", perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return "ok", t1 - t0, out


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_case(call, cap: float) -> Tuple[str, float, object]:
    """One fresh ``python -m liefol.cli`` process, killed at the cap."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "liefol.cli", *call.argv],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            timeout=cap,
        )
    except subprocess.TimeoutExpired:
        return "timeout", perf_counter() - t0, None
    return "ok", perf_counter() - t0, (proc.returncode, proc.stdout)


def run_cli_in_process(call) -> Tuple[float, Tuple[int, bytes]]:
    from liefol import cli

    buf = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(buf):
        rc = cli.main(call.argv)
    return perf_counter() - t0, (rc, buf.getvalue().encode("utf-8"))


# ---------------------------------------------------------------------------
# checks, outside the timed region
# ---------------------------------------------------------------------------


def check_output(workload: str, case, out) -> Optional[str]:
    import workloads

    try:
        if workload == "cli":
            return workloads.check_cli_output(case, *out)
        return case.check(out)
    except Exception as exc:  # a malformed answer is a wrong answer
        return f"checker raised {type(exc).__name__}: {exc}"


def wrong_answers(workload: str, cases, records: List[Record]) -> Tuple[List[int], List[str]]:
    """Check every answer; return the case index of each wrong one, and why.

    A repeated case with an answer equal to its first one reuses that verdict.
    """
    verdicts: Dict[int, Tuple[object, Optional[str]]] = {}
    wrong: List[int] = []
    reasons: List[str] = []
    for idx, status, _, out in records:
        if status != "ok":
            continue
        seen = verdicts.get(idx)
        if seen is not None and seen[0] == out:
            reason = seen[1]
        else:
            reason = check_output(workload, cases[idx], out)
            verdicts.setdefault(idx, (out, reason))
        if reason is not None:
            wrong.append(idx)
            reasons.append(f"{cases[idx].key}: {reason}")
    return wrong, reasons


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------


def _child_output(code: str, *args: str) -> List[float]:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return [float(v) for v in proc.stdout.split()]


def measure_setup(workload: str, seed: int) -> Tuple[float, float]:
    """Median over fresh interpreters of import plus input generation, in
    reference seconds and in seconds."""
    runs = [
        _child_output(_SETUP_CHILD, str(SRC), str(BENCH), workload, str(seed), str(ROOT))
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def timed_pass(workload: str, cases, seconds: float) -> Tuple[List[Record], float]:
    """Repeat whole passes over ``cases`` until ``seconds`` have gone by and
    at least MIN_CASES cases have run.

    Each record holds the case's time in reference seconds; the second value
    returned is the cases' summed wall time in seconds.  An answer equal to
    the case's first one is replaced by that first object, so that memory
    does not grow with the number of passes and distort ``peak_rss_mb``.
    """
    run_one = run_cli_case if workload == "cli" else run_library_case
    records: List[Record] = []
    first: Dict[int, object] = {}
    wall = 0.0
    start = perf_counter()
    ref = reference_s()
    while perf_counter() - start < seconds or len(records) < MIN_CASES:
        for idx, case in enumerate(cases):
            if perf_counter() - start >= HARD_LIMIT_S:
                return records, wall
            status, took, out = run_one(case, CAP_S)
            ref_after = reference_s()
            if status == "ok" and first.setdefault(idx, out) == out:
                out = first[idx]
            records.append((idx, status, scaled(took, ref, ref_after), out))
            ref = ref_after
            wall += took
    return records, wall


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    import workloads

    setup_s, setup_wall = measure_setup(workload, seed)
    cases = workloads.build(workload, seed, str(ROOT))
    records, wall = timed_pass(workload, cases, seconds)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    wrong, reasons = wrong_answers(workload, cases, records)
    failed = len(wrong) + sum(1 for r in records if r[1] != "ok")
    for idx, status, _, out in records:
        if status != "ok":
            reasons.append(f"{cases[idx].key}: {status} {out or ''}".rstrip())
    latencies = [r[2] for r in records]
    completed = sum(1 for r in records if r[1] == "ok")
    metrics = {
        "setup_s": setup_s,
        "cases_per_s": completed / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[8],
        "ok_frac": (len(records) - failed) / len(records),
        "peak_rss_mb": peak_rss_mb,
    }
    print(
        f"{workload} seed {seed}: {len(records)} cases ({len(records) // len(cases)} passes "
        f"of {len(cases)}), closed loop, 1 client, cap {CAP_S:g} s; {failed} failed"
    )
    print(
        f"  in wall seconds: setup {setup_wall:.4g} s, cases {wall:.4g} s, "
        f"{completed / wall:.4g} cases/s"
    )
    return {
        "wrong": len(wrong),
        "reasons": reasons,
        "attempted": len(records),
        "failed": failed,
        "values": metrics,
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def traced(workload: str, seed: int) -> dict:
    import workloads
    from tracing import Tracer

    cases = workloads.build(workload, seed, str(ROOT))
    if workload == "cli":
        cases = cases[:CLI_TRACE_CALLS]
    # Each case runs untraced and then traced, back to back, so that drift in
    # machine speed does not leak into trace.overhead_frac.  For cli the
    # untraced and traced calls are in-process cli.main on the same argv,
    # after one fresh-process call.
    tracer = Tracer()
    process: List[Record] = []
    plain: List[Record] = []
    traced_records: List[Record] = []
    skipped: List[int] = []
    start = perf_counter()
    for idx, case in enumerate(cases):
        if perf_counter() - start > HARD_LIMIT_S:
            skipped.append(idx)
            continue
        if workload == "cli":
            process.append((idx, *run_cli_case(case, CAP_S)))
            plain.append((idx, "ok", *run_cli_in_process(case)))
        else:
            plain.append((idx, *run_library_case(case, CAP_S)))
        tracer.case_id = idx
        tracer.install()
        try:
            if workload == "cli":
                traced_records.append((idx, "ok", *run_cli_in_process(case)))
            else:
                traced_records.append((idx, *run_library_case(case, CAP_S)))
        finally:
            tracer.uninstall()
    untraced_wall = sum(r[2] for r in plain)
    traced_wall = sum(r[2] for r in traced_records)

    records = process + plain + traced_records
    wrong, reasons = wrong_answers(workload, cases, records)
    first = {idx: out for idx, status, _, out in plain if status == "ok"}
    differ = [idx for idx, _, _, out in traced_records if first.get(idx) != out]
    if differ:
        reasons.append(f"{len(differ)} traced answers differ from the untraced run")
    not_ok = [r[0] for r in records if r[1] != "ok"]
    failed = len(set(wrong) | set(differ) | set(skipped) | set(not_ok))

    out_path = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.tsv"
    tracer.write(out_path)
    table = tracer.layer_table()
    values: Dict[str, float] = {}
    for name, row in table.items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_s"] = row["self_s"]
    gcd_calls = table.get("poly.gcd", {}).get("calls", 0)
    values["poly.gcd.nontrivial_frac"] = tracer.gcd_nontrivial / gcd_calls if gcd_calls else 0.0
    values["poly.result_terms_max"] = tracer.terms_max
    values["poly.result_coeff_bits_max"] = tracer.coeff_bits_max
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    if workload == "cli":
        process_s = [r[2] for r in process]
        main_s = [r[2] for r in plain]
        values["cli.import_s"] = statistics.median(
            _child_output(_IMPORT_CHILD, str(SRC))[0] for _ in range(SETUP_REPEATS)
        )
        values["cli.process_s"] = statistics.median(process_s)
        values["cli.main_s"] = statistics.median(main_s)
        values["cli.startup_s"] = statistics.median(p - m for p, m in zip(process_s, main_s))
    print(
        f"{workload} seed {seed}: traced {len(cases)} cases, {len(tracer.kind)} spans "
        f"written to {out_path.relative_to(ROOT)}; {failed} failed"
    )
    return {
        "wrong": len(wrong) + len(differ),
        "reasons": reasons,
        "attempted": len(cases),
        "failed": failed,
        "values": values,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="liefol benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "liefol" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no liefol sources under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(BENCH)]
    signal.signal(signal.SIGALRM, _on_alarm)

    if args.trace:
        result = traced(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    for reason in result["reasons"][:20]:
        print(f"  FAILED {reason}")
    metrics = {}
    for m in wanted:
        val = result["values"].get(m["name"], 0)
        metrics[m["name"]] = {"value": val, "unit": m["unit"]}
        print(f"  {m['name']:<40} {val:>14.6g} {m['unit']}")
    correct = result["wrong"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
