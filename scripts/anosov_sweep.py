#!/usr/bin/env python3
"""Convergence sweep for the suspension bench.

Prints how the measured contraction/expansion rates approach the exact
eigenvalues of the torus map as the observation window grows, then a
leaf-density table contrasting the irrational stable direction with a
rational control slope.

Usage:
    python3 scripts/anosov_sweep.py
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from liefol import hyperbolic  # noqa: E402

LAMBDA_S = (3.0 - math.sqrt(5.0)) / 2.0
LAMBDA_U = (3.0 + math.sqrt(5.0)) / 2.0


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    print(f"exact rates: stable {LAMBDA_S:.12f}, unstable {LAMBDA_U:.12f}")
    print()
    print(f"{'t_max':>6} {'stable est':>16} {'err':>10} {'unstable est':>16} {'err':>10}")
    for t_max in (5, 10, 20, 50, 100, 200):
        report = hyperbolic.verify_anosov_bounds(t_max=t_max)
        err_s = abs(report.lambda_stable_est - LAMBDA_S)
        err_u = abs(report.lambda_unstable_est - LAMBDA_U)
        flag = "" if report.passed else "  (FAILED)"
        print(
            f"{t_max:>6} {report.lambda_stable_est:>16.12f} {err_s:>10.2e}"
            f" {report.lambda_unstable_est:>16.12f} {err_u:>10.2e}{flag}"
        )

    print()
    print("leaf density: stable direction vs rational slope (1,1)")
    print(f"{'epsilon':>8} {'arc':>8} {'stable':>8} {'control':>8}")
    for epsilon, arc in ((0.2, 200.0), (0.1, 500.0), (0.05, 2000.0), (0.02, 8000.0)):
        dense = hyperbolic.leaf_density(epsilon, arc)
        control = hyperbolic.leaf_density(epsilon, arc, direction=(1.0, 1.0))
        print(f"{epsilon:>8} {arc:>8.0f} {dense:>8.3f} {control:>8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
