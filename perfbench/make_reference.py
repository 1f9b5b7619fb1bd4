"""Regenerate reference.json: the exact outputs the benchmark checks against.

Usage (from the repository root): python3 perfbench/make_reference.py

Values come from the library, not the CLI, and each is cross-checked
before it is written: the three moment formulations must agree (the
gamma-ratio sum is skipped only where its O(n^2) loop is out of reach,
n > 5000), dominance terms must rebuild the scaled moment, and every
tail bound must equal n G(m, n, k_n) / z^(k_n) recomputed from the
agreeing formulations. Run it only on a commit whose exact results are
trusted; the checks then hold later commits to the same rationals.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ginprod import combinatorics, edge_analysis, moment_engine, verify  # noqa: E402

import workloads  # noqa: E402

GAMMA_SUM_MAX_N = 5000


def agreed_moment(m: int, n: int, k: int) -> moment_engine.MomentValue:
    q = moment_engine.MomentQuery(m=m, n=n, k=k)
    falling = moment_engine.moment_falling_sum(q)
    others = [moment_engine.moment_stirling_beta(q)]
    if n <= GAMMA_SUM_MAX_N:
        others.append(moment_engine.moment_gamma_sum(q))
    if any(v.value != falling.value or v.scaled != falling.scaled for v in others):
        raise SystemExit(f"formulations disagree at (m, n, k) = ({m}, {n}, {k})")
    return falling


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def ref_verify(profile: str) -> dict:
    report = verify.run_verify(profile)
    if not report.ok:
        raise SystemExit(f"verify {profile} fails: {report.failures}")
    return {"checks": report.checks, "suites": {s.name: s.checks for s in report.suites}}


def ref_moments(m: int, n: int, k: int) -> dict:
    report = moment_engine.moment_cross_check(moment_engine.MomentQuery(m=m, n=n, k=k))
    if not report.agree:
        raise SystemExit(f"formulations disagree at ({m}, {n}, {k})")
    fc = combinatorics.fuss_catalan(m, k)
    value = report.falling_sum.value
    return {
        "gamma_sum": str(report.gamma_sum.value),
        "falling_sum": str(value),
        "stirling_beta": str(report.stirling_beta.value),
        "fuss_catalan": str(fc),
        "gap": str(value - fc),
    }


def ref_dominance(m: int, n: int, k: int) -> dict:
    report = edge_analysis.dominance_report(m=m, n=n, k=k)
    if report.scaled_moment != agreed_moment(m, n, k).scaled:
        raise SystemExit(f"dominance terms do not rebuild the moment at ({m}, {n}, {k})")
    rows = []
    for i, r in enumerate(report.r_values):
        last = i == len(report.ratios)
        rows.append([
            str(r),
            str(report.terms[i]),
            "" if last else str(report.ratios[i]),
            "" if last else str(report.ratio_bounds[i]),
            "" if last else str(report.ratio_ok[i]).lower(),
        ])
    return {
        "meta": {
            "m": str(m), "n": str(n), "k": str(k),
            "first_term_share": fmt(report.first_term_share),
            "all_ratios_pass": str(report.all_ratios_ok).lower(),
        },
        "rows": len(rows),
        "sha256": workloads.rows_digest(rows),
    }


def ref_tailbound(m: int, z: str, grid: tuple[int, ...]) -> dict:
    exact, floats = [], []
    for n in grid:
        s = edge_analysis.tail_summand(m, n, z)
        g = agreed_moment(m, n, s.k_n).value
        if s.exact_bound != n * g / Fraction(z) ** s.k_n:
            raise SystemExit(f"tail bound disagrees with the moment at (m, n) = ({m}, {n})")
        exact.append([str(n), str(s.k_n), str(s.exact_bound)])
        floats.append([s.log_exact, s.log_surrogate, -2.0 * math.log(n)])
    return {
        "meta": {"m": str(m), "z": str(Fraction(z)), "w": "default"},
        "rows": len(grid),
        "sha256": workloads.rows_digest(exact),
        "floats": floats,
    }


def main() -> None:
    exact: dict = {}
    mc_moments: set[tuple[int, int, int]] = set()
    for params in (workloads.FULL, workloads.SMOKE, workloads.PROBE):
        for kind, make_call, make_ref in (
            ("verify", workloads.verify_call, ref_verify),
            ("moments", workloads.moments_call, ref_moments),
            ("dominance", workloads.dominance_call, ref_dominance),
            ("tailbound", workloads.tailbound_call, ref_tailbound),
        ):
            if kind in params:
                args = params[kind] if isinstance(params[kind], tuple) else (params[kind],)
                exact[" ".join(make_call(*args).argv)] = make_ref(*args)
        for kind in ("bridge", "spectra", "simulate"):
            if kind in params:
                m, n, kmax, _ = params[kind]
                mc_moments.update((m, n, k) for k in range(1, kmax + 1))
    moments = {
        f"{m},{n},{k}": str(agreed_moment(m, n, k).value) for m, n, k in sorted(mc_moments)
    }
    doc = {"exact": dict(sorted(exact.items())), "moments": moments}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(exact)} exact references and {len(moments)} moments to {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
