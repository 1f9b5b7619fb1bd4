"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line naming the criterion and
then asserts. Exact criteria compare canonical rationals; statistical
criteria run at fixed seeds whose margins were measured once and frozen
(every statistical assertion held with at least a 2x margin at freeze
time, so failures indicate code changes, not run-to-run noise).
"""

import math
from fractions import Fraction

import numpy as np

from ginprod import montecarlo
from ginprod.beta_poly import beta_bounds_check, compute_beta
from ginprod.combinatorics import fuss_catalan, stirling2, stirling2_alternating
from ginprod.edge_analysis import (
    beta_leading_asymptotic,
    dominance_report,
    edge_constant,
    tail_summand,
)
from ginprod.moment_engine import (
    MomentQuery,
    moment_cross_check,
    moment_falling_sum,
)
from ginprod.montecarlo import (
    GinibreSpec,
    RunConfig,
    collect_spectra,
    convergence_table,
    moments_from_spectra,
)

SEED = 20260825


def _finish(label: str, failures: list) -> None:
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"{label}: first failures: {failures[:10]}"


def test_criterion_01_three_way_exact_agreement():
    failures = []
    points = [
        (m, n, k)
        for m in (1, 2, 3)
        for k in range(1, 7)
        for n in range(k, 13)
    ] + [(1, 50, 10), (2, 40, 8)]
    for m, n, k in points:
        report = moment_cross_check(MomentQuery(m=m, n=n, k=k))
        if not report.agree:
            failures.append((m, n, k))
    _finish("exact three-way moment agreement on the full grid", failures)


def test_criterion_02_closed_form_anchors():
    failures = []
    for m in range(1, 5):
        for n in range(1, 21):
            if moment_falling_sum(MomentQuery(m=m, n=n, k=1)).value != 1:
                failures.append(("first", m, n))
    for n in range(1, 51):
        if moment_falling_sum(MomentQuery(m=1, n=n, k=2)).value != 2:
            failures.append(("one-factor second", n))
        want = 3 + Fraction(1, n**2)
        if moment_falling_sum(MomentQuery(m=2, n=n, k=2)).value != want:
            failures.append(("two-factor second", n))
    _finish("closed-form anchors (k=1 and k=2 families)", failures)


def test_criterion_03_limit_within_five_percent():
    failures = []
    tol = Fraction(1, 20)
    for m in (1, 2, 3):
        for k in range(1, 6):
            value = moment_falling_sum(MomentQuery(m=m, n=1000, k=k)).value
            rel = abs(value / fuss_catalan(m, k) - 1)
            if rel > tol:
                failures.append((m, k, float(rel)))
    _finish("moments at n=1000 within 5% of their limits", failures)


def test_criterion_04_beta_bounds_exact():
    failures = []
    for m in (1, 2, 3):
        for k in range(1, 13):
            for n in range(k, 101):
                if not beta_bounds_check(compute_beta(m, n, k)).all_ok:
                    failures.append((m, n, k))
    _finish("two-sided coefficient bounds on m<=3, k<=12, k<=n<=100", failures)


def test_criterion_05_stirling_suite():
    failures = []
    for n in range(0, 41):
        for k in range(0, n + 1):
            if stirling2(n, k) != stirling2_alternating(n, k):
                failures.append(("routes", n, k))
    for n in range(1, 61):
        for k in range(1, n):
            s = stirling2(n, k)
            if s * s < stirling2(n, k - 1) * stirling2(n, k + 1):
                failures.append(("log-concavity", n, k))
    for r in range(2, 41):
        for c in range(2, r + 1):
            ratio = Fraction(stirling2(r + 1, c), stirling2(r, c))
            if ratio > Fraction(r * (r + 1), 2):
                failures.append(("ratio-bound", r, c))
    _finish("partition-number suite (routes, log-concavity, ratio bound)", failures)


def test_criterion_06_dominance_at_large_n():
    failures = []
    n = 10**5
    for m in (1, 2):
        for k in range(1, 7):
            report = dominance_report(m, n, k)
            if not report.all_ratios_ok:
                failures.append(("ratio", m, k))
            if report.first_term_share < Fraction(9, 10):
                failures.append(("share", m, k, float(report.first_term_share)))
    _finish("term dominance at n=100000 (ratios and >=90% first-term share)", failures)


def test_criterion_07_asymptotic_edge_formula():
    failures = []
    for m in (1, 2):
        errs = [beta_leading_asymptotic(m, k).rel_err_mid_closed for k in (10, 20, 40)]
        if errs[-1] > 0.10:
            failures.append(("final", m, errs[-1]))
        if not (errs[0] > errs[1] > errs[2]):
            failures.append(("monotone", m, errs))
    _finish("closed-form edge asymptotic within 10% at k=40 and improving", failures)


def test_criterion_08_tail_summand_schedule():
    failures = []
    grid = (60, 120, 240, 480)
    for m in (1, 2, 3):
        z = Fraction(3, 2) * edge_constant(m).u
        bounds = []
        for n in grid:
            ts = tail_summand(m, n, z)
            bounds.append(ts.exact_bound)
            if ts.log_surrogate > -2.0 * math.log(n):
                failures.append(("surrogate", m, n))
            if ts.k_n > n:
                failures.append(("schedule", m, n))
        if not all(a > b for a, b in zip(bounds, bounds[1:])):
            failures.append(("monotone", m, [float(b) for b in bounds]))
        if bounds[-1] >= Fraction(1, 100):
            failures.append(("smallness", m, float(bounds[-1])))
    _finish("tail summands decrease along the doubling grid at z=1.5u", failures)


def test_criterion_09_monte_carlo_moment_bridge():
    failures = []
    for m, n, k in [(1, 64, 1), (1, 64, 2), (2, 64, 1), (2, 32, 2)]:
        exact = float(moment_falling_sum(MomentQuery(m=m, n=n, k=k)).value)
        spec = GinibreSpec(n=n, m=m, field="complex")
        moments = moments_from_spectra(collect_spectra(spec, RunConfig(replicates=500, master_seed=SEED)), k)
        dev = abs(moments.mean(k) - exact)
        if dev > 3 * moments.standard_error(k):
            failures.append((m, n, k, dev, moments.standard_error(k)))
    _finish("complex-field empirical moments within 3 SE of exact values", failures)


def test_criterion_10_edge_convergence_real_field():
    failures = []
    intervals = {1: (3.4, 4.05), 2: (5.9, 6.85), 3: (8.3, 9.6)}
    config = RunConfig(replicates=200, master_seed=SEED)
    for m, (lo, hi) in intervals.items():
        rows = convergence_table(m, [64, 128, 256, 512], config, field="real")
        final = rows[-1]
        if not lo <= final.mean_s1sq <= hi:
            failures.append(("interval", m, final.mean_s1sq))
        for row in rows:
            if row.gap <= 0:
                failures.append(("positivity", m, row.n, row.gap))
        for a, b in zip(rows, rows[1:]):
            slack = 2 * math.hypot(a.standard_error, b.standard_error)
            if not b.gap < a.gap + slack:
                failures.append(("trend", m, a.n, b.n, a.gap, b.gap))
    _finish("largest value approaches the edge constant from below", failures)


def test_criterion_11_bitwise_reproducibility(monkeypatch):
    failures = []
    for m, n, field in [(1, 32, "real"), (2, 16, "complex")]:
        spec = GinibreSpec(n=n, m=m, field=field)
        # One replicate's share of the batch budget: its draws and its seeding.
        replicate_bytes = m * (1 if field == "real" else 2) * n * n * 8 + montecarlo.SEED_BYTES
        reference = collect_spectra(spec, RunConfig(replicates=64, master_seed=SEED, workers=1))
        # Batches of one replicate, of five (64 leaves a ragged last batch),
        # and the default size.
        for batch_bytes in (replicate_bytes, 5 * replicate_bytes, montecarlo.BATCH_DRAW_BYTES):
            monkeypatch.setattr(montecarlo, "BATCH_DRAW_BYTES", batch_bytes)
            for w in (1, 2, 8):
                run = collect_spectra(spec, RunConfig(replicates=64, master_seed=SEED, workers=w))
                if not np.array_equal(reference, run):
                    failures.append((m, n, field, w, batch_bytes))
    _finish("bit-identical results at 1, 2 and 8 workers and three batch sizes", failures)
