"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every criterion runs at its stated size and tolerance. The heavyweight
shared artifacts (the full power sweep, the calibrated operating points)
are module-scoped fixtures so each is computed once.
"""

import math
import time

import numpy as np
import pytest

from birelay.benchmarks import tdbc_policy
from birelay.calibrate import calibrate
from birelay.channel import FadingStatistics, sample_trace
from birelay.cli import RunSpec, emit, run_sweep
from birelay.engine import run
from birelay.oracle import (
    broadcast_root_residual,
    downlink_dominance,
    grid_optimality,
    sample_draws,
    threshold_region_scan,
    time_share_at_boundary,
)
from birelay.policy import proposed_policy

_POINT_DBS = (-10.0, 0.0, 10.0, 20.0)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def full_sweep():
    """Default sweep, all protocols, timed for the runtime criterion."""
    t0 = time.perf_counter()
    rows = run_sweep(RunSpec())
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def _run_point(omega1: float, pt_db: float):
    trace = sample_trace(FadingStatistics(omega1, 1.0), 10_000, 1234)
    p_total = 10.0 ** (pt_db / 10.0)
    result = calibrate(trace, p_total, tol_rate=0.01, tol_power=0.005)
    report = run(trace, proposed_policy(result.thresholds, trace.stats))
    return result, report


@pytest.fixture(scope="module")
def point_runs():
    """Calibrated symmetric-fading runs at the four spot-check budgets."""
    return {pt: _run_point(1.0, pt) for pt in _POINT_DBS}


def test_criterion_01_closed_form_power_optimality():
    rng = np.random.default_rng(20260818)
    draws, points = 1000, 600
    t0 = time.perf_counter()
    # each draw is checked at the boundary time share its dual order
    # favours, the one the policy's joint-uplink forms assume
    worst_gap, worst_step = grid_optimality(*sample_draws(rng, draws), points)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and worst_step <= 1.000001 and elapsed <= 60.0
    _report(
        1,
        "closed-form power optimality vs grid",
        ok,
        f"worst grid advantage {worst_gap:.2e}, worst argmax offset {worst_step:.2f} "
        f"steps, {draws} draws x 4 modes in {elapsed:.1f}s",
    )


def test_criterion_02_broadcast_root_residual():
    rng = np.random.default_rng(97)
    n = 10_000
    t0 = time.perf_counter()
    mu1 = rng.uniform(0.05, 0.95, n)
    mu2 = rng.uniform(0.05, 0.95, n)
    gamma = rng.uniform(0.05, 2.0, n)
    s1 = rng.exponential(1.0, n)
    s2 = rng.exponential(1.0, n)
    worst, active = broadcast_root_residual(s1, s2, mu1, mu2, gamma)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and active > 1000 and elapsed <= 5.0
    _report(
        2,
        "broadcast power root residual",
        ok,
        f"worst relative residual {worst:.2e} over {active} active draws in {elapsed:.2f}s",
    )


def test_criterion_03_mode_exclusion(point_runs):
    worst_m3 = 0.0
    worst_m45 = 0.0
    for pt in _POINT_DBS:
        _, report = point_runs[pt]
        worst_m45 = max(worst_m45, report.mode_freq[3], report.mode_freq[4])
        worst_m3 = max(worst_m3, report.mode_freq[2])
    ok = worst_m45 == 0.0 and worst_m3 <= 0.01
    _report(
        3,
        "single-user downlinks never selected, joint uplink rare under symmetry",
        ok,
        f"max downlink-mode frequency {worst_m45!r}, max joint-uplink frequency "
        f"{worst_m3:.4f} across Pt in {_POINT_DBS} dB",
    )


def test_criterion_04_constraint_satisfaction(point_runs):
    worst_rate = 0.0
    worst_power = 0.0
    worst_queue = 0.0
    worst_delivered = 0.0
    for pt in _POINT_DBS:
        result, report = point_runs[pt]
        p_total = 10.0 ** (pt / 10.0)
        # the balance constraints govern long-run scheduled averages; the
        # calibration residuals measure exactly those on the same trace,
        # while the realized run checks the budget and the queue edge
        worst_rate = max(worst_rate, result.residual_c1, result.residual_c2)
        worst_power = max(worst_power, abs(report.avg_power - p_total) / p_total)
        worst_queue = max(
            worst_queue,
            (report.q1 / report.n_slots) / report.sum_rate,
            (report.q2 / report.n_slots) / report.sum_rate,
        )
        worst_delivered = max(
            worst_delivered,
            abs(report.r_1r - report.r_r2) / report.r_r2,
            abs(report.r_2r - report.r_r1) / report.r_r1,
        )
    ok = worst_rate <= 0.02 and worst_power <= 0.01 and worst_queue <= 0.02
    _report(
        4,
        "balance and budget constraints met at the queue edge",
        ok,
        f"worst scheduled-rate mismatch {worst_rate:.4f}, worst power mismatch "
        f"{worst_power:.4f}, worst end queue {worst_queue:.7f} of sum rate "
        f"(delivered-rate gap {worst_delivered:.4f} is the queue remainder)",
    )


def test_criterion_05_benchmark_dominance(full_sweep):
    rows, elapsed = full_sweep
    proposed = {r["pt_db"]: r["sum_rate"] for r in rows if r["protocol"] == "proposed"}
    worst_margin = math.inf
    worst_case = ""
    for row in rows:
        if row["protocol"] == "proposed":
            continue
        margin = proposed[row["pt_db"]] - 0.99 * row["sum_rate"]
        if margin < worst_margin:
            worst_margin = margin
            worst_case = f"{row['protocol']} at {row['pt_db']:g} dB"
    ok = worst_margin >= 0.0 and elapsed <= 600.0
    _report(
        5,
        "adaptive protocol dominates every benchmark across the sweep",
        ok,
        f"tightest margin {worst_margin:+.4f} bits/slot vs {worst_case}, "
        f"full sweep in {elapsed:.0f}s",
    )


def test_criterion_06_high_snr_gain(point_runs):
    stats = FadingStatistics(1.0, 1.0)
    trace = sample_trace(stats, 10_000, 1234)
    _, report14 = _run_point(1.0, 14.0)
    target = report14.sum_rate

    def tdbc_rate(pt_db: float) -> float:
        p_total = 10.0 ** (pt_db / 10.0)
        prep = tdbc_policy("tdbc_no_pa", trace, p_total, tol_power=0.005)
        return run(trace, prep.decide).sum_rate

    lo, hi = 14.0, 30.0
    assert tdbc_rate(lo) < target < tdbc_rate(hi)
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        if tdbc_rate(mid) < target:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    ok = 18.0 <= crossing <= 22.0
    _report(
        6,
        "fixed-cycle baseline needs roughly 6 dB more power at high budget",
        ok,
        f"baseline matches the adaptive 14 dB sum rate {target:.3f} at "
        f"{crossing:.2f} dB",
    )


def test_criterion_07_low_snr_power_allocation_gain(full_sweep):
    rows, _ = full_sweep
    at = {r["protocol"]: r["sum_rate"] for r in rows if r["pt_db"] == -10.0}
    ratio = at["proposed"] / at["fixed_power_three_mode"]
    ok = ratio >= 1.2 and at["proposed"] >= at["tdbc_pa"]
    _report(
        7,
        "power adaptation pays off at low budget",
        ok,
        f"adaptive/fixed-power ratio {ratio:.2f} at -10 dB, adaptive "
        f"{at['proposed']:.4f} vs water-filled cycle {at['tdbc_pa']:.4f}",
    )


def test_criterion_08_saturation_in_link_quality(point_runs):
    rates = {1.0: point_runs[10.0][1].sum_rate}
    for omega1 in (2.0, 5.0):
        _, report = _run_point(omega1, 10.0)
        rates[omega1] = report.sum_rate
    gain_12 = rates[2.0] - rates[1.0]
    gain_25 = rates[5.0] - rates[2.0]
    ok = rates[1.0] < rates[2.0] < rates[5.0] and gain_25 <= gain_12
    _report(
        8,
        "sum rate grows with link-1 quality but saturates",
        ok,
        f"rates {rates[1.0]:.4f} < {rates[2.0]:.4f} < {rates[5.0]:.4f}, "
        f"increments {gain_12:.4f} then {gain_25:.4f}",
    )


def test_criterion_09_time_share_and_dominance_properties():
    rng = np.random.default_rng(4242)
    boundary_ok = time_share_at_boundary(*sample_draws(rng, 1000))
    worst_dom = downlink_dominance(*sample_draws(rng, 10_000))

    trace = sample_trace(FadingStatistics(1.0, 1.0), 2000, 1234)
    scan = threshold_region_scan(trace, 1.0, np.array([0.0, 1.0]))
    none_balanced = not scan
    ok = boundary_ok and worst_dom <= 1e-12 and none_balanced
    _report(
        9,
        "time-share boundary optimum, broadcast dominance, infeasible dual corners",
        ok,
        f"boundary argmax matched on 1000 draws: {boundary_ok}; worst single-user "
        f"downlink advantage {worst_dom:.2e}; balanced corner points: "
        f"{len(scan)}",
    )


def test_criterion_10_determinism_and_conservation(full_sweep, tmp_path):
    spec = RunSpec(pt_db=(-10.0, 10.0), n_slots=4000, seed=7)
    text_a = emit(run_sweep(spec), "csv", str(tmp_path / "a.csv"))
    text_b = emit(run_sweep(spec), "csv", str(tmp_path / "b.csv"))
    identical = (
        text_a == text_b
        and (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    )
    rows, _ = full_sweep
    worst_excess = -math.inf
    for row in rows:
        worst_excess = max(
            worst_excess, row["rr2"] - row["r1r"], row["rr1"] - row["r2r"]
        )
    conserved = worst_excess <= 1e-12
    ok = identical and conserved
    _report(
        10,
        "byte-identical reruns and per-direction conservation",
        ok,
        f"identical output: {identical}; worst delivered-minus-ingested "
        f"{worst_excess:.2e} bits/slot",
    )


def test_sweep_rows_respect_budget_and_converge(full_sweep):
    # module invariant, not a numbered criterion: every emitted row spends
    # at most 1% over budget and every calibration converged
    rows, _ = full_sweep
    for row in rows:
        p_total = 10.0 ** (row["pt_db"] / 10.0)
        assert row["avg_power"] <= 1.01 * p_total
        assert row["converged"] is True


def test_sum_rate_rises_with_the_budget(full_sweep):
    # module invariant, not a numbered criterion: over the nine budgets
    # every protocol's delivered sum rate rises strictly
    rows, _ = full_sweep
    spec = RunSpec()
    for name in spec.protocols:
        rates = [row["sum_rate"] for row in rows if row["protocol"] == name]
        assert len(rates) == len(spec.pt_db)
        assert all(a < b for a, b in zip(rates, rates[1:])), (name, rates)
