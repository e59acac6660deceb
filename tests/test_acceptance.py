"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every criterion runs at its stated size and tolerance, on the trace of
seed 1234. The quantities of criteria 3 to 8 come from ``criteria.py``,
which ``tools/criterion_margins.py`` also reads to print them on further
seeds, so the gate and that report share one definition of each. The
heavyweight shared artifacts (the full power sweep, the calibrated
operating points) are module-scoped fixtures so each is computed once.
"""

import math
import time

import numpy as np
import pytest

from birelay.channel import FadingStatistics, sample_trace
from birelay.cli import RunSpec, emit, run_sweep
from birelay.oracle import (
    broadcast_root_residual,
    downlink_dominance,
    grid_optimality,
    sample_draws,
    time_share_at_boundary,
)

import criteria

SEED = 1234


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def full_sweep():
    """Default sweep, all protocols, timed for the runtime criterion."""
    t0 = time.perf_counter()
    rows = criteria.default_sweep(SEED)
    elapsed = time.perf_counter() - t0
    return rows, elapsed


@pytest.fixture(scope="module")
def point_runs():
    """Calibrated symmetric-fading runs at the four spot-check budgets."""
    return criteria.point_runs(SEED)


def test_criterion_01_closed_form_power_optimality():
    rng = np.random.default_rng(20260818)
    draws, points = 1000, 600
    t0 = time.perf_counter()
    # each draw is checked at the boundary time share its dual order
    # favours, the optimal one and the one the policy takes
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
    worst_m45 = max(r.mode_freq[m] for _, _, r in point_runs.values() for m in (3, 4))
    worst_m3 = criteria.joint_uplink_share(point_runs)
    ok = worst_m45 == 0.0 and worst_m3 <= 0.01
    _report(
        3,
        "single-user downlinks never selected, joint uplink rare under symmetry",
        ok,
        f"max downlink-mode frequency {worst_m45!r}, max joint-uplink frequency "
        f"{worst_m3:.4f} across Pt in {criteria.POINT_DBS} dB",
    )


def test_criterion_04_constraint_satisfaction(point_runs):
    worst_rate = 0.0
    worst_power = 0.0
    worst_delivered = 0.0
    for pt, (_, result, report) in point_runs.items():
        p_total = 10.0 ** (pt / 10.0)
        # the balance constraints govern long-run scheduled averages; the
        # calibration residuals measure exactly those on the same trace,
        # while the realized run checks the budget and the queue edge
        worst_rate = max(worst_rate, result.residual_c1, result.residual_c2)
        worst_power = max(worst_power, abs(report.avg_power - p_total) / p_total)
        worst_delivered = max(
            worst_delivered,
            abs(report.r_1r - report.r_r2) / report.r_r2,
            abs(report.r_2r - report.r_r1) / report.r_r1,
        )
    worst_queue = criteria.end_queue_share(point_runs)
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
    worst_margin, worst_case = criteria.tightest_margin(rows)
    ok = worst_margin >= 0.0 and elapsed <= 600.0
    _report(
        5,
        "adaptive protocol dominates every benchmark across the sweep",
        ok,
        f"tightest margin {worst_margin:+.4f} bits/slot vs {worst_case}, "
        f"full sweep in {elapsed:.0f}s",
    )


def test_criterion_06_high_snr_gain():
    # the bisection's bracket [14, 30] dB is checked first: a miss raises
    target, crossing = criteria.tdbc_crossing(SEED)
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
    at, ratio = criteria.low_budget_rates(rows)
    ok = ratio >= 1.2 and at["proposed"] >= at["tdbc_pa"]
    _report(
        7,
        "power adaptation pays off at low budget",
        ok,
        f"adaptive/fixed-power ratio {ratio:.2f} at -10 dB, adaptive "
        f"{at['proposed']:.4f} vs water-filled cycle {at['tdbc_pa']:.4f}",
    )


def test_criterion_08_saturation_in_link_quality(point_runs):
    rates, gain_12, gain_25 = criteria.link_quality_gains(SEED, point_runs)
    ok = rates[0] < rates[1] < rates[2] and gain_25 <= gain_12
    _report(
        8,
        "sum rate grows with link-1 quality but saturates",
        ok,
        f"rates {rates[0]:.4f} < {rates[1]:.4f} < {rates[2]:.4f}, "
        f"increments {gain_12:.4f} then {gain_25:.4f}",
    )


def test_criterion_09_time_share_and_dominance_properties():
    rng = np.random.default_rng(4242)
    boundary_ok = time_share_at_boundary(*sample_draws(rng, 1000))
    worst_dom = downlink_dominance(*sample_draws(rng, 10_000))

    trace = sample_trace(FadingStatistics(1.0, 1.0), 2000, 1234)
    scan = criteria.threshold_region_scan(trace, 1.0, np.array([0.0, 1.0]))
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
