"""The quantities of acceptance criteria 3 to 8, one definition each, and
criterion 9's scan of the dual plane.

``tests/test_acceptance.py`` judges them on the trace of seed 1234 and
``tools/criterion_margins.py`` prints them on further seeds, so the gate
and the report always measure the same thing. Every trace of criteria 3
to 8 has 10 000 slots, and every calibration runs at the sweep's default
tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from birelay.benchmarks import tdbc_policy
from birelay.calibrate import calibrate, match_budget
from birelay.channel import FadingStatistics, check_real, check_tolerance, sample_trace
from birelay.cli import RunSpec, run_sweep
from birelay.engine import run
from birelay.policy import (
    TraceGains,
    _dual_order_share,
    balance_residuals,
    proposed_policy,
    trace_mean,
)

POINT_DBS = (-10.0, 0.0, 10.0, 20.0)  # criteria 3 and 4's calibrated 1:1 points


def run_point(seed: int, omega1: float, pt_db: float):
    """The trace of seed at means (omega1, 1), its calibration at pt_db and
    the calibrated ``proposed`` run."""
    trace = sample_trace(FadingStatistics(omega1, 1.0), 10_000, seed)
    result = calibrate(trace, 10.0 ** (pt_db / 10.0), tol_rate=0.01, tol_power=0.005)
    return trace, result, run(trace, proposed_policy(result.thresholds))


def point_runs(seed: int) -> dict:
    """``run_point`` at omega1 = 1 and each budget of POINT_DBS, by budget."""
    return {pt: run_point(seed, 1.0, pt) for pt in POINT_DBS}


def default_sweep(seed: int) -> list[dict]:
    """The default sweep's rows, every protocol at nine budgets, at seed."""
    return run_sweep(RunSpec(seed=seed))


def joint_uplink_share(runs: dict) -> float:
    """Criterion 3: the largest joint-uplink (mode 3) frequency of the runs."""
    return max(report.mode_freq[2] for _, _, report in runs.values())


def end_queue_share(runs: dict) -> float:
    """Criterion 4: the largest final buffer level per slot over the sum rate."""
    reports = [report for _, _, report in runs.values()]
    return max((q / r.n_slots) / r.sum_rate for r in reports for q in (r.q1, r.q2))


def tightest_margin(rows: list[dict]) -> tuple[float, str]:
    """Criterion 5: the smallest margin, ``proposed``'s sum rate minus 0.99 x
    a baseline's at the same budget, and the baseline and budget."""
    proposed = {r["pt_db"]: r["sum_rate"] for r in rows if r["protocol"] == "proposed"}
    margin, against = math.inf, ""
    for row in rows:
        if row["protocol"] != "proposed":
            m = proposed[row["pt_db"]] - 0.99 * row["sum_rate"]
            if m < margin:
                margin, against = m, f"{row['protocol']} at {row['pt_db']:g} dB"
    return margin, against


def tdbc_crossing(seed: int) -> tuple[float, float]:
    """Criterion 6: ``proposed``'s 1:1 sum rate at 14 dB, and the budget in
    dB, bisected 24 times within [14, 30], at which ``tdbc_no_pa`` matches
    it. Raises ValueError when the rates do not cross within that bracket."""
    trace, _, report = run_point(seed, 1.0, 14.0)
    target = report.sum_rate

    def tdbc_rate(pt_db: float) -> float:
        prep = tdbc_policy("tdbc_no_pa", trace, 10.0 ** (pt_db / 10.0), tol_power=0.005)
        return run(trace, prep.decide).sum_rate

    lo, hi = 14.0, 30.0
    if not tdbc_rate(lo) < target < tdbc_rate(hi):
        raise ValueError(f"tdbc_no_pa does not reach {target!r} within [{lo:g}, {hi:g}] dB")
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tdbc_rate(mid) < target else (lo, mid)
    return target, 0.5 * (lo + hi)


def low_budget_rates(rows: list[dict]) -> tuple[dict, float]:
    """Criterion 7: the -10 dB sum rates, and proposed over three-mode."""
    at = {r["protocol"]: r["sum_rate"] for r in rows if r["pt_db"] == -10.0}
    return at, at["proposed"] / at["fixed_power_three_mode"]


def link_quality_gains(seed: int, runs: dict) -> tuple[tuple[float, ...], float, float]:
    """Criterion 8: ``proposed``'s 10 dB sum rate at omega1 = 1 (read from
    runs), 2 and 5, and its increments from 1 to 2 and from 2 to 5."""
    rates = (runs[10.0][2].sum_rate, *(run_point(seed, w, 10.0)[2].sum_rate for w in (2.0, 5.0)))
    return rates, rates[1] - rates[0], rates[2] - rates[1]


def threshold_region_scan(trace, p_total: float, mu_values, tol_rate: float = 0.02) -> list:
    """Criterion 9: the balanced dual pairs (mu1, mu2), in probe order,
    among every pair from mu_values (each in [0, 1], the boundary values
    included) probed on trace, a short one for speed. Each pair runs the
    slot rule at the decoding share its order picks, is priced once by
    calibration's price solve to the power budget to 0.5 %, and is judged
    on the decisions that solve recorded at the price it returned.

    A point is balanced when both relative rate residuals are within
    tol_rate and the delivered sum rate is positive. Boundary dual values
    can never balance: one side of each rate pairing collapses to zero.
    """
    check_real("power budget", p_total, positive=True)
    check_tolerance("tol_rate", tol_rate)
    mu_values = np.asarray(mu_values, dtype=float)
    if not np.all((mu_values >= 0.0) & (mu_values <= 1.0)):
        raise ValueError(f"mu_values must lie in [0, 1], got {mu_values.tolist()!r}")
    gains = TraceGains(trace.s1, trace.s2)
    balanced = []
    for mu1 in map(float, mu_values):
        for mu2 in map(float, mu_values):
            t = _dual_order_share(mu1, mu2)
            decided = {}  # the decisions of each price probe

            def spend(g: float) -> float:
                decided[g] = gains.decide(mu1, mu2, g, t)
                return trace_mean(decided[g].power)

            dec = decided[match_budget(spend, p_total, 1.0, 0.005)[0]]
            c1, c2 = balance_residuals(dec)
            sum_rate = trace_mean(dec.down1) + trace_mean(dec.down2)
            if abs(c1) <= tol_rate and abs(c2) <= tol_rate and sum_rate > 0.0:
                balanced.append((mu1, mu2))
    return balanced
