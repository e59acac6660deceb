"""Threshold calibration: find duals that balance the relay buffers and
spend exactly the power budget on a fixed fading trace.

Calibration is a sample-average approximation: one trace, fixed by the
seed, is reused for every candidate dual triple, so the search is fully
deterministic. Rates are counted without queue clipping here; a policy
whose long-run inflow matches the broadcast capacity it schedules keeps
the buffers at the edge of absorption, which is where the clipped and
unclipped averages meet. The duals are aimed most of a tolerance below
exact balance: at exactly critical load the clipped queues random-walk
upward over any finite run, while a slight inflow deficit pins them.

Structure of the search: the power price gamma is innermost, found by
bisection because spent power is nonincreasing in gamma. The buffer duals
are solved by nesting two sign bisections: for a fixed mu1, the balance
residual of buffer 2 falls monotonically as mu2 rises (a larger mu2
starves uplink 2 and feeds the broadcast toward user 1), so mu2 is
bisected first; the outer loop then bisects mu1 on buffer 1's residual
evaluated along that inner solution path. Nesting matters: under strongly
asymmetric fading the region where both residuals are moderate is a thin
diagonal band in the dual square, and independent coordinate updates step
off the band into regimes where one traffic direction is never scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ChannelTrace, FadingStatistics, check_int, check_real, sample_trace
from .engine import QueueState, RateReport
from .policy import Thresholds, TraceDecisions, balance_residuals, decide_trace, optimal_time_share

__all__ = [
    "CalibrationConfig",
    "CalibrationResult",
    "ThresholdEvaluation",
    "evaluate_thresholds",
    "calibrate",
    "balance_duals",
    "match_budget",
]

_MU_LO = 1e-3
_MU_HI = 1.0 - 1e-3


@dataclass(frozen=True)
class CalibrationConfig:
    """One calibration problem: fading statistics, power budget, trace size
    and seed, residual tolerances, and a cap on dual-point evaluations."""

    stats: FadingStatistics
    p_total: float
    n_slots: int = 10_000
    seed: int = 1234
    tol_rate: float = 0.01
    tol_power: float = 0.005
    max_iters: int = 400

    def __post_init__(self) -> None:
        check_real("power budget", self.p_total, positive=True)
        check_int("n_slots", self.n_slots, 1)
        check_int("seed", self.seed, 0)
        for tol in (self.tol_rate, self.tol_power):
            check_real("tolerance", tol, positive=True)
            if not tol <= 0.1:
                raise ValueError("tolerances must lie in (0, 0.1]")
        check_int("max_iters", self.max_iters, 1)


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated duals with the absolute relative residuals they achieve.

    iterations counts evaluated dual points (each wraps an inner gamma
    bisection); converged means every residual met its tolerance.
    """

    thresholds: Thresholds
    residual_c1: float
    residual_c2: float
    residual_c3: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ThresholdEvaluation:
    """Signed residuals of one dual triple on the calibration trace.

    c1 = (inflow to buffer 1 - broadcast capacity toward user 2) relative,
    c2 mirrors it for buffer 2, c3 = (spent power - budget) relative. The
    report holds unclipped averages; its queue field is a placeholder.
    """

    c1: float
    c2: float
    c3: float
    report: RateReport


def evaluate_thresholds(
    th: Thresholds, cfg: CalibrationConfig, trace: ChannelTrace | None = None
) -> ThresholdEvaluation:
    """Run the slot rule over the calibration trace without queue clipping
    and measure all three balance residuals."""
    if trace is None:
        trace = sample_trace(cfg.stats, cfg.n_slots, cfg.seed)
    t = optimal_time_share(cfg.stats)
    dec = decide_trace(trace.s1, trace.s2, th.mu1, th.mu2, th.gamma, t)
    c1, c2 = balance_residuals(dec)
    n = len(trace)
    d1 = float(dec.down1.mean())
    d2 = float(dec.down2.mean())
    power = float(dec.power.mean())
    report = RateReport(
        r_1r=float(dec.up1.mean()),
        r_2r=float(dec.up2.mean()),
        r_r1=d1,
        r_r2=d2,
        sum_rate=d1 + d2,
        avg_power=power,
        mode_freq=tuple(int(c) / n for c in np.bincount(dec.mode, minlength=7)[1:]),
        final_queues=QueueState(0.0, 0.0),
        n_slots=n,
    )
    return ThresholdEvaluation(c1=c1, c2=c2, c3=(power - cfg.p_total) / cfg.p_total, report=report)


class _BudgetExhausted(Exception):
    pass


def balance_duals(
    residual_fn: Callable[[float, float], tuple[float, float]],
    tol_rate: float,
    max_points: int,
    start: tuple[float, float] = (0.5, 0.5),
) -> tuple[float, float, float, float, int, bool]:
    """Drive both signed rate residuals inside tol_rate over the dual
    square. residual_fn(mu1, mu2) -> (c1, c2), each falling as its own
    dual rises.

    Nested sign bisection: the inner stage solves mu2 against c2 for a
    fixed mu1 (warm-bracketed around the previous inner solution, widened
    to the box edge only when the warm bracket misses the sign change);
    the outer stage brackets mu1 by doubling steps in the direction that
    sinks c1, then bisects. Solving one dual per level keeps the iterate
    on the narrow band where both traffic directions are scheduled, which
    a simultaneous update steps off under asymmetric fading. Evaluations
    are cached and capped at max_points; on exhaustion or a missing sign
    change the best point seen is returned. Returns (mu1, mu2, c1, c2,
    points_used, converged).
    """
    cache: dict[tuple[float, float], tuple[float, float]] = {}
    used = 0

    def probe(mu1: float, mu2: float) -> tuple[float, float]:
        nonlocal used
        key = (mu1, mu2)
        if key not in cache:
            if used >= max_points:
                raise _BudgetExhausted
            used += 1
            cache[key] = residual_fn(mu1, mu2)
        return cache[key]

    tol_inner = 0.5 * tol_rate
    best: tuple[float, float, float, float, float] | None = None

    def record(mu1: float, mu2: float, c1: float, c2: float) -> None:
        nonlocal best
        n = max(abs(c1), abs(c2))
        if best is None or n < best[0]:
            best = (n, mu1, mu2, c1, c2)

    def inner(mu1: float, guess: float) -> tuple[float, float, float]:
        """Solve c2(mu1, .) = 0; returns (mu2, c1, c2) at the solution."""

        def ev(m2: float) -> tuple[float, float, float]:
            c1, c2 = probe(mu1, m2)
            record(mu1, m2, c1, c2)
            return m2, c1, c2

        lo = ev(max(_MU_LO, guess - 0.08))
        if abs(lo[2]) <= tol_inner:
            return lo
        if lo[2] < 0.0:
            hi = lo
            lo = ev(_MU_LO)
            if abs(lo[2]) <= tol_inner or lo[2] < 0.0:
                return lo
        else:
            hi = ev(min(_MU_HI, guess + 0.08))
            if abs(hi[2]) <= tol_inner:
                return hi
            if hi[2] > 0.0:
                lo = hi
                hi = ev(_MU_HI)
                if abs(hi[2]) <= tol_inner or hi[2] > 0.0:
                    return hi
        pick = lo if abs(lo[2]) < abs(hi[2]) else hi
        for _ in range(40):
            if hi[0] - lo[0] <= 1e-9:
                break
            mid = ev(0.5 * (lo[0] + hi[0]))
            if abs(mid[2]) < abs(pick[2]):
                pick = mid
            if abs(mid[2]) <= tol_inner:
                return mid
            if mid[2] > 0.0:
                lo = mid
            else:
                hi = mid
        return pick

    try:
        x = min(max(start[0], _MU_LO), _MU_HI)
        guess = min(max(start[1], _MU_LO), _MU_HI)
        m2, c1, c2 = inner(x, guess)
        guess = m2
        if max(abs(c1), abs(c2)) <= tol_rate:
            return x, m2, c1, c2, used, True
        lo_x = hi_x = None  # mu1 bracket: c1 > 0 at lo_x, c1 < 0 at hi_x
        if c1 > 0.0:
            lo_x = x
        else:
            hi_x = x
        step = 0.12
        while lo_x is None or hi_x is None:
            if c1 > 0.0:
                if x >= _MU_HI:
                    break
                x = min(x + step, _MU_HI)
            else:
                if x <= _MU_LO:
                    break
                x = max(x - step, _MU_LO)
            step *= 2.0
            m2, c1, c2 = inner(x, guess)
            guess = m2
            if max(abs(c1), abs(c2)) <= tol_rate:
                return x, m2, c1, c2, used, True
            if c1 > 0.0:
                lo_x = x
            else:
                hi_x = x
        if lo_x is not None and hi_x is not None:
            for _ in range(40):
                if abs(hi_x - lo_x) <= 1e-9:
                    break
                x = 0.5 * (lo_x + hi_x)
                m2, c1, c2 = inner(x, guess)
                guess = m2
                if max(abs(c1), abs(c2)) <= tol_rate:
                    return x, m2, c1, c2, used, True
                if c1 > 0.0:
                    lo_x = x
                else:
                    hi_x = x
    except _BudgetExhausted:
        pass
    if best is None:
        return start[0], start[1], float("inf"), float("inf"), used, False
    n, mu1, mu2, c1, c2 = best
    return mu1, mu2, c1, c2, used, n <= tol_rate


def _solve_gamma(
    power_resid: Callable[[float], float], warm: float, tol: float
) -> tuple[float, float]:
    """Bisect the power price: spent power is nonincreasing in gamma, so a
    sign-bracketing expansion around the warm start always succeeds within
    the (1e-14, 1e14) range. Returns (gamma, achieved signed residual)."""
    lo = hi = warm
    r = power_resid(warm)
    if abs(r) <= tol:
        return warm, r
    if r > 0.0:
        while r > 0.0 and hi < 1e14:
            lo, hi = hi, hi * 8.0
            r = power_resid(hi)
    else:
        while r < 0.0 and lo > 1e-14:
            hi, lo = lo, lo / 8.0
            r = power_resid(lo)
    gamma, best = (hi, r) if r > 0.0 else (lo, r)
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        r = power_resid(mid)
        if abs(r) < abs(best):
            gamma, best = mid, r
        if abs(r) <= tol:
            return mid, r
        if r > 0.0:
            lo = mid
        else:
            hi = mid
    return gamma, best


def match_budget(solve, decide, p_total: float) -> tuple[float, TraceDecisions]:
    """Spend p_total on average by tuning one scalar x (a power price or a
    common power): solve(resid) -> x is a root finder over the relative
    power residual of decide(x). Returns (x, decide(x)), reusing the last
    probe's decisions when x is that probe; they are released before the
    next decisions are computed, so at most one set is alive at a time."""
    held: tuple[float | None, TraceDecisions | None] = (None, None)

    def resid(x: float) -> float:
        nonlocal held
        held = (None, None)  # release the previous probe's decisions first
        held = (x, decide(x))
        return (float(held[1].power.mean()) - p_total) / p_total

    x = solve(resid)
    if held[0] == x:
        return held
    held = (None, None)
    return x, decide(x)


def calibrate(cfg: CalibrationConfig) -> CalibrationResult:
    """Calibrate (mu1, mu2, gamma) for the slot rule on cfg's trace."""
    trace = sample_trace(cfg.stats, cfg.n_slots, cfg.seed)
    s1, s2 = trace.s1, trace.s2
    t = optimal_time_share(cfg.stats)
    warm = {"gamma": 1.0}
    gamma_at: dict[tuple[float, float], float] = {}
    # aim most of a tolerance into inflow deficit: solving the shifted
    # residuals to +-0.12 tol lands the true residuals in
    # [-0.97 tol, -0.73 tol], still inside the convergence check, and that
    # sub-critical drift keeps the clipped queues from wandering up over a
    # finite run the way they do at exactly critical load
    bias = 0.85 * cfg.tol_rate

    def residuals(mu1: float, mu2: float) -> tuple[float, float]:
        gamma, dec = match_budget(
            lambda resid: _solve_gamma(resid, warm["gamma"], 0.25 * cfg.tol_power)[0],
            lambda g: decide_trace(s1, s2, mu1, mu2, g, t),
            cfg.p_total,
        )
        warm["gamma"] = gamma
        gamma_at[(mu1, mu2)] = gamma
        c1, c2 = balance_residuals(dec)
        return c1 + bias, c2 + bias

    # the solver aims for the tighter biased band, but convergence is
    # judged on the true residuals against the configured tolerances: on
    # short traces the residuals move in coarse per-slot steps and the
    # narrow band can fall between reachable values even though the true
    # residuals sit well inside tolerance
    mu1, mu2, _, _, used, _ = balance_duals(
        residuals, tol_rate=0.12 * cfg.tol_rate, max_points=cfg.max_iters
    )
    th = Thresholds(mu1=mu1, mu2=mu2, gamma=gamma_at.get((mu1, mu2), warm["gamma"]))
    final = evaluate_thresholds(th, cfg, trace)
    converged = (
        abs(final.c1) <= cfg.tol_rate
        and abs(final.c2) <= cfg.tol_rate
        and abs(final.c3) <= cfg.tol_power
    )
    return CalibrationResult(
        thresholds=th,
        residual_c1=abs(final.c1),
        residual_c2=abs(final.c2),
        residual_c3=abs(final.c3),
        iterations=used,
        converged=converged,
    )
