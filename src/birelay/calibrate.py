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

Structure of the search: every stage is a monotone 1-D solve through
find_root, a bracketing false-position method with a bisection safeguard.
The power price gamma is innermost, as spent power is nonincreasing in
gamma. The buffer duals are solved by nesting: for a fixed mu1, the
balance residual of buffer 2 falls monotonically as mu2 rises (a larger
mu2 starves uplink 2 and feeds the broadcast toward user 1), so mu2 is
solved first; the outer loop then solves mu1 on buffer 1's residual
along that inner solution path. Nesting matters: under strongly
asymmetric fading the region where both residuals are moderate is a thin
diagonal band in the dual square, and independent coordinate updates
step off the band into regimes where one direction is never scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .channel import ChannelTrace, FadingStatistics, check_int, check_real, check_tolerance
from .channel import sample_trace
from .policy import Thresholds, TraceDecisions, balance_residuals, decide_trace, optimal_time_share
from .policy import TraceGains

__all__ = [
    "CalibrationConfig",
    "CalibrationResult",
    "calibrate",
    "balance_duals",
    "find_root",
    "match_budget",
    "solve_gamma",
]

_MU_LO = 1e-3
_MU_HI = 1.0 - 1e-3
# cap on the dual points one calibration evaluates
_MAX_POINTS = 400


@dataclass(frozen=True)
class CalibrationConfig:
    """One calibration problem: fading statistics, power budget, trace size
    and seed, and residual tolerances."""

    stats: FadingStatistics
    p_total: float
    n_slots: int = 10_000
    seed: int = 1234
    tol_rate: float = 0.01
    tol_power: float = 0.005

    def __post_init__(self) -> None:
        check_real("power budget", self.p_total, positive=True)
        check_int("n_slots", self.n_slots, 1)
        check_int("seed", self.seed, 0)
        check_tolerance("tol_rate", self.tol_rate)
        check_tolerance("tol_power", self.tol_power)


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated duals with the absolute relative residuals they achieve.

    iterations counts evaluated dual points (each wraps an inner gamma
    solve); evaluations counts every run of the slot rule over the trace,
    one per gamma probe; converged means every residual met its tolerance.
    """

    thresholds: Thresholds
    residual_c1: float
    residual_c2: float
    residual_c3: float
    iterations: int
    evaluations: int
    converged: bool


class _BudgetExhausted(Exception):
    pass


def find_root(
    f: Callable[[float], float],
    a: float,
    fa: float,
    b: float,
    fb: float,
    done: Callable[[float], bool],
    *,
    log: bool = False,
    xtol: float,
    max_steps: int,
) -> tuple[float, float]:
    """Safeguarded bracketing root finder for a monotone residual f.

    fa = f(a) and fb = f(b) are known and exactly one of them is > 0.
    Each probe is an Illinois false-position step (Dowell & Jarratt, BIT
    11, 1971) on r / (1 + |r|), which has the sign and root of r but stays
    bounded, so a saturated residual (a relative balance residual reaches
    1e12 where one direction is never scheduled) cannot pin the secant to
    one end. The probe is the midpoint instead when the secant point is
    not strictly inside the bracket or the previous secant step failed to
    halve it, so every two probes at least halve the bracket. With
    log=True the search runs in log x, and xtol is a width in log x.

    a and b are not evaluated again and no probe leaves (a, b). Returns
    (x, f(x)) for the first probe that satisfies done; otherwise, once the
    bracket is no wider than xtol, holds no further point, or max_steps
    probes are spent, the point with the smallest |f| among a, b and the
    probes (the later probe on ties, b before a).
    """
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("f(a) and f(b) must lie on opposite sides of zero")
    warp, unwarp = (math.log, math.exp) if log else (float, float)

    end = lambda x, r, u: [x, r, u, r / (1.0 + abs(r))]  # noqa: E731
    ends = [end(a, fa, warp(a)), end(b, fb, warp(b))]
    best = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    bisect, last = False, -1
    for _ in range(max_steps):
        (xa, ra, ua, ga), (xb, _, ub, gb) = ends
        width = abs(ub - ua)
        u = ub - gb * (ub - ua) / (gb - ga)
        secant = not bisect and min(xa, xb) < unwarp(u) < max(xa, xb)
        if not secant:
            u = 0.5 * (ua + ub)
        x = unwarp(u)
        if width <= xtol or not min(xa, xb) < x < max(xa, xb):
            break
        r = f(x)
        if done(r):
            return x, r
        if abs(r) <= abs(best[1]):
            best = (x, r)
        # Illinois: an end kept twice in a row has its residual halved, so
        # the next secant point moves off the side that keeps being replaced
        i = 0 if (r > 0.0) == (ra > 0.0) else 1
        if i == last:
            ends[1 - i][3] *= 0.5
        ends[i], last = end(x, r, u), i
        bisect = secant and abs(ends[1][2] - ends[0][2]) > 0.5 * width
    return best


def _solve_from(f, x: float, walk, done, **kw) -> tuple[float, float]:
    """Evaluate f at x, then step through walk(f(x)) toward the sign change
    until a residual satisfies done or changes sign; a sign change is
    closed by find_root(**kw). Returns (x, f(x)): the point found, or the
    last one when the walk ends first."""
    r = f(x)
    for nxt in walk(r):
        if done(r):
            break
        a, fa, x, r = x, r, nxt, f(nxt)
        if (r > 0.0) != (fa > 0.0) and not done(r):
            return find_root(f, a, fa, x, r, done, **kw)
    return x, r


def balance_duals(
    residual_fn: Callable[[float, float], tuple[float, float]],
    tol_rate: float,
    max_points: int,
    start: tuple[float, float] = (0.5, 0.5),
) -> tuple[float, float, float, float, int, bool]:
    """Drive both signed rate residuals inside tol_rate over the dual
    square. residual_fn(mu1, mu2) -> (c1, c2), each falling as its own
    dual rises.

    Two nested monotone solves through find_root: the inner one solves
    mu2 against c2 for a fixed mu1 (warm-bracketed around the previous
    inner solution, widened to the box edge only when the warm bracket
    misses the sign change); the outer one brackets mu1 by doubling steps
    in the direction that sinks c1, then solves c1 along the inner
    solution path. Solving one dual per level keeps the iterate on the
    narrow band where both traffic directions are scheduled, which a
    simultaneous update steps off under asymmetric fading. Evaluations
    are cached and capped at max_points; on exhaustion or a missing sign
    change the best point seen is returned. Returns (mu1, mu2, c1, c2,
    points_used, converged).
    """
    cache: dict[tuple[float, float], tuple[float, float]] = {}

    def probe(mu1: float, mu2: float) -> tuple[float, float]:
        if (mu1, mu2) not in cache:
            if len(cache) >= max_points:
                raise _BudgetExhausted
            cache[(mu1, mu2)] = residual_fn(mu1, mu2)
        return cache[(mu1, mu2)]

    guess = min(max(start[1], _MU_LO), _MU_HI)
    found: tuple[float, float, float, float] | None = None
    within = lambda c2: abs(c2) <= 0.5 * tol_rate  # noqa: E731

    def c1_at(mu1: float) -> float:
        """c1 at the inner solution mu2 of c2(mu1, .) = 0, warm-bracketed
        around the previous one; notes a point that balances both."""
        nonlocal guess, found

        def widen(c2: float) -> list[float]:
            return [min(_MU_HI, guess + 0.08), _MU_HI] if c2 > 0.0 else [_MU_LO]

        c2_at = lambda m2: probe(mu1, m2)[1]  # noqa: E731
        lo = max(_MU_LO, guess - 0.08)
        guess = _solve_from(c2_at, lo, widen, within, xtol=1e-9, max_steps=40)[0]
        c1, c2 = probe(mu1, guess)
        if max(abs(c1), abs(c2)) <= tol_rate:
            found = (mu1, guess, c1, c2)
        return c1

    x = min(max(start[0], _MU_LO), _MU_HI)

    def outward(c1: float):
        """mu1 steps that move c1 toward zero (c1 falls as mu1 rises), doubling."""
        m, step = x, 0.12
        while (m < _MU_HI) if c1 > 0.0 else (m > _MU_LO):
            m = min(m + step, _MU_HI) if c1 > 0.0 else max(m - step, _MU_LO)
            step *= 2.0
            yield m

    balanced = lambda _: found is not None  # noqa: E731
    try:
        _solve_from(c1_at, x, outward, balanced, xtol=1e-9, max_steps=40)
    except _BudgetExhausted:
        pass
    if found is not None:
        return (*found, len(cache), True)
    if not cache:
        return start[0], start[1], float("inf"), float("inf"), 0, False
    # the first of the points whose larger residual is smallest
    (mu1, mu2), (c1, c2) = min(cache.items(), key=lambda kv: max(map(abs, kv[1])))
    return mu1, mu2, c1, c2, len(cache), max(abs(c1), abs(c2)) <= tol_rate


def solve_gamma(
    power_resid: Callable[[float], float], warm: float, tol: float
) -> tuple[float, float]:
    """Find the power price. Spent power is nonincreasing in gamma, so
    stepping out from the warm start until the residual changes sign
    brackets the price within (1e-14, 1e14); find_root then closes the
    bracket in log gamma. The first step grows with the residual, since a
    warm start is usually close; later steps are x8. Returns (gamma,
    achieved signed residual): the first probe within tol, else the probe
    with the smallest |residual|."""

    def outward(r: float):
        g, step = warm, min(8.0, max(1.0 + 2.0 * abs(r), 1.0 + 4.0 * tol))
        while (g < 1e14) if r > 0.0 else (g > 1e-14):
            g = g * step if r > 0.0 else g / step
            step = 8.0
            yield g

    within = lambda r: abs(r) <= tol  # noqa: E731
    return _solve_from(power_resid, warm, outward, within, log=True, xtol=0.0, max_steps=80)


def match_budget(
    decide: Callable[[float], TraceDecisions], p_total: float, warm: float, tol: float
) -> tuple[float, float, TraceDecisions]:
    """Spend p_total on average: solve_gamma(warm, tol) finds the power
    price gamma over the relative power residual of decide(gamma). Returns
    (gamma, its signed residual, decide(gamma)), reusing the last probe's
    decisions when gamma is that probe; they are released before the next
    decisions are computed, so at most one set is alive at a time."""
    held: tuple[float | None, TraceDecisions | None] = (None, None)

    def resid(gamma: float) -> float:
        nonlocal held
        held = (None, None)  # release the previous probe's decisions first
        held = (gamma, decide(gamma))
        return (float(held[1].power.mean()) - p_total) / p_total

    gamma, r = solve_gamma(resid, warm, tol)
    if held[0] == gamma:
        return gamma, r, held[1]
    held = (None, None)
    return gamma, r, decide(gamma)


def calibrate(cfg: CalibrationConfig, trace: ChannelTrace | None = None) -> CalibrationResult:
    """Calibrate (mu1, mu2, gamma) for the slot rule on cfg's trace, or on
    trace, which must then be cfg's (same statistics, length and seed)."""
    if trace is None:
        trace = sample_trace(cfg.stats, cfg.n_slots, cfg.seed)
    elif (trace.stats, len(trace), trace.seed) != (cfg.stats, cfg.n_slots, cfg.seed):
        raise ValueError("trace does not match the calibration config")
    s1, s2 = trace.s1, trace.s2
    gains = TraceGains(s1, s2)  # one kernel for every probe on this trace
    t = optimal_time_share(cfg.stats)
    # (gamma, c1, c2, c3) of every dual point probed, before the bias
    probed: dict[tuple[float, float], tuple[float, float, float, float]] = {}
    evaluations = 0
    # aim most of a tolerance into inflow deficit: solving the shifted
    # residuals to +-0.12 tol lands the true residuals in
    # [-0.97 tol, -0.73 tol], still inside the convergence check, and that
    # sub-critical drift keeps the clipped queues from wandering up over a
    # finite run the way they do at exactly critical load
    bias = 0.85 * cfg.tol_rate

    def residuals(mu1: float, mu2: float) -> tuple[float, float]:
        def decide(g: float) -> TraceDecisions:
            nonlocal evaluations
            evaluations += 1
            return decide_trace(s1, s2, mu1, mu2, g, t, gains=gains)

        warm = next(reversed(probed.values()))[0] if probed else 1.0  # the latest point's price
        gamma, c3, dec = match_budget(decide, cfg.p_total, warm, 0.25 * cfg.tol_power)
        c1, c2 = balance_residuals(dec)
        probed[(mu1, mu2)] = (gamma, c1, c2, c3)
        return c1 + bias, c2 + bias

    # the solver aims for the tighter biased band, but convergence is
    # judged on the true residuals against the configured tolerances: on
    # short traces the residuals move in coarse per-slot steps and the
    # narrow band can fall between reachable values even though the true
    # residuals sit well inside tolerance
    mu1, mu2, _, _, used, _ = balance_duals(
        residuals, tol_rate=0.12 * cfg.tol_rate, max_points=_MAX_POINTS
    )
    gamma, c1, c2, c3 = probed[(mu1, mu2)]  # balance_duals returns a probed point
    return CalibrationResult(
        thresholds=Thresholds(mu1=mu1, mu2=mu2, gamma=gamma),
        residual_c1=abs(c1),
        residual_c2=abs(c2),
        residual_c3=abs(c3),
        iterations=used,
        evaluations=evaluations,
        converged=abs(c1) <= cfg.tol_rate and abs(c2) <= cfg.tol_rate and abs(c3) <= cfg.tol_power,
    )
