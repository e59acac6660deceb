"""Threshold calibration: find duals that balance the relay buffers and
spend exactly the power budget on a fixed fading trace.

Calibration is a sample-average approximation: the one trace the policy
will run on is reused for every candidate dual triple, so the search is
fully deterministic. The trace is the caller's, drawn by sample_trace or
built by hand (a transformed copy of a drawn one, say). Rates are
counted without queue clipping here; a policy whose long-run inflow
matches the broadcast capacity it schedules keeps the buffers at the
edge of absorption, which is where the clipped and unclipped averages
meet. The duals are aimed most of a tolerance below exact balance: at
exactly critical load the clipped queues random-walk upward over any
finite run, while a slight inflow deficit pins them.

Structure of the search: every stage is a monotone 1-D solve through
find_root, which walks from a start point to a sign change and closes it
by false position with a bisection safeguard; no solve needs a step cap,
and _MAX_POINTS caps the dual points of one dual search, here and in the
fixed-power baselines. The power price gamma is innermost, as spent
power is nonincreasing in gamma; each price solve starts at the last
point's price, with a first step sized by the elasticity of spent power
in gamma that the last solve measured and every later step by the one
measured between its own last two probes. A price probe is priced only
as tightly as the search needs: one whose true balance residuals miss
tol_rate cannot be reported as converged, so its power residual need
only meet tol_power, while any other meets a quarter of it. The buffer
duals are solved by nesting: for a fixed mu1, the balance residual of
buffer 2 falls monotonically as mu2 rises (a larger mu2 starves uplink 2
and feeds the broadcast toward user 1), so mu2 is solved first; the
outer loop then solves mu1 on buffer 1's residual along that inner
solution path. Nesting matters: under strongly asymmetric fading the
region where both residuals are moderate is a thin diagonal band in the
dual square, and independent coordinate updates step off the band into
regimes where one direction is never scheduled. Both duals are solved in
log-odds, with no box: there the band reaches duals within 1e-4 of
either end. One doubling walk serves both levels. Each inner solve from
the third on starts on the line through the last two inner solutions, a
continuation predictor (Allgower & Georg, Numerical Continuation
Methods, 1990, ch. 2), with a first step sized by the slope of c2 the
last one measured. The inner solve is also inexact, with a forcing term
(Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982): far from
balance it stops once |c2| is small beside |c1|, since the outer step
then needs only c1's sign and rough size; near balance it stops at half
the tolerance, and the first probe inside the aim band ends the search.
The fixed-power baselines run the same search. A calibration that ends
outside its narrow aim band reports the probe nearest the aim among
those whose true residuals meet the tolerances.

The dual search keeps the one record of what it probed: balance_duals
returns every point with the value residual_fn gave there, and calibrate
reads the price and the true residuals of the point it reports, and its
iteration count, from that record. Within a point, match_budget sees
only the mean power spent at each price, and one dict keeps each price
probe's (c1, c2) for the price band and the point's reported residuals.
threshold_region_scan maps the dual plane with the same price solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .channel import ChannelTrace, check_real, check_tolerance
from .policy import (
    Thresholds,
    TraceGains,
    balance_residuals,
    decide_trace,
    optimal_time_share,
    trace_mean,
)

__all__ = [
    "CalibrationResult",
    "calibrate",
    "balance_duals",
    "find_root",
    "match_budget",
    "threshold_region_scan",
]

# float representability, not a tuning knob: past |u| = log 2**53 ~ 36.7
# a dual 1/(1 + e**-u) rounds to 1.0, which Thresholds rejects
_U_MAX = 36.0
# cap on the dual points one balance_duals call evaluates
_MAX_POINTS = 400
# forcing constant of the inner dual solve, which stops once
# |c2| <= _THETA |c1| / (1 + |c1|): a quarter of the outer residual leaves
# c1's sign and rough size, all the outer step reads, to c1 itself, and
# the bound stays below _THETA where a residual saturates at 1e12
_THETA = 0.25
# every price step is capped at x8, so a near-flat measured elasticity
# cannot leap decades in gamma
_LOG_8 = math.log(8.0)


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
    x: float,
    walk: Callable[[float], Iterable[float]],
    done: Callable[[float], bool],
    *,
    log: bool = False,
    xtol: float = 0.0,
) -> tuple[float, float]:
    """Solve a monotone residual f, starting at x.

    Evaluates f at x and then at each point of walk(f(x)) until a residual
    satisfies done or changes sign, or a walk step does not move, which
    ends the walk; a sign change's bracket is then closed by Illinois
    false-position steps (Dowell & Jarratt, BIT 11, 1971) on r / (1 + |r|),
    which has the sign and root of r but stays bounded, so a saturated
    residual (a relative balance residual reaches 1e12 where one direction
    is never scheduled) cannot pin the secant to one end. The probe is the
    midpoint instead when the secant point is not strictly inside the
    bracket or the previous secant step failed to halve it, so every two
    probes at least halve the bracket. With log=True the bracket is closed
    in log x, and xtol is a width in log x.

    No point is evaluated twice. Returns (x, f(x)) for the first point that
    satisfies done, else the walk's last point when it ends with no sign
    change, else, once the bracket is no wider than xtol or holds no
    further point, the point with the smallest |f| among the bracket's ends
    and its probes (the later one on ties).
    """
    r = f(x)
    if done(r):
        return x, r
    for nxt in walk(r):
        if nxt == x:
            return x, r
        a, fa, x, r = x, r, nxt, f(nxt)
        if done(r):
            return x, r
        if (r > 0.0) != (fa > 0.0):
            break
    else:
        return x, r
    warp, unwarp = (math.log, math.exp) if log else (float, float)
    end = lambda x, r, u: [x, r, u, r / (1.0 + abs(r))]  # noqa: E731
    ends = [end(a, fa, warp(a)), end(x, r, warp(x))]
    best = (a, fa) if abs(fa) < abs(r) else (x, r)
    bisect, last = False, -1
    while True:
        (xa, ra, ua, ga), (xb, _, ub, gb) = ends
        width = abs(ub - ua)
        u = ub - gb * (ub - ua) / (gb - ga)
        secant = not bisect and min(xa, xb) < unwarp(u) < max(xa, xb)
        if not secant:
            u = 0.5 * (ua + ub)
        x = unwarp(u)
        if width <= xtol or not min(xa, xb) < x < max(xa, xb):
            return best
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


def _walk(u: float, step: float, up: bool) -> Iterator[float]:
    """Doubling steps from u, up or down, to |u| = _U_MAX."""
    while (u < _U_MAX) if up else (u > -_U_MAX):
        u = min(u + step, _U_MAX) if up else max(u - step, -_U_MAX)
        step *= 2.0
        yield u


def balance_duals(
    residual_fn: Callable[[float, float], tuple],
    tol_rate: float,
    start: tuple[float, float] = (0.5, 0.5),
) -> tuple[tuple[float, float], dict[tuple[float, float], tuple]]:
    """Drive both signed rate residuals inside tol_rate over the open dual
    square. residual_fn(mu1, mu2) returns a tuple whose first two entries
    are (c1, c2), relative residuals >= -1 each falling as its own dual
    rises; the search steers on those two and carries the rest unread.

    Two nested monotone solves through find_root, both in log-odds
    u = log(mu / (1 - mu)) with no box, each walking by doubling steps from
    its start: the inner one solves u2 against c2 for a fixed u1, the outer
    one c1 along that inner solution path, from start's mu1. An inner
    solve starts at the previous inner solution (start's mu2 for the
    first) or, from the third on, on the line through the last two, with a
    first step |g2| / k, g = c / (1 + |c|) and k > 0 the slope -dg2/du2
    last measured between an inner solve's last two probes (0.1 before
    one is measured). Solving one dual per level keeps the iterate on the
    narrow band where both traffic directions are scheduled, which a
    simultaneous update steps off under asymmetric fading. The inner solve
    stops once |c2| <= max(tol_rate / 2, _THETA |c1| / (1 + |c1|)) with c1
    read at the same probe: an outer iterate far from balance is not worth
    an exact inner solve, and near balance the first bound is the larger;
    a probe that balances both residuals also ends the inner solve, and
    with it the search. Each point is evaluated once, and at most
    _MAX_POINTS (at least 1) are.
    Returns ((mu1, mu2), probes): the first point that balances both
    residuals, else, on exhaustion or a missing sign change, the first of
    the points whose imbalance is smallest, which prefers a probe that
    schedules both directions; and probes, every probed point's
    residual_fn value keyed by the point, in probe order.
    """
    probes: dict[tuple[float, float], tuple] = {}
    duals = lambda *u: tuple(1.0 / (1.0 + math.exp(-x)) for x in u)  # noqa: E731
    trail: list[tuple[float, tuple]] = []  # (u2, value) probed in the current inner solve

    def probe(u1: float, u2: float) -> tuple:
        point = duals(u1, u2)
        if point not in probes:
            if len(probes) >= _MAX_POINTS:
                raise _BudgetExhausted
            probes[point] = residual_fn(*point)
        trail.append((u2, probes[point]))
        return probes[point]

    u1, u2 = (math.log(mu / (1.0 - mu)) for mu in start)
    found: tuple[float, float] | None = None
    path: list[tuple[float, float]] = []  # (u1, u2) of each inner solution
    slope: float | None = None  # -dg2/du2, as the last inner solve measured it

    def within(c2: float) -> bool:
        """The inner stop, with c1 read at the same probe; a probe that
        balances both ends it, and c1_at notes that probe."""
        c1 = abs(trail[-1][1][0])
        if max(c1, abs(c2)) <= tol_rate:
            return True
        return abs(c2) <= max(0.5 * tol_rate, _THETA * c1 / (1.0 + c1))

    def c1_at(v1: float) -> float:
        """c1 at the inner solution u2 of c2(v1, .) = 0, solved from the
        previous one or the predicted start; notes a point that balances both."""
        nonlocal u2, found, slope
        if len(path) > 1:
            (a1, a2), (b1, b2) = path[-2:]
            u2 = min(max(b2 + (b2 - a2) / (b1 - a1) * (v1 - b1), -_U_MAX), _U_MAX)
        c2_at = lambda v2: probe(v1, v2)[1]  # noqa: E731
        step = lambda c2: 0.1 if slope is None else abs(c2) / (1.0 + abs(c2)) / slope  # noqa: E731
        trail.clear()
        u2 = find_root(c2_at, u2, lambda c2: _walk(u2, step(c2), c2 > 0.0), within, xtol=4e-9)[0]
        if len(trail) > 1:
            (a, va), (b, vb) = trail[-2:]
            k = (va[1] / (1.0 + abs(va[1])) - vb[1] / (1.0 + abs(vb[1]))) / (b - a)
            slope = k if 0.0 < k < math.inf else slope
        path.append((v1, u2))
        value = probe(v1, u2)
        if max(abs(value[0]), abs(value[1])) <= tol_rate:
            found = duals(v1, u2)
        return value[0]

    balanced = lambda _: found is not None  # noqa: E731
    try:
        find_root(c1_at, u1, lambda c1: _walk(u1, 1.0, c1 > 0.0), balanced, xtol=4e-9)
    except _BudgetExhausted:
        pass
    return found or min(probes, key=lambda point: imbalance(probes[point])), probes


def imbalance(value: tuple) -> float:
    """The larger |c / (2 + c)| of a probe's residuals (c1, c2, ...), which
    ranks failed dual searches. A rate residual c = (u - d) / d is >= -1,
    so c / (2 + c) = (u - d) / (u + d) lies in [-1, 1] with c's sign and
    root; by |c|, unbounded above, a probe that never schedules one
    direction (c = -1) would outrank one a single slot pushes past +1."""
    return max(abs(c / (2.0 + c)) for c in value[:2])


def match_budget(
    spend: Callable[[float], float],
    p_total: float,
    warm: float,
    tol: float,
    elasticity: float | None = None,
    band: Callable[[float], float] | None = None,
) -> tuple[float, float, float | None]:
    """Spend p_total on average: find the power price gamma at which the
    relative residual of spend(gamma), the mean power spent at that price,
    is within tol, or, given a band, within band(gamma) at each probe.

    Spent power is nonincreasing in gamma, so find_root steps out from
    the warm start until the residual changes sign, within (1e-14, 1e14),
    and closes that bracket in log gamma. Each step grows with the
    residual r of the probe it leaves, since a warm start is usually
    close. With no elasticity given the first is a factor 1 + 2|r| (at
    least 1 + 4 tol), the step that meets the budget where spent power
    falls as gamma**-0.5; given the elasticity e of spent power in gamma
    from an earlier solve, it is |r| / e in log gamma, the step that meets
    it where power falls as gamma**-e. Each later step is |r| / e with e
    measured between the last two probes, at least 4 tol in log gamma, or
    x8 where that e is not positive and finite; no step exceeds x8. No
    price is spent twice. Returns (gamma, its signed residual, the
    elasticity): gamma the first probe within its band, else the probe
    with the smallest |residual|; the elasticity between the last two
    probes, or the one given when they measure no positive finite value."""
    spent: list[tuple[float, float]] = []

    def resid(gamma: float) -> float:
        spent.append((gamma, spend(gamma)))
        return (spent[-1][1] - p_total) / p_total

    def measured() -> float | None:
        """-d log(power) / d log(gamma) between the last two probes."""
        if len(spent) < 2 or min(spent[-1][1], spent[-2][1]) <= 0.0:
            return None
        (ga, pa), (gb, pb) = spent[-2:]
        slope = -math.log(pb / pa) / math.log(gb / ga)
        return slope if 0.0 < slope < math.inf else None

    def outward(r: float):
        if elasticity is None:
            step = min(8.0, max(1.0 + 2.0 * abs(r), 1.0 + 4.0 * tol))
        else:
            step = math.exp(min(abs(r) / elasticity, _LOG_8))
        g = warm
        while (g < 1e14) if r > 0.0 else (g > 1e-14):
            g = g * step if r > 0.0 else g / step
            yield g
            e = measured()
            last = (spent[-1][1] - p_total) / p_total
            step = 8.0 if e is None else math.exp(min(max(abs(last) / e, 4.0 * tol), _LOG_8))

    # done is asked right after each probe, so spent[-1] is the probe judged
    within = lambda r: abs(r) <= (tol if band is None else band(spent[-1][0]))  # noqa: E731
    gamma, r = find_root(resid, warm, outward, within, log=True)
    return gamma, r, measured() or elasticity


def calibrate(
    trace: ChannelTrace, p_total: float, tol_rate: float, tol_power: float
) -> CalibrationResult:
    """Calibrate (mu1, mu2, gamma) for the slot rule on trace, to spend
    p_total on average with both balance residuals within tol_rate and the
    power residual within tol_power (relative)."""
    check_real("power budget", p_total, positive=True)
    check_tolerance("tol_rate", tol_rate)
    check_tolerance("tol_power", tol_power)
    s1, s2 = trace.s1, trace.s2
    gains = TraceGains(s1, s2)  # one kernel for every probe on this trace
    t = optimal_time_share(trace.stats)
    evaluations = 0
    # the latest point's price starts the next price solve, and the
    # elasticity of spent power in gamma that solve measured sizes its
    # first step
    warm, elasticity = 1.0, None
    # aim most of a tolerance into inflow deficit: solving the shifted
    # residuals to +-0.12 tol lands the true residuals in
    # [-0.97 tol, -0.73 tol], still inside the convergence check, and that
    # sub-critical drift keeps the clipped queues from wandering up over a
    # finite run the way they do at exactly critical load
    bias, aim = 0.85 * tol_rate, 0.12 * tol_rate

    def residuals(mu1: float, mu2: float) -> tuple[float, ...]:
        """The shifted residuals the search steers on, then the point's
        price and its true residuals (c1, c2, c3)."""
        nonlocal warm, elasticity
        balance: dict[float, tuple[float, float]] = {}  # (c1, c2) of each price probe

        def spend(g: float) -> float:
            nonlocal evaluations
            evaluations += 1
            dec = decide_trace(s1, s2, mu1, mu2, g, t, gains=gains)
            balance[g] = balance_residuals(dec)
            return trace_mean(dec.power)

        def band(g: float) -> float:
            """A probe whose true balance residuals miss tol_rate cannot be
            reported, and its c1, c2 barely move with a power error within
            tol_power, so it is priced to tol_power; any other to a quarter."""
            balanced = max(map(abs, balance[g])) <= tol_rate
            return 0.25 * tol_power if balanced else tol_power

        warm, c3, elasticity = match_budget(
            spend, p_total, warm, 0.25 * tol_power, elasticity, band
        )
        c1, c2 = balance[warm]
        return c1 + bias, c2 + bias, warm, c1, c2, c3

    (mu1, mu2), probes = balance_duals(residuals, tol_rate=aim)
    shifted = lambda point: max(map(abs, probes[point][:2]))  # noqa: E731

    def meets(point: tuple[float, float]) -> bool:
        c1, c2, c3 = probes[point][3:]
        return abs(c1) <= tol_rate and abs(c2) <= tol_rate and abs(c3) <= tol_power

    # the solver aims for the tighter biased band, but convergence is
    # judged on the true residuals against the configured tolerances: on
    # short traces the residuals move in coarse per-slot steps and the
    # narrow band can fall between reachable values even though the true
    # residuals sit well inside tolerance, so a search that ends outside
    # the band reports the probe nearest the aim among those that meet
    # the tolerances, if there is one
    if shifted((mu1, mu2)) > aim:
        mu1, mu2 = min(filter(meets, probes), key=shifted, default=(mu1, mu2))
    gamma, c1, c2, c3 = probes[(mu1, mu2)][2:]
    return CalibrationResult(
        thresholds=Thresholds(mu1=mu1, mu2=mu2, gamma=gamma),
        residual_c1=abs(c1),
        residual_c2=abs(c2),
        residual_c3=abs(c3),
        iterations=len(probes),
        evaluations=evaluations,
        converged=meets((mu1, mu2)),
    )


def threshold_region_scan(
    trace: ChannelTrace, p_total: float, mu_values: np.ndarray, tol_rate: float = 0.02
) -> list[tuple[float, float]]:
    """The balanced dual pairs (mu1, mu2), in probe order, among every pair
    from mu_values (each in [0, 1], the boundary values included) probed
    on trace, a short one for speed. Each pair is priced once, solving
    gamma to the power budget to 0.5 %, and judged on the decisions its
    price solve recorded at the price it returned.

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
    t = optimal_time_share(trace.stats)
    balanced = []
    for mu1 in map(float, mu_values):
        for mu2 in map(float, mu_values):
            decided = {}  # the decisions of each price probe

            def spend(g: float) -> float:
                decided[g] = decide_trace(trace.s1, trace.s2, mu1, mu2, g, t, gains=gains)
                return trace_mean(decided[g].power)

            dec = decided[match_budget(spend, p_total, 1.0, 0.005)[0]]
            c1, c2 = balance_residuals(dec)
            sum_rate = trace_mean(dec.down1) + trace_mean(dec.down2)
            if abs(c1) <= tol_rate and abs(c2) <= tol_rate and sum_rate > 0.0:
                balanced.append((mu1, mu2))
    return balanced
