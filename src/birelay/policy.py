"""Per-slot mode selection and power allocation for the relay network.

The slot rule maximizes a dual-weighted net benefit. Each mode's selection
metric is its instantaneous rate, weighted by the buffer-balance duals
(mu1 for traffic that must leave relay buffer 1, mu2 for buffer 2), minus
gamma times the power the mode spends, evaluated at the mode's own optimal
transmit power. Those optimal powers have water-filling style closed forms;
the broadcast mode's power is the root of a quadratic. The slot then uses
whichever of the two uplink modes, the multiple-access mode, or the
broadcast mode scores highest. The two single-user downlink modes are
always dominated by the broadcast mode (their metric drops one nonnegative
term), so they are never selected; only mode_table (and the one-slot
mode_powers and selection_metrics built on it) computes them, for the
dominance check. The one-slot and whole-trace rules share one set of
closed forms.

The multiple-access decoding order never needs interior time sharing: the
metric is affine in the share t, so one of the endpoints t in {0, 1} is
always optimal, and which endpoint wins is fixed by the long-term gain
ordering rather than per slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channel import ChannelState, ChannelTrace, FadingStatistics

__all__ = [
    "SELECTABLE_MODES",
    "Thresholds",
    "ModePowers",
    "SelectionMetrics",
    "TraceDecisions",
    "optimal_time_share",
    "mode_table",
    "mode_powers",
    "selection_metrics",
    "select_mode",
    "proposed_policy",
    "decide_trace",
    "balance_residuals",
]

_LN2 = math.log(2.0)
_EPS = 1e-12

# Modes eligible for selection; 4 and 5 are dominated and excluded.
SELECTABLE_MODES = (1, 2, 3, 6)


@dataclass(frozen=True)
class Thresholds:
    """Calibrated duals: buffer-balance weights mu1, mu2 and power price gamma."""

    mu1: float
    mu2: float
    gamma: float

    def __post_init__(self) -> None:
        if not (0.0 < self.mu1 < 1.0 and 0.0 < self.mu2 < 1.0):
            raise ValueError("mu1 and mu2 must lie strictly inside (0, 1)")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class ModePowers:
    """Per-mode transmit powers (optimal ones are clamped at 0): floats for
    one slot, or arrays from mode_table."""

    p1_m1: float
    p2_m2: float
    p1_m3: float
    p2_m3: float
    pr_m4: float
    pr_m5: float
    pr_m6: float


@dataclass(frozen=True)
class SelectionMetrics:
    """Dual-weighted net benefit of each mode at its power: floats for one
    slot, or arrays from mode_table."""

    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    lambda5: float
    lambda6: float


@dataclass(frozen=True, eq=False)
class TraceDecisions:
    """Slot decisions over a whole trace, one array entry per slot (no
    queue clipping).

    mode holds each slot's mode (1..6). up1/up2 are the rates entering relay
    buffers 1 and 2. down1/down2 are the relay's link capacities toward
    users 1 and 2 in every slot that serves that user: modes 4 and 6 serve
    user 1 out of buffer 2, modes 5 and 6 serve user 2 out of buffer 1;
    they are zero elsewhere. power is the total spent power.
    """

    mode: np.ndarray = field(repr=False)
    power: np.ndarray = field(repr=False)
    up1: np.ndarray = field(repr=False)
    up2: np.ndarray = field(repr=False)
    down1: np.ndarray = field(repr=False)
    down2: np.ndarray = field(repr=False)


def balance_residuals(dec: TraceDecisions) -> tuple[float, float]:
    """Relative (inflow - service) of buffers 1 and 2 over the decisions,
    without queue clipping."""
    d1 = float(dec.down1.mean())
    d2 = float(dec.down2.mean())
    c1 = (float(dec.up1.mean()) - d2) / max(d2, _EPS)
    c2 = (float(dec.up2.mean()) - d1) / max(d1, _EPS)
    return c1, c2


def optimal_time_share(stats: FadingStatistics) -> float:
    """Boundary decoding share: 0 when link 1 is the stronger on average."""
    return 0.0 if stats.omega1 >= stats.omega2 else 1.0


# Array kernels shared with the baselines (package-internal, not in __all__).
# They do no validation: calibration runs them hundreds of times.


def capacity(x):
    """log2(1 + x) elementwise; rate.cap is the validated per-slot form."""
    return np.log2(1.0 + x)


def recip(s):
    """1/s elementwise with 1/0 = +inf, which drives clamped powers to 0."""
    s = np.asarray(s, dtype=float)
    return np.where(s > 0.0, 1.0 / np.where(s > 0.0, s, 1.0), np.inf)


def wf_power(weight, gamma: float, inv_s):
    """Single-link water-filling clamp [weight/(gamma*ln2) - inv_s]^+, inv_s = 1/s."""
    return np.maximum(weight / (gamma * _LN2) - inv_s, 0.0)


def broadcast_power(s1, s2, mu1: float, mu2: float, gamma: float):
    """Optimal broadcast power: the positive root of
    mu2*s1/(1+p*s1) + mu1*s2/(1+p*s2) = gamma*ln2, or 0 when the weighted
    marginal rate at p=0 is already below the power price."""
    gl = gamma * _LN2
    a = gl * s1 * s2
    b = gl * (s1 + s2) - (mu1 + mu2) * s1 * s2
    c = gl - mu1 * s2 - mu2 * s1
    sq = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
    # the root (sq - b)/(2a) written as -2c/(b + sq) where b > 0, so neither
    # form subtracts nearly equal terms; with one link dead (a = 0) the
    # second form is the linear root -c/b
    num = np.where(b > 0.0, -2.0 * c, sq - b)
    den = np.where(b > 0.0, b + sq, 2.0 * a)
    root = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return np.where(c < 0.0, np.maximum(root, 0.0), 0.0)


def ma_split(s1, s2, p1, p2, t: float):
    """Per-user rates of the multiple-access mode at decoding share t.

    The boundary shares cost two logarithms; an interior share is the
    affine mix t * (t=1 split) + (1 - t) * (t=0 split).
    """
    if t == 0.0:
        return capacity(p1 * s1 / (1.0 + p2 * s2)), capacity(p2 * s2)
    if t == 1.0:
        return capacity(p1 * s1), capacity(p2 * s2 / (1.0 + p1 * s1))
    c12r_0, c21r_0 = ma_split(s1, s2, p1, p2, 0.0)
    c12r_1, c21r_1 = ma_split(s1, s2, p1, p2, 1.0)
    return t * c12r_1 + (1.0 - t) * c12r_0, (1.0 - t) * c21r_0 + t * c21r_1


def best_modes(modes, metrics):
    """Per-slot best of the candidate modes' metrics by a running best in
    order: a later mode wins only on a strict >, so ties go to the earliest."""
    best = metrics[0]
    mode = np.full(np.shape(best), modes[0])
    for k, lam in zip(modes[1:], metrics[1:]):
        mode = np.where(lam > best, k, mode)
        best = np.maximum(best, lam)  # propagates NaN from any candidate
    if np.isnan(best).any():
        raise ValueError("selection metric is NaN")
    return mode


def _ma_powers(s1, s2, mu1, mu2, gamma, t, inv1, inv2, p1_m1, p2_m2):
    """Jointly optimal user powers for the multiple-access mode at share t.

    Three regimes per slot: the mode degenerates to its uplink mode 1 or 2
    toward whichever user the gains favor (the other user's optimal power
    would clamp at 0), or both users transmit at the interior solution.
    """
    gl = gamma * _LN2
    u = (mu1 - mu2) / gl
    den = np.where(s1 == s2, 1.0, s1 - s2)  # interior regime implies s1 != s2
    if t == 0.0:
        only1 = s2 * (u * s1 + 1.0) <= s1
        only2 = ~only1 & (s2 * (1.0 - mu2) >= s1 * (1.0 - mu1))
        p1_int = np.maximum((1.0 - mu1) / gl - u * s2 / den, 0.0)
        p2_int = np.maximum(u * s1 / den - inv2, 0.0)
    else:
        only2 = s1 * (1.0 - u * s2) <= s2
        only1 = ~only2 & (s1 * (1.0 - mu1) >= s2 * (1.0 - mu2))
        p1_int = np.maximum(u * s2 / den - inv1, 0.0)
        p2_int = np.maximum((1.0 - mu2) / gl - u * s1 / den, 0.0)
    p1 = np.where(only1, p1_m1, np.where(only2, 0.0, p1_int))
    p2 = np.where(only1, 0.0, np.where(only2, p2_m2, p2_int))
    return p1, p2


def _selectable_powers(s1, s2, mu1, mu2, gamma, t):
    """Optimal powers (p1_m1, p2_m2, p1_m3, p2_m3, pr_m6) of the selectable modes."""
    inv1, inv2 = recip(s1), recip(s2)
    p1_m1 = wf_power(1.0 - mu1, gamma, inv1)
    p2_m2 = wf_power(1.0 - mu2, gamma, inv2)
    p1_m3, p2_m3 = _ma_powers(s1, s2, mu1, mu2, gamma, t, inv1, inv2, p1_m1, p2_m2)
    return p1_m1, p2_m2, p1_m3, p2_m3, broadcast_power(s1, s2, mu1, mu2, gamma)


def _selectable_metrics(s1, s2, mu1, mu2, gamma, t, powers):
    """Metrics (lambda1, lambda2, lambda3, lambda6) of the selectable modes at
    their powers, and the capacities (c1r, c2r, c12r, c21r, cr1, cr2) behind them."""
    p1_m1, p2_m2, p1_m3, p2_m3, pr_m6 = powers
    c1r = capacity(p1_m1 * s1)
    c2r = capacity(p2_m2 * s2)
    c12r, c21r = ma_split(s1, s2, p1_m3, p2_m3, t)
    cr1 = capacity(pr_m6 * s1)
    cr2 = capacity(pr_m6 * s2)
    lams = (
        (1.0 - mu1) * c1r - gamma * p1_m1,
        (1.0 - mu2) * c2r - gamma * p2_m2,
        (1.0 - mu1) * c12r + (1.0 - mu2) * c21r - gamma * (p1_m3 + p2_m3),
        mu1 * cr2 + mu2 * cr1 - gamma * pr_m6,
    )
    return lams, (c1r, c2r, c12r, c21r, cr1, cr2)


def mode_table(
    s1, s2, mu1, mu2, gamma, t: float, powers: ModePowers | None = None
) -> tuple[ModePowers, SelectionMetrics]:
    """Every mode's power and selection metric at decoding share t,
    elementwise over gains and duals (scalars, or arrays of one shape).

    Without powers each mode runs at its closed-form optimal power; with
    them the metrics are scored at the given powers.
    """
    if powers is None:
        *uplink, pr_m6 = _selectable_powers(s1, s2, mu1, mu2, gamma, t)
        pr_m4 = wf_power(mu2, gamma, recip(s1))
        pr_m5 = wf_power(mu1, gamma, recip(s2))
        powers = ModePowers(*uplink, pr_m4, pr_m5, pr_m6)
    own = (powers.p1_m1, powers.p2_m2, powers.p1_m3, powers.p2_m3, powers.pr_m6)
    (lam1, lam2, lam3, lam6), _ = _selectable_metrics(s1, s2, mu1, mu2, gamma, t, own)
    lam4 = mu2 * capacity(powers.pr_m4 * s1) - gamma * powers.pr_m4
    lam5 = mu1 * capacity(powers.pr_m5 * s2) - gamma * powers.pr_m5
    return powers, SelectionMetrics(lam1, lam2, lam3, lam4, lam5, lam6)


def _floats(table):
    """The same record with every field a Python float."""
    return type(table)(*(float(v) for v in vars(table).values()))


def mode_powers(ch: ChannelState, th: Thresholds, stats: FadingStatistics) -> ModePowers:
    """Closed-form optimal transmit power of every mode for one slot."""
    t = optimal_time_share(stats)
    powers, _ = mode_table(ch.s1, ch.s2, th.mu1, th.mu2, th.gamma, t)
    return _floats(powers)


def selection_metrics(
    ch: ChannelState, th: Thresholds, powers: ModePowers, t: float
) -> SelectionMetrics:
    """Selection metric of every mode at the given powers and share t."""
    _, metrics = mode_table(ch.s1, ch.s2, th.mu1, th.mu2, th.gamma, t, powers)
    return _floats(metrics)


def select_mode(metrics: SelectionMetrics) -> int:
    """Pick the best mode among 1, 2, 3 and 6; ties go to the lowest index."""
    vals = (metrics.lambda1, metrics.lambda2, metrics.lambda3, metrics.lambda6)
    return int(best_modes(SELECTABLE_MODES, vals))


def proposed_policy(
    th: Thresholds, stats: FadingStatistics
) -> Callable[[ChannelTrace], TraceDecisions]:
    """Wrap calibrated thresholds as a whole-trace policy. Each slot's
    decision depends on its own gains only: buffer balance is enforced
    through the duals, not through the buffer levels."""
    t = optimal_time_share(stats)

    def _decide(trace: ChannelTrace) -> TraceDecisions:
        return decide_trace(trace.s1, trace.s2, th.mu1, th.mu2, th.gamma, t)

    return _decide


def decide_trace(
    s1: np.ndarray, s2: np.ndarray, mu1: float, mu2: float, gamma: float, t: float
) -> TraceDecisions:
    """Vectorized decisions over gain arrays with raw (unvalidated) duals.

    Used by calibration and region scans, which must be able to probe
    boundary dual values that the Thresholds type rejects.
    """
    powers = _selectable_powers(s1, s2, mu1, mu2, gamma, t)
    p1_m1, p2_m2, p1_m3, p2_m3, pr_m6 = powers
    lams, caps = _selectable_metrics(s1, s2, mu1, mu2, gamma, t, powers)
    c1r, c2r, c12r, c21r, cr1, cr2 = caps
    mode = best_modes(SELECTABLE_MODES, lams)
    is1, is2, is3, is6 = (mode == k for k in SELECTABLE_MODES)
    # exactly one branch holds per slot, so nested selection adds no terms
    return TraceDecisions(
        mode=mode,
        power=np.where(is1, p1_m1, np.where(is2, p2_m2, np.where(is3, p1_m3 + p2_m3, pr_m6))),
        up1=np.where(is1, c1r, np.where(is3, c12r, 0.0)),
        up2=np.where(is2, c2r, np.where(is3, c21r, 0.0)),
        down1=np.where(is6, cr1, 0.0),
        down2=np.where(is6, cr2, 0.0),
    )
