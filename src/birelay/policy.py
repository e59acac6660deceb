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
term), so they are computed only as diagnostics and never selected.

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
    "mode_powers",
    "selection_metrics",
    "select_mode",
    "proposed_policy",
    "decide_trace",
]

_LN2 = math.log(2.0)

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
    """Optimal per-mode transmit powers for one slot (all clamped at 0)."""

    p1_m1: float
    p2_m2: float
    p1_m3: float
    p2_m3: float
    pr_m4: float
    pr_m5: float
    pr_m6: float


@dataclass(frozen=True)
class SelectionMetrics:
    """Dual-weighted net benefit of each mode at its own optimal power."""

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


def optimal_time_share(stats: FadingStatistics) -> float:
    """Boundary decoding share: 0 when link 1 is the stronger on average."""
    return 0.0 if stats.omega1 >= stats.omega2 else 1.0


def _cap(x):
    return np.log2(1.0 + x)


def _recip(s):
    """1/s elementwise with 1/0 = +inf, which drives clamped powers to 0."""
    s = np.asarray(s, dtype=float)
    return np.where(s > 0.0, 1.0 / np.where(s > 0.0, s, 1.0), np.inf)


def _wf_power(weight, gamma: float, s):
    """Single-link water-filling clamp [weight/(gamma*ln2) - 1/s]^+."""
    return np.maximum(weight / (gamma * _LN2) - _recip(s), 0.0)


def _broadcast_power(s1, s2, mu1: float, mu2: float, gamma: float):
    """Optimal broadcast power: the positive root of
    mu2*s1/(1+p*s1) + mu1*s2/(1+p*s2) = gamma*ln2, or 0 when the weighted
    marginal rate at p=0 is already below the power price."""
    gl = gamma * _LN2
    a = gl * s1 * s2
    b = gl * (s1 + s2) - (mu1 + mu2) * s1 * s2
    c = gl - mu1 * s2 - mu2 * s1
    disc = np.maximum(b * b - 4.0 * a * c, 0.0)
    a_safe = np.where(a > 0.0, a, 1.0)
    b_safe = np.where(b > 0.0, b, 1.0)
    quad = (-b + np.sqrt(disc)) / (2.0 * a_safe)
    lin = -c / b_safe  # one link dead: the quadratic degenerates to b*p + c = 0
    root = np.where(a > 0.0, quad, np.where(b > 0.0, lin, 0.0))
    return np.where(c < 0.0, np.maximum(root, 0.0), 0.0)


def _ma_powers(s1, s2, mu1: float, mu2: float, gamma: float, t: float):
    """Jointly optimal user powers for the multiple-access mode at share t.

    Three regimes per slot: the mode degenerates to single-user operation
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
        p2_int = np.maximum(u * s1 / den - _recip(s2), 0.0)
    else:
        only2 = s1 * (1.0 - u * s2) <= s2
        only1 = ~only2 & (s1 * (1.0 - mu1) >= s2 * (1.0 - mu2))
        p1_int = np.maximum(u * s2 / den - _recip(s1), 0.0)
        p2_int = np.maximum((1.0 - mu2) / gl - u * s1 / den, 0.0)
    p1 = np.where(only1, _wf_power(1.0 - mu1, gamma, s1), np.where(only2, 0.0, p1_int))
    p2 = np.where(only1, 0.0, np.where(only2, _wf_power(1.0 - mu2, gamma, s2), p2_int))
    return p1, p2


def _mode_power_arrays(s1, s2, mu1: float, mu2: float, gamma: float, t: float):
    p1_m1 = _wf_power(1.0 - mu1, gamma, s1)
    p2_m2 = _wf_power(1.0 - mu2, gamma, s2)
    p1_m3, p2_m3 = _ma_powers(s1, s2, mu1, mu2, gamma, t)
    pr_m4 = _wf_power(mu2, gamma, s1)
    pr_m5 = _wf_power(mu1, gamma, s2)
    pr_m6 = _broadcast_power(s1, s2, mu1, mu2, gamma)
    return p1_m1, p2_m2, p1_m3, p2_m3, pr_m4, pr_m5, pr_m6


def _ma_split(s1, s2, p1, p2, t: float):
    """Per-user rates of the multiple-access mode at decoding share t.

    The boundary shares cost two logarithms; an interior share is the
    affine mix t * (t=1 split) + (1 - t) * (t=0 split).
    """
    if t == 0.0:
        return _cap(p1 * s1 / (1.0 + p2 * s2)), _cap(p2 * s2)
    if t == 1.0:
        return _cap(p1 * s1), _cap(p2 * s2 / (1.0 + p1 * s1))
    c12r_0, c21r_0 = _ma_split(s1, s2, p1, p2, 0.0)
    c12r_1, c21r_1 = _ma_split(s1, s2, p1, p2, 1.0)
    return t * c12r_1 + (1.0 - t) * c12r_0, (1.0 - t) * c21r_0 + t * c21r_1


def _metric_arrays(s1, s2, mu1, mu2, gamma, t, powers):
    p1_m1, p2_m2, p1_m3, p2_m3, pr_m4, pr_m5, pr_m6 = powers
    c12r, c21r = _ma_split(s1, s2, p1_m3, p2_m3, t)
    lam1 = (1.0 - mu1) * _cap(p1_m1 * s1) - gamma * p1_m1
    lam2 = (1.0 - mu2) * _cap(p2_m2 * s2) - gamma * p2_m2
    lam3 = (1.0 - mu1) * c12r + (1.0 - mu2) * c21r - gamma * (p1_m3 + p2_m3)
    lam4 = mu2 * _cap(pr_m4 * s1) - gamma * pr_m4
    lam5 = mu1 * _cap(pr_m5 * s2) - gamma * pr_m5
    lam6 = mu1 * _cap(pr_m6 * s2) + mu2 * _cap(pr_m6 * s1) - gamma * pr_m6
    return lam1, lam2, lam3, lam4, lam5, lam6


def mode_powers(ch: ChannelState, th: Thresholds, stats: FadingStatistics) -> ModePowers:
    """Closed-form optimal transmit power of every mode for one slot."""
    t = optimal_time_share(stats)
    vals = _mode_power_arrays(ch.s1, ch.s2, th.mu1, th.mu2, th.gamma, t)
    return ModePowers(*(float(v) for v in vals))


def selection_metrics(
    ch: ChannelState, th: Thresholds, powers: ModePowers, t: float
) -> SelectionMetrics:
    """Selection metric of every mode at its optimal power and share t."""
    vals = _metric_arrays(
        ch.s1,
        ch.s2,
        th.mu1,
        th.mu2,
        th.gamma,
        t,
        (
            powers.p1_m1,
            powers.p2_m2,
            powers.p1_m3,
            powers.p2_m3,
            powers.pr_m4,
            powers.pr_m5,
            powers.pr_m6,
        ),
    )
    return SelectionMetrics(*(float(v) for v in vals))


def select_mode(metrics: SelectionMetrics) -> int:
    """Pick the best mode among 1, 2, 3 and 6; ties go to the lowest index."""
    vals = (metrics.lambda1, metrics.lambda2, metrics.lambda3, metrics.lambda6)
    if any(math.isnan(v) for v in vals):
        raise ValueError("selection metric is NaN")
    best = 0
    for i in range(1, 4):
        if vals[i] > vals[best]:
            best = i
    return SELECTABLE_MODES[best]


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
    powers = _mode_power_arrays(s1, s2, mu1, mu2, gamma, t)
    p1_m1, p2_m2, p1_m3, p2_m3, _, _, pr_m6 = powers
    lam1, lam2, lam3, _, _, lam6 = _metric_arrays(s1, s2, mu1, mu2, gamma, t, powers)
    stack = np.stack([lam1, lam2, lam3, lam6])
    if np.isnan(stack).any():
        raise ValueError("selection metric is NaN")
    idx = np.argmax(stack, axis=0)  # first max wins: ties go to the lowest mode
    mode = np.asarray(SELECTABLE_MODES)[idx]
    c1r = _cap(p1_m1 * s1)
    c2r = _cap(p2_m2 * s2)
    c12r, c21r = _ma_split(s1, s2, p1_m3, p2_m3, t)
    is1, is2, is3, is6 = (mode == 1), (mode == 2), (mode == 3), (mode == 6)
    up1 = np.where(is1, c1r, 0.0) + np.where(is3, c12r, 0.0)
    up2 = np.where(is2, c2r, 0.0) + np.where(is3, c21r, 0.0)
    down1 = np.where(is6, _cap(pr_m6 * s1), 0.0)
    down2 = np.where(is6, _cap(pr_m6 * s2), 0.0)
    power = (
        np.where(is1, p1_m1, 0.0)
        + np.where(is2, p2_m2, 0.0)
        + np.where(is3, p1_m3 + p2_m3, 0.0)
        + np.where(is6, pr_m6, 0.0)
    )
    return TraceDecisions(mode=mode, power=power, up1=up1, up2=up2, down1=down1, down2=down2)
