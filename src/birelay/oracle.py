"""Independent brute-force checks for the closed-form slot rule.

Everything here recomputes selection metrics from the raw capacity
formulas and searches them exhaustively, so agreement with the policy
module is evidence rather than tautology: grid searches over transmit
power, a sweep over the decoding time share, and a feasibility scan over
the dual plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import match_budget, solve_gamma
from .channel import ChannelState, FadingStatistics, check_real, sample_trace
from .policy import Thresholds, balance_residuals, decide_trace, optimal_time_share

__all__ = [
    "GridSpec",
    "grid_max_metric",
    "suggested_grid",
    "t_sweep",
    "ScanPoint",
    "threshold_region_scan",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1-D search grid (used per power axis)."""

    lo: float
    hi: float
    points: int

    def __post_init__(self) -> None:
        if self.lo < 0.0 or not self.hi > self.lo:
            raise ValueError("grid must satisfy 0 <= lo < hi")
        if self.points < 100:
            raise ValueError("grid needs at least 100 points")

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


def suggested_grid(ch: ChannelState, th: Thresholds, points: int = 2000) -> GridSpec:
    """Grid wide enough to contain any mode's optimal power for this slot:
    the water levels scale with 1/gamma and with inverse gains."""
    smin = min(ch.s1, ch.s2)
    hi = 10.0 / th.gamma * max(1.0, 1.0 / smin if smin > 0.0 else 1.0)
    return GridSpec(0.0, min(hi, 1e6), points)


def grid_max_metric(
    mode: int, ch: ChannelState, th: Thresholds, t: float, grid: GridSpec
) -> tuple[tuple[float, ...], float]:
    """Exhaustively maximize one mode's selection metric over its power axes.

    Returns (argmax powers, metric value). Mode 3 searches the full 2-D
    user-power grid; all other modes are 1-D.
    """
    s1, s2 = ch.s1, ch.s2
    mu1, mu2, gamma = th.mu1, th.mu2, th.gamma
    p = grid.axis()
    if mode == 1:
        vals = (1.0 - mu1) * np.log2(1.0 + p * s1) - gamma * p
    elif mode == 2:
        vals = (1.0 - mu2) * np.log2(1.0 + p * s2) - gamma * p
    elif mode == 4:
        vals = mu2 * np.log2(1.0 + p * s1) - gamma * p
    elif mode == 5:
        vals = mu1 * np.log2(1.0 + p * s2) - gamma * p
    elif mode == 6:
        vals = mu1 * np.log2(1.0 + p * s2) + mu2 * np.log2(1.0 + p * s1) - gamma * p
    elif mode == 3:
        if not 0.0 <= t <= 1.0:
            raise ValueError("time share t must lie in [0, 1]")
        g1 = p * s1  # row axis: user 1 power
        g2 = p * s2  # column axis: user 2 power
        l1 = np.log2(1.0 + g1)
        l2 = np.log2(1.0 + g2)
        lsum = np.log2(1.0 + np.add.outer(g1, g2))
        # split rates: c12r = t*l1 + (1-t)*(lsum - l2), c21r mirrors
        c12r = t * l1[:, None] + (1.0 - t) * (lsum - l2[None, :])
        c21r = (1.0 - t) * l2[None, :] + t * (lsum - l1[:, None])
        vals = (1.0 - mu1) * c12r + (1.0 - mu2) * c21r - gamma * np.add.outer(p, p)
        flat = int(np.argmax(vals))
        i, j = np.unravel_index(flat, vals.shape)
        return (float(p[i]), float(p[j])), float(vals[i, j])
    else:
        raise ValueError(f"unknown mode {mode}")
    i = int(np.argmax(vals))
    return (float(p[i]),), float(vals[i])


def t_sweep(
    ch: ChannelState, th: Thresholds, p1: float, p2: float, points: int = 101
) -> tuple[np.ndarray, np.ndarray, float]:
    """Profile the multiple-access metric over the decoding share t at fixed
    user powers. Returns (t grid, metric profile, argmax t). The profile is
    affine in t, so the argmax always sits at an endpoint."""
    if p1 < 0.0 or p2 < 0.0:
        raise ValueError("powers cannot be negative")
    if points < 2:
        raise ValueError("need at least 2 sweep points")
    ts = np.linspace(0.0, 1.0, points)
    g1, g2 = p1 * ch.s1, p2 * ch.s2
    c12r = ts * np.log2(1.0 + g1) + (1.0 - ts) * np.log2(1.0 + g1 / (1.0 + g2))
    c21r = (1.0 - ts) * np.log2(1.0 + g2) + ts * np.log2(1.0 + g2 / (1.0 + g1))
    profile = (1.0 - th.mu1) * c12r + (1.0 - th.mu2) * c21r - th.gamma * (p1 + p2)
    return ts, profile, float(ts[int(np.argmax(profile))])


@dataclass(frozen=True)
class ScanPoint:
    """One probed dual pair: rate-balance residuals at matched power."""

    mu1: float
    mu2: float
    residual_c1: float
    residual_c2: float
    sum_rate: float
    balanced: bool


def threshold_region_scan(
    stats: FadingStatistics,
    p_total: float,
    mu_values: np.ndarray,
    n_slots: int = 2000,
    seed: int = 0,
    tol_rate: float = 0.02,
) -> list[ScanPoint]:
    """Probe dual pairs (including the boundary values 0 and 1) on a short
    trace, matching the power budget at each point by solving for gamma
    to 0.5 %.

    A point is balanced when both relative rate residuals are within
    tol_rate and the delivered sum rate is positive. Boundary dual values
    can never balance: one side of each rate pairing collapses to zero.
    """
    check_real("power budget", p_total, positive=True)
    trace = sample_trace(stats, n_slots, seed)
    s1, s2 = trace.s1, trace.s2
    t = optimal_time_share(stats)
    out = []
    for mu1 in mu_values:
        for mu2 in mu_values:
            mu1f, mu2f = float(mu1), float(mu2)
            _, dec = match_budget(
                lambda resid: solve_gamma(resid, 1.0, 0.005)[0],
                lambda g: decide_trace(s1, s2, mu1f, mu2f, g, t),
                p_total,
            )
            c1, c2 = (abs(c) for c in balance_residuals(dec))
            sum_rate = float(dec.down1.mean()) + float(dec.down2.mean())
            balanced = c1 <= tol_rate and c2 <= tol_rate and sum_rate > 0.0
            out.append(ScanPoint(mu1f, mu2f, c1, c2, sum_rate, balanced))
    return out
