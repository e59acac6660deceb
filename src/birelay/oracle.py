"""Independent brute-force checks for the closed-form slot rule.

Everything here recomputes selection metrics from the raw capacity
formulas and searches them exhaustively, so agreement with the policy
module is evidence rather than tautology: grid searches over transmit
power, a sweep over the decoding time share, and a feasibility scan over
the dual plane. The 2-D grid of the multiple-access mode is searched by
branch and bound, with the same argmax and value as an exhaustive search.

The checks behind `birelay verify` and the acceptance criteria take
arrays of random draws (see sample_draws), one entry per draw, and return
the worst value they found. They read the closed forms through mode_table,
keyed by mode; the dominated modes 4 and 5 are computed only here.
"""

from __future__ import annotations

import math

import numpy as np

from .calibrate import match_budget
from .channel import ChannelTrace, check_real, check_tolerance
from .policy import (
    SELECTABLE_MODES,
    TraceGains,
    balance_residuals,
    broadcast_power,
    decide_trace,
    mode_table,
    optimal_time_share,
)

__all__ = [
    "sample_draws",
    "grid_optimality",
    "broadcast_root_residual",
    "time_share_at_boundary",
    "downlink_dominance",
    "threshold_region_scan",
]


def _grid_search(mode, p, s1, s2, mu1, mu2, gamma, t):
    """Grid indices of one selectable mode's (1, 2, 3 or 6) best powers on
    axis p (one index per power axis) and the metric there; no validation."""
    if mode == 3:
        return _ma_search(p, s1, s2, mu1, mu2, gamma, t)
    if mode == 6:
        vals = mu1 * np.log2(1.0 + p * s2) + mu2 * np.log2(1.0 + p * s1) - gamma * p
    else:
        weight, s = {1: (1.0 - mu1, s1), 2: (1.0 - mu2, s2)}[mode]
        vals = weight * np.log2(1.0 + p * s) - gamma * p
    k = int(np.argmax(vals))
    return (k,), vals[k]


_BLOCK = 40  # points per block side in the multiple-access search


def _ma_metric(x, y, a, row, col):
    """a*log2(1 + x[i] + y[j]) + row[i] + col[j] at every (i, j), in place."""
    vals = np.add.outer(x, y)
    vals += 1.0
    np.log2(vals, out=vals)
    vals *= a
    vals += row[:, None]
    vals += col[None, :]
    return vals


def _ma_search(p, s1, s2, mu1, mu2, gamma, t):
    """Indices (i, j) and value of the best multiple-access metric on p x p.

    The metric (1-mu1)*c12r + (1-mu2)*c21r - gamma*(p1+p2), with
    c12r = t*l1 + (1-t)*(lsum - l2) and c21r = (1-t)*l2 + t*(lsum - l1),
    is _ma_metric(x, y, a, row, col) with x = p*s1, y = p*s2 and a >= 0 for
    duals in [0, 1]. A block's bound is _ma_metric at its largest x, y, row
    and col; all its steps but log2 round monotonically, so only log2's
    last-place error can lift an element over the bound. Blocks run in
    falling bound order until the next bound plus a 1e-9 relative margin is
    below the best; ties go to the lowest flat index, as in np.argmax.
    """
    x, y = p * s1, p * s2
    a = (1.0 - mu1) * (1.0 - t) + (1.0 - mu2) * t
    row = t * (mu2 - mu1) * np.log2(1.0 + x) - gamma * p
    col = (1.0 - t) * (mu1 - mu2) * np.log2(1.0 + y) - gamma * p
    starts = np.arange(0, p.size, _BLOCK)
    x_hi, y_hi, row_hi, col_hi = (np.maximum.reduceat(v, starts) for v in (x, y, row, col))
    bound = _ma_metric(x_hi, y_hi, a, row_hi, col_hi)
    best, at = -math.inf, (0, 0)
    for k in np.argsort(bound, axis=None)[::-1]:
        if bound.flat[k] + 1e-9 * (1.0 + abs(best)) < best:
            break
        rows, cols = (slice(b * _BLOCK, (b + 1) * _BLOCK) for b in divmod(int(k), starts.size))
        vals = _ma_metric(x[rows], y[cols], a, row[rows], col[cols])
        i, j = divmod(int(np.argmax(vals)), vals.shape[1])
        ij = (rows.start + i, cols.start + j)
        if vals[i, j] > best or (vals[i, j] == best and ij < at):
            best, at = vals[i, j], ij
    return at, best


def _t_profile(s1, s2, mu1, mu2, gamma, p1, p2, ts):
    """Multiple-access metric at decoding shares ts; gains and duals may be
    column arrays, giving one profile row per draw."""
    g1, g2 = p1 * s1, p2 * s2
    c12r = ts * np.log2(1.0 + g1) + (1.0 - ts) * np.log2(1.0 + g1 / (1.0 + g2))
    c21r = (1.0 - ts) * np.log2(1.0 + g2) + ts * np.log2(1.0 + g2 / (1.0 + g1))
    return (1.0 - mu1) * c12r + (1.0 - mu2) * c21r - gamma * (p1 + p2)


def sample_draws(rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
    """n random slots (s1, s2, mu1, mu2, gamma) as arrays, drawn one slot at
    a time: mu1, mu2 ~ U(0.05, 0.95), gamma ~ U(0.05, 2), s1, s2 ~ Exp(1)."""
    rows = [
        (*rng.uniform(0.05, 0.95, 2), rng.uniform(0.05, 2.0), *rng.exponential(1.0, 2))
        for _ in range(n)
    ]
    mu1, mu2, gamma, s1, s2 = np.array(rows, dtype=float).reshape(n, 5).T
    return s1, s2, mu1, mu2, gamma


def grid_optimality(s1, s2, mu1, mu2, gamma, points: int) -> tuple[float, float]:
    """Worst grid advantage (grid maximum minus closed-form metric) and worst
    argmax offset in grid steps of the closed-form powers of modes 1, 2, 3
    and 6 against a grid search on [0, 10/gamma] per power axis. Exact:
    same argmax and value as an exhaustive search; blocks that provably
    cannot hold the maximum are skipped.

    Each draw is checked at the decoding share its dual order favours
    (t = 0 when mu1 >= mu2): the share the policy picks when the link with
    the larger fading mean also has the larger dual.
    """
    tables = {t: mode_table(s1, s2, mu1, mu2, gamma, t) for t in (0.0, 1.0)}
    worst_gap, worst_step = -math.inf, 0.0
    for i, t in enumerate(np.where(mu1 >= mu2, 0.0, 1.0)):
        powers, metrics = tables[t]
        p = np.linspace(0.0, 10.0 / gamma[i], points)
        for mode in SELECTABLE_MODES:
            at, value = _grid_search(mode, p, s1[i], s2[i], mu1[i], mu2[i], gamma[i], t)
            worst_gap = max(worst_gap, value - metrics[mode][i])
            steps = (abs(q[i] - p[k]) / p[1] for q, k in zip(powers[mode], at))
            worst_step = max(worst_step, *steps)
    return float(worst_gap), float(worst_step)


def broadcast_root_residual(s1, s2, mu1, mu2, gamma) -> tuple[float, int]:
    """Worst relative residual of broadcast_power in its stationarity
    equation mu2*s1/(1+p*s1) + mu1*s2/(1+p*s2) = gamma*ln2 over the draws
    where the power is positive, and the number of those draws."""
    pr = broadcast_power(TraceGains(s1, s2), mu1, mu2, gamma)
    target = gamma * math.log(2.0)
    lhs = mu2 * s1 / (1.0 + pr * s1) + mu1 * s2 / (1.0 + pr * s2)
    worst = np.max(np.abs(lhs - target) / target, where=pr > 0.0, initial=0.0)
    return float(worst), int(np.count_nonzero(pr > 0.0))


def time_share_at_boundary(s1, s2, mu1, mu2, gamma) -> bool:
    """Whether every draw's multiple-access metric, profiled over 101
    decoding shares t at unit user powers, peaks at t = 0 or t = 1 (the
    profile is affine in t), and, unless the draw is a tie, at the end the
    dual order picks (0 when mu1 >= mu2). A tie is a profile whose end
    slope is within 1e-9 of zero, as under equal duals or a dead link:
    flat to rounding, so np.argmax may take either end."""
    ts = np.linspace(0.0, 1.0, 101)
    cols = (np.asarray(x)[:, None] for x in (s1, s2, mu1, mu2, gamma))
    profile = _t_profile(*cols, 1.0, 1.0, ts)
    t_best = ts[np.argmax(profile, axis=1)]
    tie = np.abs(profile[:, -1] - profile[:, 0]) <= 1e-9
    at_end = (t_best == 0.0) | (t_best == 1.0)
    picked = (t_best == np.where(mu1 >= mu2, 0.0, 1.0)) | tie
    return bool(np.all(at_end & picked))


def downlink_dominance(s1, s2, mu1, mu2, gamma) -> float:
    """Worst advantage of a single-user downlink mode over the broadcast
    mode 6, each at its closed-form power, over arrays of draws. Mode 4
    serves user 1 alone out of buffer 2 and mode 5 user 2 out of buffer 1:
    the relay water-fills one link, at power [mu/(gamma*ln2) - 1/s]^+ with
    mu the dual of the buffer it drains (1/0 = +inf)."""
    _, metrics = mode_table(s1, s2, mu1, mu2, gamma, 0.0)
    downlinks = []
    for mu, s in ((mu2, s1), (mu1, s2)):
        inv = np.divide(1.0, s, out=np.full_like(s, np.inf), where=s > 0.0)
        p = np.maximum(mu / (gamma * math.log(2.0)) - inv, 0.0)
        downlinks.append(mu * np.log2(1.0 + p * s) - gamma * p)
    return float(np.max(np.maximum(*downlinks) - metrics[6]))


def threshold_region_scan(
    trace: ChannelTrace, p_total: float, mu_values: np.ndarray, tol_rate: float = 0.02
) -> list[tuple[float, float]]:
    """The balanced dual pairs (mu1, mu2), in probe order, among every pair
    from mu_values (each in [0, 1], the boundary values included) probed
    on trace, a short one for speed, matching the power budget at each
    point by solving for gamma to 0.5 %.

    A point is balanced when both relative rate residuals are within
    tol_rate and the delivered sum rate is positive. Boundary dual values
    can never balance: one side of each rate pairing collapses to zero.
    """
    check_real("power budget", p_total, positive=True)
    check_tolerance("tol_rate", tol_rate)
    mu_values = np.asarray(mu_values, dtype=float)
    if not np.all((mu_values >= 0.0) & (mu_values <= 1.0)):
        raise ValueError(f"mu_values must lie in [0, 1], got {mu_values.tolist()!r}")
    s1, s2 = trace.s1, trace.s2
    gains = TraceGains(s1, s2)
    t = optimal_time_share(trace.stats)
    balanced = []
    for mu1 in mu_values:
        for mu2 in mu_values:
            mu1f, mu2f = float(mu1), float(mu2)
            decide = lambda g: decide_trace(s1, s2, mu1f, mu2f, g, t, gains=gains)  # noqa: E731
            gamma = match_budget(lambda g: float(decide(g).power.mean()), p_total, 1.0, 0.005)[0]
            dec = decide(gamma)
            c1, c2 = (abs(c) for c in balance_residuals(dec))
            sum_rate = float(dec.down1.mean()) + float(dec.down2.mean())
            if c1 <= tol_rate and c2 <= tol_rate and sum_rate > 0.0:
                balanced.append((mu1f, mu2f))
    return balanced
