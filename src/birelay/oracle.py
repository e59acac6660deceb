"""Independent brute-force checks for the closed-form slot rule.

Everything here recomputes selection metrics from the raw capacity
formulas and searches them exhaustively, so agreement with the policy
module is evidence rather than tautology: grid searches over transmit
power and a sweep over the decoding time share. Nothing here calibrates
or prices a dual point, so no check shares a code path with calibration.
The 2-D grid of the multiple-access mode is searched by branch and bound,
with the same argmax and value as an exhaustive search. The grid searches
take draws in chunks, one row per draw: each stage is one array pass over
the chunk, the log rows are shared by all four modes, and the values are
those of searching each draw alone.

The checks behind `birelay verify` and the acceptance criteria take
arrays of random draws (see sample_draws), one entry per draw, and return
the worst value they found. They read the closed forms through mode_table,
keyed by mode; the dominated modes 4 and 5 are computed only here.
"""

from __future__ import annotations

import math

import numpy as np

from .policy import TraceGains, broadcast_power, mode_table

__all__ = [
    "sample_draws",
    "grid_optimality",
    "broadcast_root_residual",
    "time_share_at_boundary",
    "downlink_dominance",
]


_BLOCK = 40  # points per block side in the multiple-access search
# grid cells (draws x padded axis) per chunk of grid_optimality: each row
# array, 125 KB, stays under glibc's 128 KiB mmap threshold and in cache
_CHUNK_CELLS = 16_000


def _ma_metric(x, y, a, row, col):
    """a*log2(1 + x[i] + y[j]) + row[i] + col[j] at every (i, j), in place,
    for each leading index: x, row are (..., m), y, col (..., n), a (...)."""
    vals = x[..., :, None] + y[..., None, :]
    vals += 1.0
    np.log2(vals, out=vals)
    vals *= a[..., None, None]
    vals += row[..., :, None]
    vals += col[..., None, :]
    return vals


def _grid_maxima(p, s1, s2, mu1, mu2, gamma, t) -> dict:
    """Per selectable mode (1, 2, 3, 6), the grid indices of each draw's best
    powers (one index array per power axis) and the metric there.

    Row d of p is draw d's power axis; the gains, duals, price and decoding
    shares t are 1-D arrays with one entry per row. The log rows are computed
    once, on the axis padded to whole blocks with p = 0, and shared by all
    four modes; no validation.
    """
    n, points = p.shape
    s1, s2, mu1, mu2, gamma, t = (
        np.asarray(v, dtype=float)[:, None] for v in (s1, s2, mu1, mu2, gamma, t)
    )
    gp = np.zeros((n, -(-points // _BLOCK) * _BLOCK))
    gp[:, :points] = p
    x, y = gp * s1, gp * s2
    gp *= gamma
    l1, l2 = np.log2(1.0 + x), np.log2(1.0 + y)

    def best(vals):
        k = np.argmax(vals[:, :points], axis=1)
        return (k,), vals[np.arange(n), k]

    found = {
        1: best((1.0 - mu1) * l1 - gp),
        2: best((1.0 - mu2) * l2 - gp),
        6: best(mu1 * l2 + mu2 * l1 - gp),
    }
    a = (1.0 - mu1) * (1.0 - t) + (1.0 - mu2) * t
    row = t * (mu2 - mu1) * l1 - gp
    col = (1.0 - t) * (mu1 - mu2) * l2 - gp
    del l1, l2, gp  # a chunk's peak memory is its count of live row arrays
    row[:, points:] = col[:, points:] = -math.inf
    found[3] = _ma_search(x, y, a[:, 0], row, col, points)
    return found


def _ma_search(x, y, a, row, col, points):
    """Indices (i, j) and value of each draw's best multiple-access metric.

    The metric (1-mu1)*c12r + (1-mu2)*c21r - gamma*(p1+p2), with
    c12r = t*l1 + (1-t)*(lsum - l2) and c21r = (1-t)*l2 + t*(lsum - l1),
    is _ma_metric(x, y, a, row, col) with x = p*s1, y = p*s2 and a >= 0 for
    duals in [0, 1]; row d of x, y, row and col belongs to draw d, padded
    from points to whole blocks with x = y = 0 and row = col = -inf, which
    no grid point can lose to. A block's bound is _ma_metric at its largest
    x, y, row and col; all its steps but log2 round monotonically, so only
    log2's last-place error can lift an element over the bound. Each draw
    runs its blocks in falling bound order until the next bound plus a 1e-9
    relative margin is below its best; ties go to the lowest flat index, as
    in np.argmax. All draws run together, one block each per round.
    """
    n, nb = x.shape[0], x.shape[1] // _BLOCK
    starts = np.arange(0, x.shape[1], _BLOCK)
    hi = (np.maximum.reduceat(v, starts, axis=1) for v in (x, y, row, col))
    x_hi, y_hi, row_hi, col_hi = hi
    bound = _ma_metric(x_hi, y_hi, a, row_hi, col_hi).reshape(n, nb * nb)
    order = np.argsort(bound, axis=1)[:, ::-1]
    xb, yb, rb, cb = (v.reshape(n, nb, _BLOCK) for v in (x, y, row, col))
    best, at = np.full(n, -math.inf), np.zeros(n, dtype=np.intp)
    live = np.arange(n)
    for r in range(nb * nb):
        k = order[live, r]
        go = ~(bound[live, k] + 1e-9 * (1.0 + np.abs(best[live])) < best[live])
        live, k = live[go], k[go]
        if live.size == 0:
            break
        bi, bj = np.divmod(k, nb)
        vals = _ma_metric(xb[live, bi], yb[live, bj], a[live], rb[live, bi], cb[live, bj])
        vals = vals.reshape(live.size, _BLOCK * _BLOCK)
        k = np.argmax(vals, axis=1)
        value = vals[np.arange(live.size), k]
        i, j = np.divmod(k, _BLOCK)
        ij = (bi * _BLOCK + i) * points + bj * _BLOCK + j
        won = (value > best[live]) | ((value == best[live]) & (ij < at[live]))
        best[live[won]], at[live[won]] = value[won], ij[won]
    return np.divmod(at, points), best


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
    cannot hold the maximum are skipped. Draws are searched in chunks of
    at most _CHUNK_CELLS grid cells, one array pass per stage, and every
    argmax and value is the one a search of that draw alone gives.

    Each draw is checked at the decoding share its dual order favours
    (t = 0 when mu1 >= mu2), the optimal one; the policy fixes its share
    from the fading means, which agrees where the link with the larger
    fading mean also has the larger dual. Raises ValueError for
    fewer than 2 points, no draws or draw arrays of unequal length.
    """
    draws = [np.asarray(v, dtype=float) for v in (s1, s2, mu1, mu2, gamma)]
    if points < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {points!r}")
    if len({v.shape for v in draws}) != 1 or draws[0].ndim != 1:
        raise ValueError("draws must be 1-D arrays of one length")
    if draws[0].size == 0:
        raise ValueError("no draws to check")
    s1, s2, mu1, mu2, gamma = draws
    t = np.where(mu1 >= mu2, 0.0, 1.0)
    (powers, metrics), (powers1, metrics1) = (
        mode_table(s1, s2, mu1, mu2, gamma, share) for share in (0.0, 1.0)
    )
    # mode 3 at each draw's own share; modes 1, 2 and 6 do not depend on
    # the share, so both tables hold the same values for them
    powers[3] = [np.where(t == 0.0, *q) for q in zip(powers[3], powers1[3])]
    metrics[3] = np.where(t == 0.0, metrics[3], metrics1[3])
    gaps, steps = [], [0.0]
    rows = max(1, _CHUNK_CELLS // (-(-points // _BLOCK) * _BLOCK))
    for lo in range(0, s1.size, rows):
        at = slice(lo, lo + rows)
        p = np.linspace(0.0, 10.0 / gamma[at], points, axis=1)
        found = _grid_maxima(p, s1[at], s2[at], mu1[at], mu2[at], gamma[at], t[at])
        for mode, (where, value) in found.items():
            gaps.append(np.max(value - metrics[mode][at]))
            for q, k in zip(powers[mode], where):
                steps.append(np.max(np.abs(q[at] - p[np.arange(k.size), k]) / p[:, 1]))
    return float(np.max(gaps)), float(np.max(steps))


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

