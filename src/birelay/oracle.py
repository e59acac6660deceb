"""Independent brute-force checks for the closed-form slot rule.

Everything here recomputes selection metrics from the raw capacity
formulas and searches them exhaustively, so agreement with the policy
module is evidence rather than tautology: grid searches over transmit
power and a sweep over the decoding time share. Nothing here calibrates
or prices a dual point, so no check shares a code path with calibration.
The 2-D grid of the multiple-access mode is searched by branch and bound
on two levels, bounding blocks and then the sub-blocks of the blocks that
can still hold the maximum, with the same argmax and value as an
exhaustive search; the bounds take (points/40)**2 floats per draw, so the
axis is at most MAX_GRID_POINTS long. The grid searches
take draws in chunks, one row per draw: each stage is one array pass over
the chunk, the log rows are shared by all four modes, and the values are
those of searching each draw alone. Every chunk writes its stages in place
into one workspace, made once per grid_optimality call, so the chunks
neither allocate nor free row arrays.

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
    "MAX_GRID_POINTS",
    "sample_draws",
    "grid_optimality",
    "broadcast_root_residual",
    "time_share_at_boundary",
    "downlink_dominance",
]


_BLOCK = 40  # points per block side in the multiple-access search
_SUB = 8  # points per sub-block side
_PER = _BLOCK // _SUB  # sub-blocks per block side
# grid cells (draws x padded axis) per chunk of grid_optimality: every
# chunk makes about the same number of array calls, so larger chunks make
# fewer per draw, for a larger workspace. At 800 points (40 draws a chunk)
# it is about 2.1 MB, and a chunk allocates under 100 KB beside it
_CHUNK_CELLS = 32_000
# the block bounds of one draw take 2 MB at the longest axis, 20 000 points
MAX_GRID_POINTS = _BLOCK * math.isqrt(2_000_000 // 8)


def _padded(points: int) -> int:
    """Length of an axis of points padded to whole blocks."""
    return -(-points // _BLOCK) * _BLOCK


def _workspace(rows: int, points: int) -> np.ndarray:
    """Scratch for _grid_maxima on up to rows draws of an axis of points, in
    one flat array that every chunk overwrites. Per draw it holds seven row
    arrays over the padded axis; the last three become the multiple-access
    search's scratch, which must also hold the draw's block and sub-block
    maxima, its block bounds, and the cells and operands of a batch of
    _PER**2 sub-blocks."""
    width = _padded(points)
    nb, ns = width // _BLOCK, width // _SUB
    search = 4 * (ns + nb) + nb * nb + _PER**2 * (_SUB**2 + 4 * _SUB)
    return np.empty(rows * (4 * width + max(3 * width, search)))


def _ma_metric(ir, jc, a, out):
    """a*log2(1 + x[i] + y[j]) + row[i] + col[j] at every (i, j), in place
    in out, for each leading index: ir stacks x and row, (2, ..., m), jc
    stacks y and col, (2, ..., n), and a is (...). Each step broadcasts one
    operand, so numpy buffers one at a time."""
    (x, row), (y, col) = ir, jc
    np.copyto(out, x[..., :, None])
    out += y[..., None, :]
    out += 1.0
    np.log2(out, out=out)
    out *= a[..., None, None]
    out += row[..., :, None]
    out += col[..., None, :]
    return out


def _grid_maxima(p, s1, s2, mu1, mu2, gamma, t, work) -> dict:
    """Per selectable mode (1, 2, 3, 6), the grid indices of each draw's best
    powers (one index array per power axis) and the metric there.

    Row d of p is draw d's power axis; the gains, duals, price and decoding
    shares t are 1-D arrays with one entry per row. The log rows are computed
    once, on the axis padded to whole blocks with p = 0, and shared by all
    four modes; no validation. Every stage is written in place into work, a
    _workspace for at least as many draws and points, whose old contents
    do not matter.
    """
    n, points = p.shape
    width = _padded(points)
    cells = n * width
    x, l1, y, l2, gp, u, v = work[: 7 * cells].reshape(7, n, width)
    s1, s2, mu1, mu2, gamma, t = (
        np.asarray(c, dtype=float)[:, None] for c in (s1, s2, mu1, mu2, gamma, t)
    )
    gp[:, :points] = p
    gp[:, points:] = 0.0
    np.multiply(gp, s1, out=x)
    np.multiply(gp, s2, out=y)
    gp *= gamma
    for lg, g in ((l1, x), (l2, y)):
        np.log2(np.add(g, 1.0, out=lg), out=lg)

    def best(vals):
        """Each draw's argmax and value of the metric vals - gp, in place.
        The padding is set to -inf, which never wins, so that np.argmax runs
        on the whole rows and need not copy them out of a partial block."""
        vals -= gp
        vals[:, points:] = -math.inf
        k = np.argmax(vals, axis=1)
        return (k,), vals[np.arange(n), k]

    found = {
        1: best(np.multiply(1.0 - mu1, l1, out=u)),
        2: best(np.multiply(1.0 - mu2, l2, out=u)),
    }
    np.multiply(mu1, l2, out=u)
    found[6] = best(np.add(u, np.multiply(mu2, l1, out=v), out=u))
    a = (1.0 - mu1) * (1.0 - t) + (1.0 - mu2) * t
    # the log rows become the row and column terms of the 2-D metric
    row = np.subtract(np.multiply(t * (mu2 - mu1), l1, out=l1), gp, out=l1)
    col = np.subtract(np.multiply((1.0 - t) * (mu1 - mu2), l2, out=l2), gp, out=l2)
    row[:, points:] = col[:, points:] = -math.inf
    axes = work[: 4 * cells].reshape(2, 2, n, width)  # (x, row), (y, col)
    found[3] = _ma_search(axes, a[:, 0], points, work[4 * cells :])
    return found


def _ma_search(axes, a, points, scratch):
    """Indices (i, j) and value of each draw's best multiple-access metric.

    The metric (1-mu1)*c12r + (1-mu2)*c21r - gamma*(p1+p2), with
    c12r = t*l1 + (1-t)*(lsum - l2) and c21r = (1-t)*l2 + t*(lsum - l1),
    is _ma_metric((x, row), (y, col), a) with x = p*s1, y = p*s2 and a >= 0
    for duals in [0, 1]. axes stacks them as ((x, row), (y, col)), each
    (n, width) with row d for draw d, padded from points to whole blocks
    with x = y = 0 and row = col = -inf, which no grid point can lose to.

    The bound of a block or sub-block is _ma_metric at its largest x, y, row
    and col; all its steps but log2 round monotonically, so only log2's
    last-place error can lift an element over the bound. A block is skipped
    only when its bound plus a 1e-9 relative margin is below a value the
    draw has reached. The search has two levels: it bounds the
    _BLOCK x _BLOCK blocks, evaluates the best-bounded _SUB x _SUB sub-block
    of each draw's best block as the incumbent, bounds the sub-blocks only
    of the blocks that can still beat it, and evaluates the sub-blocks that
    can, in batches of at most _PER**2 per draw. Ties go to the lowest flat
    index, as in np.argmax.

    Every stage writes into scratch, the _workspace beyond the four rows of
    axes: the maxima into its three free rows, then the block bounds, and
    each batch's cells and operands.
    """
    n, width = axes.shape[2:]
    nb, ns = width // _BLOCK, width // _SUB
    draws = np.arange(n)
    # sub-block maxima by three halvings (_SUB = 8), then block maxima
    half = scratch[: 2 * n * width].reshape(2, 2, n, width // 2)
    quarter = scratch[2 * n * width : 3 * n * width].reshape(2, 2, n, width // 4)
    sub_hi = scratch[: 4 * n * ns].reshape(2, 2, n, ns)
    src = axes
    for dst in (half, quarter, sub_hi):
        np.maximum(src[..., 0::2], src[..., 1::2], out=dst)
        src = dst
    parts = sub_hi.reshape(2, 2, n, nb, _PER)
    blk_hi = scratch[4 * n * ns : 4 * n * (ns + nb)].reshape(2, 2, n, nb)
    np.maximum(parts[..., 0], parts[..., 1], out=blk_hi)
    for c in range(2, _PER):
        np.maximum(blk_hi, parts[..., c], out=blk_hi)
    rest = scratch[4 * n * (ns + nb) :]
    bound = _ma_metric(*blk_hi, a, rest[: n * nb * nb].reshape(n, nb, nb))
    bound = bound.reshape(n, nb * nb)
    cells = rest[n * nb * nb : n * (nb * nb + _PER**2 * _SUB**2)]
    operands = rest[n * (nb * nb + _PER**2 * _SUB**2) :]
    # the blocks and sub-blocks of all draws in one index each, d * nb + b
    # and d * ns + s, over their sub-block maxima and their points
    by_block = parts.reshape(2, 2, n * nb, _PER)
    by_sub = axes.reshape(2, 2, n * ns, _SUB)

    def blocks(d, k):
        """Row and column block indices of flat block k of draws d."""
        bi, bj = np.divmod(k, nb)
        return d * nb + bi, d * nb + bj

    def sub_bounds(bi, bj, d):
        """Bounds of the sub-blocks of the blocks at rows bi, columns bj
        of draws d."""
        out = cells[: d.size * _PER**2].reshape(d.size, _PER, _PER)
        return _ma_metric(by_block[0][:, bi], by_block[1][:, bj], a[d], out).reshape(d.size, -1)

    def evaluate(si, sj, d):
        """Best value and its flat grid index in the sub-blocks at rows si,
        columns sj of draws d."""
        m = d.size
        ir, jc = operands[: 4 * m * _SUB].reshape(2, 2, m, _SUB)
        np.take(by_sub[0], si, axis=1, out=ir, mode="clip")
        np.take(by_sub[1], sj, axis=1, out=jc, mode="clip")
        vals = _ma_metric(ir, jc, a[d], cells[: m * _SUB**2].reshape(m, _SUB, _SUB))
        vals = vals.reshape(m, _SUB**2)
        k = np.argmax(vals, axis=1)
        i, j = np.divmod(k, _SUB)
        base = d * ns
        return vals[np.arange(m), k], ((si - base) * _SUB + i) * points + (sj - base) * _SUB + j

    top = np.argmax(bound, axis=1)
    bi, bj = blocks(draws, top)
    first = np.argmax(sub_bounds(bi, bj, draws), axis=1)
    best, at = evaluate(bi * _PER + first // _PER, bj * _PER + first % _PER, draws)
    live = np.flatnonzero(_may_reach(bound, best[:, None]))
    # up to 4 blocks per draw at a time: 4 * _PER**2 sub-blocks to bound,
    # evaluated in slices of at most _PER**2 per draw
    for lo in range(0, live.size, 4 * n):
        d, k = np.divmod(live[lo : lo + 4 * n], nb * nb)
        bi, bj = blocks(d, k)
        sb = sub_bounds(bi, bj, d)
        own = k == top[d]
        sb[own, first[d[own]]] = -math.inf  # the incumbent, evaluated already
        keep = np.flatnonzero(_may_reach(sb, best[d, None]))
        for s in range(0, keep.size, _PER**2 * n):
            kb, k = np.divmod(keep[s : s + _PER**2 * n], _PER**2)
            dk = d[kb]
            value, ij = evaluate(bi[kb] * _PER + k // _PER, bj[kb] * _PER + k % _PER, dk)
            old = best.copy()
            np.maximum.at(best, dk, value)
            at[best > old] = points * points
            won = value == best[dk]
            np.minimum.at(at, dk[won], ij[won])
    return np.divmod(at, points), best


def _may_reach(bound, best):
    """Where bound plus a 1e-9 margin relative to best, added to bound in
    place, is not below best."""
    bound += 1e-9 * (1.0 + np.abs(best))
    return ~(bound < best)


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
    argmax and value is the one a search of that draw alone gives. All
    chunks write their stages into one workspace, made once per call.

    Each draw is checked at the decoding share its dual order favours
    (t = 0 when mu1 >= mu2), the optimal one and the one the policy takes;
    the share is recomputed here, not read from the policy. Raises
    ValueError for fewer than 2 or more than MAX_GRID_POINTS points, no
    draws or draw arrays of unequal length.
    """
    draws = [np.asarray(v, dtype=float) for v in (s1, s2, mu1, mu2, gamma)]
    if points < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {points!r}")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"grid takes at most {MAX_GRID_POINTS} points per axis, got {points!r}")
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
    rows = min(s1.size, max(1, _CHUNK_CELLS // _padded(points)))
    work = _workspace(rows, points)  # shared by the chunks
    for lo in range(0, s1.size, rows):
        at = slice(lo, lo + rows)
        p = np.linspace(0.0, 10.0 / gamma[at], points, axis=1)
        found = _grid_maxima(p, s1[at], s2[at], mu1[at], mu2[at], gamma[at], t[at], work)
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

