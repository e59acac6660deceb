"""Per-slot mode selection and power allocation for the relay network.

The slot rule maximizes a dual-weighted net benefit. Each mode's selection
metric is its instantaneous rate, weighted by the buffer-balance duals
(mu1 for traffic that must leave relay buffer 1, mu2 for buffer 2), minus
gamma times the power the mode spends, evaluated at the mode's own optimal
transmit power. Those optimal powers have water-filling style closed forms;
the broadcast mode's power is the root of a quadratic. The slot then uses
whichever of the two uplink modes, the multiple-access mode, or the
broadcast mode scores highest. The two single-user downlink modes 4 and 5
are always dominated by the broadcast mode (their metric drops one
nonnegative term), so they are never selected and nothing here computes
them; only the oracle's dominance check does.

The whole-trace rule is a kernel built once per trace: TraceGains holds
the gain-only constants and a fixed workspace, and its decide writes every
intermediate in place, picks modes with comparisons and boolean masks, and
assembles the decisions by multiplying values with 0/1 masks instead of
np.where, in fresh output arrays that are bit-identical to the selection.
The workspace stays: a rewrite that allocated each stage's temporaries
afresh gave the same bits at about 1.5x the time per slot, as the C
allocator trimmed and regrew its heap and each call faulted its pages in
anew.

decide runs the multiple-access mode's closed forms only on the slots
where both users transmit, gathered into the leading entries of workspace
rows; mode_table, which the oracle checks, runs them on every slot. On the
other slots the mode's powers are one user's uplink power and 0, so its
rates are that uplink mode's to the last bit (1 + 0*s = 1 and x/1 = x),
its metric equals lambda1 or lambda2 bit for bit, and the slot rule's
strict > gives the tie to the uplink mode: there decide scores mode 3 as
-inf, which loses in the same way, and the decisions are bit-identical.

The multiple-access metric is affine in the decoding share t, with slope
(mu2 - mu1)*(log2(1 + x) + log2(1 + y) - log2(1 + x + y)) at x = p1*s1,
y = p2*s2, so the dual order picks the optimal end: t = 0 when
mu1 >= mu2. The protocol takes its share from its duals by that rule, so
a slot's decision depends on its gains and the duals alone; the raw
kernels take t explicitly and reject any share but 0 and 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channel import ChannelTrace, check_real

__all__ = [
    "SELECTABLE_MODES",
    "Thresholds",
    "TraceDecisions",
    "TraceGains",
    "mode_table",
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
        check_real("mu1", self.mu1)
        check_real("mu2", self.mu2)
        check_real("gamma", self.gamma, positive=True)
        if not (0.0 < self.mu1 < 1.0 and 0.0 < self.mu2 < 1.0):
            raise ValueError("mu1 and mu2 must lie strictly inside (0, 1)")


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
    d1 = trace_mean(dec.down1)
    d2 = trace_mean(dec.down2)
    c1 = (trace_mean(dec.up1) - d2) / max(d2, _EPS)
    c2 = (trace_mean(dec.up2) - d1) / max(d1, _EPS)
    return c1, c2


def trace_mean(x) -> float:
    """float(x.mean()) of a 1-D float array, bit for bit: the sum by
    add.reduce over the count is what np.mean computes, without the
    dispatch that costs more than a 10k-slot sum."""
    return float(np.add.reduce(x)) / len(x)


def _dual_order_share(mu1: float, mu2: float) -> float:
    """The optimal decoding share at the duals: 0 when mu1 >= mu2, else 1."""
    return 0.0 if mu1 >= mu2 else 1.0


# Array kernels shared with the baselines (package-internal, not in __all__).
# They do no validation, and each writes every intermediate into the
# buffers it is given (out, work, flags), or into fresh arrays where it is
# given None: one set of closed forms serves TraceGains.decide, which
# allocates nothing but its outputs, and the allocating callers.


def capacity(x, out=None):
    """log2(1 + x) elementwise."""
    return np.log2(np.add(1.0, x, out=out), out=out)


def wf_power(weight, gamma: float, inv_s, out=None):
    """Single-link water-filling clamp [weight/(gamma*ln2) - inv_s]^+, inv_s = 1/s."""
    return np.maximum(np.subtract(weight / (gamma * _LN2), inv_s, out=out), 0.0, out=out)


def pick(terms, out=None, tmp=None):
    """sum(a * b) over the (a, b) terms. With 0/1 masks b set in at most one
    term per slot it selects without np.where, whose per-slot branches cost
    several arithmetic passes on unpredictable masks: a dropped finite value
    becomes an exact zero, so a kept value survives bit for bit (but for
    -0.0, which would read +0.0; no value picked here is -0.0)."""
    (a, b), *rest = terms
    out = np.multiply(a, b, out=out)
    for a, b in rest:
        out = np.add(out, np.multiply(a, b, out=tmp), out=out)
    return out


def as_float(mask, out=None):
    """A bool mask as 0.0/1.0 in out, which spares each multiply numpy's cast buffer."""
    if out is None:
        return mask.astype(float)
    np.copyto(out, mask)
    return out


def broadcast_power(g, mu1, mu2, gamma, out=None, work=(None,) * 8, flags=(None,) * 2):
    """Optimal broadcast power over the gains g (a TraceGains): the positive
    root of mu2*s1/(1+p*s1) + mu1*s2/(1+p*s2) = gamma*ln2, or 0 when the
    weighted marginal rate at p=0 is already below the power price."""
    s1, s2 = g.s1, g.s2
    a, b, c, sq, x, y, m1, m2 = work
    gl = gamma * _LN2
    a = np.multiply(np.multiply(gl, s1, out=a), s2, out=a)
    x = np.multiply(np.multiply(mu1 + mu2, s1, out=x), s2, out=x)
    b = np.subtract(np.multiply(gl, g.ssum, out=b), x, out=b)
    c = np.subtract(gl, np.multiply(mu1, s2, out=c), out=c)
    c = np.subtract(c, np.multiply(mu2, s1, out=x), out=c)
    x = np.multiply(np.multiply(4.0, a, out=x), c, out=x)
    sq = np.subtract(np.multiply(b, b, out=sq), x, out=sq)
    sq = np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)
    # the root (sq - b)/(2a) written as -2c/(b + sq) where b > 0, so neither
    # form subtracts nearly equal terms (with a = 0, the linear root -c/b)
    up = as_float(np.greater(b, 0.0, out=flags[0]), m1)
    down = as_float(np.logical_not(up, out=flags[1]), m2)
    num = pick(((np.multiply(-2.0, c, out=x), up), (np.subtract(sq, b, out=y), down)), x, y)
    den = pick(((np.add(b, sq, out=b), up), (np.multiply(2.0, a, out=a), down)), b, a)
    # the root where c < 0, else 0; there den > 0 untested: b + sq where
    # b > 0, 2a >= 2gl**3 where b <= 0 (duals in [0, 1]; a underflows only
    # at gl < 1e-108). den + 1 keeps dropped quotients finite
    keep = np.less(c, 0.0, out=flags[0])
    den = np.add(den, as_float(np.logical_not(keep, out=flags[1]), m2), out=den)
    root = np.maximum(np.divide(num, den, out=out), 0.0, out=out)
    return np.multiply(root, as_float(keep, m1), out=out)


def ma_split(s1, s2, p1, p2, t: float, out=(None, None)):
    """Per-user rates (c12r, c21r) of the multiple-access mode at share t.

    A boundary share decodes one user against the other's signal as noise
    (user 1 at t = 0) and the other cleanly; an interior share is the
    affine mix t * (t=1 split) + (1 - t) * (t=0 split), in fresh arrays.
    """
    if t in (0.0, 1.0):
        sa, sb, pa, pb = (s1, s2, p1, p2) if t == 0.0 else (s2, s1, p2, p1)
        ca, cb = out if t == 0.0 else out[::-1]
        clean = np.add(1.0, np.multiply(pb, sb, out=cb), out=cb)  # 1 + pb*sb
        ca = capacity(np.divide(np.multiply(pa, sa, out=ca), clean, out=ca), out=ca)
        cb = np.log2(clean, out=cb)
        return (ca, cb) if t == 0.0 else (cb, ca)
    c12r_0, c21r_0 = ma_split(s1, s2, p1, p2, 0.0)
    c12r_1, c21r_1 = ma_split(s1, s2, p1, p2, 1.0)
    return t * c12r_1 + (1.0 - t) * c12r_0, (1.0 - t) * c21r_0 + t * c21r_1


def best_modes(modes, metrics, best=None, wins=None, code=(None, None)):
    """Per-slot best of the candidate modes' metrics by a running best in
    order: a later mode wins only on a strict >, so ties go to the earliest,
    and a NaN metric raises. Returns the mode per slot and wins, the bool
    masks of the slots each mode takes. metrics may reuse one buffer (each
    is read before the next is made); best, wins and code (two uint8 rows)
    are optional scratch. A given best must be the buffer the first metric
    was written into, as the running best starts there."""
    metrics = iter(metrics)
    first = next(metrics)
    if best is None:
        best = np.array(first, dtype=float)
        wins = np.empty((len(modes),) + best.shape, dtype=bool)
    for gt, lam in zip(wins[1:], metrics):
        np.greater(lam, best, out=gt)
        np.maximum(best, lam, out=best)  # propagates NaN from any candidate
    if np.isnan(best, out=wins[0]).any():
        raise ValueError("selection metric is NaN")
    # a later strict win overrides the earlier ones; the first mode keeps
    # whatever no later mode took
    free = wins[0]
    free.fill(True)
    for gt in wins[:0:-1]:
        np.logical_xor(free, np.logical_and(gt, free, out=gt), out=free)
    mode = pick([(np.uint8(k), w.view(np.uint8)) for k, w in zip(modes, wins)], *code)
    return mode.astype(int), wins


def _ma_regimes(g, mu1, mu2, gamma, t, work=(None,) * 2, flags=(None,) * 3):
    """Bool masks (alone1, alone2, both) of the multiple-access mode's three
    regimes per slot: the mode degenerates to its uplink mode 1 or 2 toward
    whichever user the gains favor (the other user's optimal power would
    clamp at 0), or both users transmit at the interior solution. Share 1
    mirrors share 0 with the users swapped: user a is user 1 at t = 0 and
    user 2 at t = 1, and its own regime is tested first. No other share has
    these closed forms, so any other t is rejected.
    """
    if t not in (0.0, 1.0):
        raise ValueError(f"decoding share t must be 0 or 1, got {t!r}")
    u = (mu1 - mu2) / (gamma * _LN2)
    first = t == 0.0
    sa, sb, mua, mub = (g.s1, g.s2, mu1, mu2) if first else (g.s2, g.s1, mu2, mu1)
    v, x = work
    alone_a, alone_b, both = flags[:3]
    v = np.multiply(u, sa, out=v)
    x = np.add(v, 1.0, out=x) if first else np.subtract(1.0, v, out=x)
    alone_a = np.less_equal(np.multiply(sb, x, out=x), sa, out=alone_a)
    x = np.multiply(sb, 1.0 - mub, out=x)
    alone_b = np.greater_equal(x, np.multiply(sa, 1.0 - mua, out=v), out=alone_b)
    alone_b = np.logical_and(alone_b, np.logical_not(alone_a, out=both), out=alone_b)
    both = np.logical_not(np.logical_or(alone_a, alone_b, out=both), out=both)
    return (alone_a, alone_b, both) if first else (alone_b, alone_a, both)


def _ma_interior(s1, s2, den, inv_b, mu1, mu2, gamma, t, out=(None, None)):
    """Interior powers (p1, p2) of the multiple-access mode, meaningful
    where _ma_regimes finds both users transmitting: [(1 - mua)/gl -
    u*sb/den]^+ for user a and [u*sa/den - inv_b]^+ for user b, with
    gl = gamma*ln2, u = (mu1 - mu2)/gl, den = s1 - s2 and inv_b = 1/sb."""
    gl = gamma * _LN2
    u = (mu1 - mu2) / gl
    first = t == 0.0
    sa, sb, mua = (s1, s2, mu1) if first else (s2, s1, mu2)
    pa, pb = out if first else out[::-1]
    pb = np.divide(np.multiply(u, sa, out=pb), den, out=pb)
    pb = np.maximum(np.subtract(pb, inv_b, out=pb), 0.0, out=pb)
    pa = np.divide(np.multiply(u, sb, out=pa), den, out=pa)
    pa = np.maximum(np.subtract((1.0 - mua) / gl, pa, out=pa), 0.0, out=pa)
    return (pa, pb) if first else (pb, pa)


def _ma_powers(g, mu1, mu2, gamma, t, p1_m1, p2_m2):
    """Jointly optimal user powers (p1_m3, p2_m3) of the multiple-access
    mode on every slot: a user's uplink power p1_m1 or p2_m2 where the mode
    leaves the slot to that user alone, the interior powers where both
    transmit."""
    alone1, alone2, both = map(as_float, _ma_regimes(g, mu1, mu2, gamma, t))
    inv_b = g.inv2 if t == 0.0 else g.inv1
    p1, p2 = _ma_interior(g.s1, g.s2, g.den, inv_b, mu1, mu2, gamma, t)
    return pick(((p1_m1, alone1), (p1, both))), pick(((p2_m2, alone2), (p2, both)))


def _link_powers(g, mu1, mu2, gamma, out=(None,) * 3, work=(None,) * 8, flags=(None,) * 2):
    """Optimal powers (p1_m1, p2_m2, pr_m6) of the one-transmitter modes."""
    p1_m1 = wf_power(1.0 - mu1, gamma, g.inv1, out[0])
    p2_m2 = wf_power(1.0 - mu2, gamma, g.inv2, out[1])
    return p1_m1, p2_m2, broadcast_power(g, mu1, mu2, gamma, out[2], work, flags)


def _link_caps(g, powers, out=(None,) * 4):
    """Capacities (c1r, c2r, cr1, cr2) the one-transmitter modes reach at powers."""
    p1_m1, p2_m2, pr_m6 = powers
    c1r = capacity(np.multiply(p1_m1, g.s1, out=out[0]), out[0])
    c2r = capacity(np.multiply(p2_m2, g.s2, out=out[1]), out[1])
    cr1 = capacity(np.multiply(pr_m6, g.s1, out=out[2]), out[2])
    cr2 = capacity(np.multiply(pr_m6, g.s2, out=out[3]), out[3])
    return c1r, c2r, cr1, cr2


def _metric(terms, gamma, power, out=None, tmp=None):
    """One mode's selection metric: sum(weight * capacity) - gamma * power."""
    return np.subtract(pick(terms, out, tmp), np.multiply(gamma, power, out=tmp), out=out)


def _ma_metric(mu1, mu2, gamma, c12r, c21r, p3, out=None, tmp=None):
    """The multiple-access mode's metric lambda3; p3 = p1_m3 + p2_m3."""
    return _metric(((1.0 - mu1, c12r), (1.0 - mu2, c21r)), gamma, p3, out, tmp)


def _selectable_metrics(mu1, mu2, gamma, powers, caps, lam3, out=(None,) * 3, tmp=None):
    """Metrics lambda1, lambda2, lambda3 and lambda6 of the selectable
    modes, made one at a time but for the given lam3."""
    p1_m1, p2_m2, pr_m6 = powers
    c1r, c2r, cr1, cr2 = caps
    yield _metric(((1.0 - mu1, c1r),), gamma, p1_m1, out[0], tmp)
    yield _metric(((1.0 - mu2, c2r),), gamma, p2_m2, out[1], tmp)
    yield lam3
    yield _metric(((mu1, cr2), (mu2, cr1)), gamma, pr_m6, out[2], tmp)


class TraceGains:
    """One trace's gains, what the slot rule needs of them whatever the
    duals (1/s1 and 1/s2 with 1/0 = +inf, the s1 == s2-safe difference
    s1 - s2, and s1 + s2), and a scratch workspace of nine float and six
    bool rows. Built once per trace, so the hundreds of dual points of a
    calibration each allocate only their decisions and the index of the
    slots where both users transmit in the multiple-access mode, the only
    slots on which decide computes that mode (exact, as the module
    docstring says)."""

    def __init__(self, s1, s2) -> None:
        s1, s2 = (np.atleast_1d(np.asarray(s, dtype=float)) for s in (s1, s2))
        self.s1, self.s2 = s1, s2
        # 1/0 = +inf drives the clamped powers to 0
        inv = [np.divide(1.0, s, out=np.full_like(s, np.inf), where=s > 0.0) for s in (s1, s2)]
        self.inv1, self.inv2 = inv
        self.den = np.where(s1 == s2, 1.0, s1 - s2)  # interior MA regime implies s1 != s2
        self.ssum = s1 + s2
        self._work = None  # made by the first decide

    def decide(self, mu1: float, mu2: float, gamma: float, t: float) -> TraceDecisions:
        """The slot rule over the trace at raw (unvalidated) duals and share
        t in {0, 1}; the fresh outputs serve as scratch until they are filled."""
        shape = self.s1.shape
        if self._work is None:
            self._work = (np.empty((9,) + shape), np.empty((6,) + shape, dtype=bool))
        (p2_m2, pr_m6, c12r, c21r, p3, lam3, best, lam, tmp), flags = self._work
        power, up1, up2, down1, down2 = (np.empty(shape) for _ in range(5))
        scratch = (up1, up2, down1, down2, c12r, c21r, p3, lam3)
        powers = _link_powers(self, mu1, mu2, gamma, (power, p2_m2, pr_m6), scratch, flags)
        # mode 3 on its interior slots only, gathered into the first m
        # entries of rows; elsewhere lambda3 is -inf, which loses as the
        # uplink metric it equals there would lose the tie
        idx = np.flatnonzero(_ma_regimes(self, mu1, mu2, gamma, t, (up1, up2), flags)[2])
        m = len(idx)
        inv_b = self.inv2 if t == 0.0 else self.inv1
        s1, s2, den, inv_b = (
            np.take(x, idx, out=row[:m], mode="clip")
            for x, row in zip((self.s1, self.s2, self.den, inv_b), (up1, up2, down1, down2))
        )
        p1_m3, p2_m3 = _ma_interior(s1, s2, den, inv_b, mu1, mu2, gamma, t, (p3[:m], tmp[:m]))
        c12r, c21r = ma_split(s1, s2, p1_m3, p2_m3, t, (c12r[:m], c21r[:m]))
        p3 = np.add(p1_m3, p2_m3, out=p1_m3)
        lam3.fill(-np.inf)
        np.put(lam3, idx, _ma_metric(mu1, mu2, gamma, c12r, c21r, p3, best[:m], lam[:m]))
        caps = _link_caps(self, powers, (up1, up2, down1, down2))
        lams = _selectable_metrics(mu1, mu2, gamma, powers, caps, lam3, (best, lam, lam), tmp)
        code = flags[4:].view(np.uint8)
        mode, (is1, is2, is3, is6) = best_modes(SELECTABLE_MODES, lams, best, flags[:4], code)
        # each output sums value * mask over the modes that set it, one float
        # mask at a time; a value read for the last time is scaled in place
        # (power, up1, up2, down1 and down2 hold p1_m1, c1r, c2r, cr1, cr2)
        for on, scaled, added in (
            (is1, (power, up1), ()),
            (is2, (up2,), ((power, p2_m2),)),
            (is6, (down1, down2), ((power, pr_m6),)),
        ):
            on = as_float(on, lam)
            for row in scaled:
                row *= on
            for row, value in added:
                row += np.multiply(value, on, out=value)
        # then mode 3's terms, added at its interior slots only: elsewhere
        # its mask is 0, and adding 0 * value leaves a row as it is
        on = as_float(np.take(is3, idx, out=flags[4][:m], mode="clip"), lam[:m])
        for row, value in ((power, p3), (up1, c12r), (up2, c21r)):
            part = np.take(row, idx, out=best[:m], mode="clip")
            np.put(row, idx, np.add(part, np.multiply(value, on, out=value), out=part))
        return TraceDecisions(mode, power, up1, up2, down1, down2)


def mode_table(s1, s2, mu1, mu2, gamma, t: float) -> tuple[dict, dict]:
    """The selectable modes' closed-form optimal powers and selection
    metrics at decoding share t, 0 or 1, elementwise over gains and duals
    (scalars, or arrays of one shape); a scalar comes back as a one-slot
    array. Both dicts are keyed by SELECTABLE_MODES: powers[k] is the tuple
    of mode k's transmitter powers, (p1, p2) for mode 3, and metrics[k] is
    mode k's metric."""
    g = TraceGains(s1, s2)
    powers = p1_m1, p2_m2, pr_m6 = _link_powers(g, mu1, mu2, gamma)
    p1_m3, p2_m3 = _ma_powers(g, mu1, mu2, gamma, t, p1_m1, p2_m2)
    lam3 = _ma_metric(mu1, mu2, gamma, *ma_split(g.s1, g.s2, p1_m3, p2_m3, t), p1_m3 + p2_m3)
    metrics = _selectable_metrics(mu1, mu2, gamma, powers, _link_caps(g, powers), lam3)
    by_mode = ((p1_m1,), (p2_m2,), (p1_m3, p2_m3), (pr_m6,))
    return dict(zip(SELECTABLE_MODES, by_mode)), dict(zip(SELECTABLE_MODES, metrics))


def proposed_policy(th: Thresholds, stats=None) -> Callable[[ChannelTrace], TraceDecisions]:
    """Wrap calibrated thresholds as a whole-trace policy. Each slot's
    decision depends on its own gains only: buffer balance is enforced
    through the duals, not through the buffer levels, and the decoding
    share is the one the duals' order picks. stats has no effect; it is
    accepted so that callers written when the share came from the fading
    means still run."""
    t = _dual_order_share(th.mu1, th.mu2)

    def _decide(trace: ChannelTrace) -> TraceDecisions:
        return decide_trace(trace.s1, trace.s2, th.mu1, th.mu2, th.gamma, t)

    return _decide


def decide_trace(s1, s2, mu1, mu2, gamma, t, gains: TraceGains | None = None) -> TraceDecisions:
    """Vectorized decisions over gain arrays with raw (unvalidated) duals.

    Used by calibration, which must be able to probe dual values that the
    Thresholds type rejects; t must be 0 or 1. gains, the TraceGains of
    (s1, s2), carries its constants and workspace from call to call; it is
    built here when not given.
    """
    if gains is None:
        gains = TraceGains(s1, s2)
    elif gains.s1 is not s1 or gains.s2 is not s2:
        raise ValueError("gains were built from other gain arrays")
    return gains.decide(mu1, mu2, gamma, t)
