"""Reference capacity formulas for the six transmission modes, one slot
at a time, for the tests.

All rates are in bits per symbol with unit-variance noise, so transmit
powers double as receive SNRs once multiplied by the squared channel gain.
No protocol runs through this module: the trace kernel in birelay.policy
has its own array forms, and the tests check those against these,
validated and written out per slot. A slot is passed as its two squared
gains, read from a trace's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["cap", "PowerTriple", "LinkCapacities", "link_capacities"]


def cap(x):
    """Point-to-point capacity log2(1 + x) for SNR x >= 0. Accepts arrays."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("SNR argument must be nonnegative")
    out = np.log2(1.0 + x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PowerTriple:
    """Per-node transmit powers of one slot; inactive nodes hold 0."""

    p1: float
    p2: float
    pr: float

    def __post_init__(self) -> None:
        if self.p1 < 0.0 or self.p2 < 0.0 or self.pr < 0.0:
            raise ValueError("powers cannot be negative")


@dataclass(frozen=True)
class LinkCapacities:
    """Capacities of every link for one slot's gains and powers.

    c1r / c2r are the single-user uplinks, cr1 / cr2 the two broadcast
    links, cr_sum the multiple-access sum capacity, and c12r / c21r its
    per-user split under time-shared decoding order (fraction t decodes
    user 1 last; interference cancellation removes the already-decoded
    user). c12r + c21r == cr_sum for every t.
    """

    c1r: float
    c2r: float
    cr1: float
    cr2: float
    cr_sum: float
    c12r: float
    c21r: float


def link_capacities(s1: float, s2: float, powers: PowerTriple, t: float) -> LinkCapacities:
    """Evaluate all link capacities for one slot's squared gains s1, s2
    (one entry of a ChannelTrace's arrays, which checked them).

    c12r = t*cap(p1*s1) + (1-t)*cap(p1*s1/(1+p2*s2)); c21r mirrors it with
    the complementary weights, so both are affine in t.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("time share t must lie in [0, 1]")
    g1 = powers.p1 * s1
    g2 = powers.p2 * s2
    return LinkCapacities(
        c1r=cap(g1),
        c2r=cap(g2),
        cr1=cap(powers.pr * s1),
        cr2=cap(powers.pr * s2),
        cr_sum=cap(g1 + g2),
        c12r=t * cap(g1) + (1.0 - t) * cap(g1 / (1.0 + g2)),
        c21r=(1.0 - t) * cap(g2) + t * cap(g2 / (1.0 + g1)),
    )
