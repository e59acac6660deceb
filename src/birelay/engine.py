"""Whole-trace simulation of the relay's two buffers under any policy.

A policy is any callable ChannelTrace -> TraceDecisions. Every protocol
here decides each slot from that slot's gains and its calibrated constants
alone, never from the buffer levels, so the engine asks for the whole
trace's decisions at once. Each buffer then follows Lindley's recursion
q' = max(q + a - c, 0) (arrivals a, service capacity c), which is solved
for the whole trace in closed form. Delivered downlink rates are clipped to
what the buffers actually hold, so a run can never deliver bits that were
not first received.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ChannelTrace
from .policy import TraceDecisions

__all__ = ["RateReport", "ProtocolPolicy", "PreparedPolicy", "run"]

ProtocolPolicy = Callable[[ChannelTrace], TraceDecisions]


@dataclass(frozen=True)
class RateReport:
    """Averages of one run. r_1r / r_2r are rates into the relay buffers,
    r_r1 / r_r2 delivered rates out of them; sum_rate = r_r1 + r_r2 counts
    only delivered traffic. mode_freq is indexed by mode-1. q1 and q2 are
    the relay buffers' final levels in bits/symbol units (q1 holds user-1
    traffic awaiting delivery to user 2, q2 the reverse)."""

    r_1r: float
    r_2r: float
    r_r1: float
    r_r2: float
    sum_rate: float
    avg_power: float
    mode_freq: tuple[float, float, float, float, float, float]
    q1: float
    q2: float
    n_slots: int


@dataclass(frozen=True)
class PreparedPolicy:
    """A ready-to-run protocol with the constants it was calibrated to:
    buffer duals, power price, and common transmit power, each None where
    the protocol has none."""

    decide: ProtocolPolicy
    mu1: float | None
    mu2: float | None
    gamma: float | None
    fixed_power: float | None
    converged: bool


def _lindley(arrive: np.ndarray, serve: np.ndarray) -> tuple[float, float, float]:
    """Arrived total, final level and delivered total of one buffer that
    starts empty.

    q_k = max(q_{k-1} + a_k - c_k, 0) unrolls to q_k = S_k - min(0, min_{j<=k} S_j)
    with S = A - C, A = cumsum(a) and C = cumsum(c); whatever arrived and is
    not left over was delivered. The final level is S_n when S never falls
    below zero, else the tail sum after j = argmin S, where the level is 0:
    (A_n - A_j) - (C_n - C_j). Only the slots after j enter it, so a buffer
    served before its only arrival keeps exactly that arrival and delivers
    0, and a buffer that is never served delivers exactly 0. The level is
    at most A_n - A_j <= A_n (A and C never fall, as the flows run admits
    are nonnegative) and is clamped at zero against rounding, so
    0 <= delivered <= arrived holds exactly.
    """
    arrived, served = np.cumsum(arrive), np.cumsum(serve)
    s = arrived - served
    total = float(arrived[-1])
    j = int(np.argmin(s))
    if s[j] < 0.0:
        q = max(float((arrived[-1] - arrived[j]) - (served[-1] - served[j])), 0.0)
    else:
        q = float(s[-1])
    return total, q, total - q


def run(trace: ChannelTrace, policy: ProtocolPolicy) -> RateReport:
    """Simulate the whole trace from empty buffers and report averages.

    Buffer 1 takes up1 in and serves down2; buffer 2 takes up2 in and
    serves down1. A slot that serves both users serves each from the level
    its buffer held at the start of the slot.
    """
    n = len(trace)
    dec = policy(trace)
    mode = np.asarray(dec.mode)
    flows = (dec.power, dec.up1, dec.up2, dec.down1, dec.down2)
    if any(np.shape(a) != (n,) for a in (mode,) + flows):
        raise ValueError(f"decision arrays must all have the trace length {n}")
    if not np.issubdtype(mode.dtype, np.integer) or mode.min() < 1 or mode.max() > 6:
        raise ValueError("modes must be integers in 1..6")
    if not all(np.all(a >= 0.0) for a in flows):
        raise ValueError("decided rates and powers must be nonnegative")
    in1, q1, out2 = _lindley(dec.up1, dec.down2)
    in2, q2, out1 = _lindley(dec.up2, dec.down1)
    counts = np.bincount(mode, minlength=7)[1:]
    return RateReport(
        r_1r=in1 / n,
        r_2r=in2 / n,
        r_r1=out1 / n,
        r_r2=out2 / n,
        sum_rate=(out1 + out2) / n,
        avg_power=float(dec.power.mean()),
        mode_freq=tuple(int(c) / n for c in counts),
        q1=q1,
        q2=q2,
        n_slots=n,
    )
