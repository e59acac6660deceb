"""Baseline protocols the adaptive slot rule is compared against.

Deliberately simple, budget-matched stand-ins for the usual reference
schemes:

* tdbc_no_pa: a fixed three-slot cycle (uplink 1, uplink 2, broadcast),
  every active node at the full budget. One node transmits per slot, so
  the average spent power equals the budget by construction.
* tdbc_pa: the same cycle with per-slot water-filling. User slots fill
  against their own link; the broadcast slot fills against the sum of the
  two downlink capacities (the two-link generalization of the same clamp).
  One shared price is solved for so the average spent power meets the budget.
* fixed_power_six_mode: per-slot selection among all six modes by the
  dual-weighted metrics without the power term, every transmitter at one
  common power, scaled so the average spent power meets the budget (the
  multiple-access mode spends double).
* fixed_power_three_mode: the same over the two single-user uplinks and
  the broadcast mode; one node transmits per slot, so the common power is
  the budget outright.

The fixed cycle is delay limited: a frame's uplink traffic leaves the
relay in that frame's broadcast slot, never later, so each uplink slot
carries the minimum of its own capacity and that broadcast slot's
capacity toward its destination, and the relay buffers drain every frame.

The fixed-power variants solve their buffer-balance duals with
calibrate.balance_duals, the dual solver of the proposed protocol, over
capacities cached per common power; the six-mode variant alternates it
with a budget solve of the common power.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .calibrate import balance_duals, find_root, match_budget
from .channel import ChannelTrace, check_real
from .engine import PreparedPolicy
from .policy import (
    TraceDecisions,
    TraceGains,
    balance_residuals,
    best_modes,
    broadcast_power,
    capacity,
    ma_split,
    pick,
    wf_power,
)

__all__ = ["KINDS", "BenchmarkConfig", "tdbc_policy", "fixed_power_policy"]

KINDS = ("tdbc_no_pa", "tdbc_pa", "fixed_power_six_mode", "fixed_power_three_mode")

# fixed cycle position (slot index mod 3) -> mode: broadcast, uplink 1, uplink 2
_TDBC_MODES = np.array([6, 1, 2])
# cap on the dual points one fixed-power dual solve evaluates
_MAX_POINTS = 200


@dataclass(frozen=True)
class BenchmarkConfig:
    """Benchmark selection plus its power budget. Whatever else a baseline
    needs (a water-filling price, a common power, buffer duals) its
    preparation solves on the trace."""

    kind: str
    p_total: float

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        check_real("power budget", self.p_total, positive=True)


def _tdbc_frame_rates(
    s1: np.ndarray,
    s2: np.ndarray,
    p_user1: np.ndarray,
    p_user2: np.ndarray,
    p_relay: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """End-to-end rate each uplink slot can push through its own frame's
    broadcast slot. A trailing partial frame has no broadcast slot, so its
    uplink slots carry nothing."""
    n = len(s1)
    cycle = np.arange(1, n + 1) % 3
    up1 = np.zeros(n)
    up2 = np.zeros(n)
    i1 = np.flatnonzero(cycle == 1)
    i1 = i1[i1 + 2 < n]
    up1[i1] = np.minimum(capacity(p_user1[i1] * s1[i1]), capacity(p_relay[i1 + 2] * s2[i1 + 2]))
    i2 = np.flatnonzero(cycle == 2)
    i2 = i2[i2 + 1 < n]
    up2[i2] = np.minimum(capacity(p_user2[i2] * s2[i2]), capacity(p_relay[i2 + 1] * s1[i2 + 1]))
    return up1, up2


def _tdbc_decisions(g: TraceGains, p_total: float, gamma: float | None) -> TraceDecisions:
    """The fixed cycle over a trace's gains g: every active node at the full
    budget when gamma is None, water-filled at price gamma otherwise."""
    s1, s2 = g.s1, g.s2
    n = len(s1)
    if gamma is None:
        p_user1 = p_user2 = p_relay = np.full(n, p_total)
    else:
        p_user1 = wf_power(1.0, gamma, g.inv1)
        p_user2 = wf_power(1.0, gamma, g.inv2)
        p_relay = broadcast_power(g, 1.0, 1.0, gamma)
    up1, up2 = _tdbc_frame_rates(s1, s2, p_user1, p_user2, p_relay)
    cycle = np.arange(1, n + 1) % 3
    bc = cycle == 0
    return TraceDecisions(
        mode=_TDBC_MODES[cycle],
        power=np.where(cycle == 1, p_user1, np.where(cycle == 2, p_user2, p_relay)),
        up1=up1,
        up2=up2,
        down1=np.where(bc, capacity(p_relay * s1), 0.0),
        down2=np.where(bc, capacity(p_relay * s2), 0.0),
    )


def tdbc_policy(
    cfg: BenchmarkConfig, trace: ChannelTrace, tol_power: float = 0.005
) -> PreparedPolicy:
    """Prepare a fixed-cycle policy; the PA variant solves for its shared
    water-filling price on the given trace. Both variants cap each uplink
    slot's rate at its frame's broadcast-slot capacity, since the cycle
    carries nothing across frames."""
    if cfg.kind not in ("tdbc_no_pa", "tdbc_pa"):
        raise ValueError("not a fixed-cycle benchmark kind")
    if cfg.kind == "tdbc_no_pa":
        gamma, fixed, converged = None, cfg.p_total, True
    else:
        gains = TraceGains(trace.s1, trace.s2)

        decide_at = lambda g: _tdbc_decisions(gains, cfg.p_total, g)  # noqa: E731
        gamma, resid, _ = match_budget(decide_at, cfg.p_total, 1.0, 0.25 * tol_power)
        fixed, converged = None, abs(resid) <= tol_power

    def decide(tr: ChannelTrace) -> TraceDecisions:
        return _tdbc_decisions(TraceGains(tr.s1, tr.s2), cfg.p_total, gamma)

    return PreparedPolicy(cfg.kind, decide, None, None, gamma, fixed, converged)


def _fixed_caps(s1, s2, power: float, modes: tuple, t: float) -> tuple:
    """Capacity step of the fixed-power rule (no duals): both direct links
    at the common power and, if mode 3 is a candidate, the split at share t."""
    c12r, c21r = ma_split(s1, s2, power, power, t) if 3 in modes else (0.0, 0.0)
    return capacity(power * s1), capacity(power * s2), c12r, c21r


def _fixed_select(caps: tuple, mu1, mu2, power: float, modes: tuple) -> TraceDecisions:
    """Selection step: per slot, the candidate mode with the largest
    dual-weighted rate (no power term), ties to the earliest; the outputs
    are assembled where-free, as in the slot rule."""
    c1r, c2r, c12r, c21r = caps
    lam = {  # made one at a time, so at most two are held
        1: lambda: (1.0 - mu1) * c1r,
        2: lambda: (1.0 - mu2) * c2r,
        3: lambda: (1.0 - mu1) * c12r + (1.0 - mu2) * c21r,
        4: lambda: mu2 * c1r,
        5: lambda: mu1 * c2r,
        6: lambda: mu1 * c2r + mu2 * c1r,
    }
    mode, wins = best_modes(modes, (lam[k]() for k in modes))
    on = dict(zip(modes, wins))

    def of(*pairs):
        """The value of the slot's mode among (mode, value) pairs, else 0."""
        return pick([(value, on[k]) for k, value in pairs if k in on])

    return TraceDecisions(
        mode=mode,
        power=of(*((k, 2.0 * power if k == 3 else power) for k in modes)),
        up1=of((1, c1r), (3, c12r)),
        up2=of((2, c2r), (3, c21r)),
        down1=of((4, c1r), (6, c1r)),
        down2=of((5, c2r), (6, c2r)),
    )


def _fixed_eval(s1, s2, mu1, mu2, power: float, modes: tuple, t: float) -> TraceDecisions:
    """Fixed-power selection over a whole trace: capacity step, then selection step."""
    return _fixed_select(_fixed_caps(s1, s2, power, modes, t), mu1, mu2, power, modes)


def fixed_power_policy(
    cfg: BenchmarkConfig, trace: ChannelTrace, tol_rate: float = 0.01
) -> PreparedPolicy:
    """Prepare a fixed-power selective policy, calibrating its buffer duals
    (and, for the six-mode variant, the common power) on the given trace.

    Each power's capacities are computed once, so a dual point costs one
    selection step. balance_duals solves the duals at a fixed power; the
    six-mode variant alternates that with a budget solve of the power at
    fixed duals, each starting from the other's result, until the buffers
    balance at the new power, and stops early when a dual solve fails or
    after 8 rounds. The three-mode power is the budget. converged: at the
    returned point both balance residuals meet tol_rate and a solved power
    meets the budget to 1e-4."""
    if cfg.kind not in ("fixed_power_six_mode", "fixed_power_three_mode"):
        raise ValueError("not a fixed-power benchmark kind")
    six = cfg.kind == "fixed_power_six_mode"
    modes = (1, 2, 3, 4, 5, 6) if six else (1, 2, 6)
    s1, s2 = trace.s1, trace.s2
    # even time share keeps the two multiple-access splits statistically
    # symmetric; a boundary share pins one direction's inflow behind
    # interference, which no dual choice can rebalance at vanishing SNR
    t = 0.5
    # spent power lies between the common power and twice it (at most two
    # nodes transmit at once), so [0.45, 1.05] x budget brackets its root
    lo, hi = 0.45 * cfg.p_total, 1.05 * cfg.p_total
    within = lambda r: abs(r) <= 1e-4  # noqa: E731
    held: dict[float, tuple] = {}  # capacities at the bracket ends and the latest power

    def caps(p: float) -> tuple:
        if p not in held:
            for q in set(held) - {lo, hi}:
                del held[q]
            held[p] = _fixed_caps(s1, s2, p, modes, t)
        return held[p]

    @functools.cache
    def measure(mu1: float, mu2: float, p: float) -> tuple[float, float, float]:
        """Balance residuals and relative power residual of one point."""
        dec = _fixed_select(caps(p), mu1, mu2, p, modes)
        return (*balance_residuals(dec), (float(dec.power.mean()) - cfg.p_total) / cfg.p_total)

    mu1, mu2 = 0.5, 0.5
    # the six-mode power starts near where its budget solves land (~0.6 x)
    power = cfg.p_total / 1.66 if six else cfg.p_total
    for _ in range(8 if six else 1):
        at_power = lambda a, b: measure(a, b, power)[:2]  # noqa: E731
        mu1, mu2, *_, converged = balance_duals(
            at_power, tol_rate=tol_rate, max_points=_MAX_POINTS, start=(mu1, mu2)
        )
        if not (converged and six):
            break
        at = lambda p: measure(mu1, mu2, p)[2]  # noqa: E731
        power = find_root(at, lo, at(lo), hi, at(hi), within, xtol=0.0, max_steps=60)[0]
        c1, c2, spent = measure(mu1, mu2, power)
        balanced = abs(c1) <= tol_rate and abs(c2) <= tol_rate
        converged = balanced and within(spent)
        if balanced:
            break

    def decide(tr: ChannelTrace) -> TraceDecisions:
        return _fixed_eval(tr.s1, tr.s2, mu1, mu2, power, modes, t)

    return PreparedPolicy(cfg.kind, decide, mu1, mu2, None, power, converged)
