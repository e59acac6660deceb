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
* fixed_power_six_mode: per-slot selection among modes 1, 2, 3 and 6 by
  the dual-weighted metrics without the power term, every transmitter at
  one common power, scaled so the average spent power meets the budget
  (the multiple-access mode spends double). Modes 4 and 5 never win: at one
  power the broadcast mode's metric exceeds theirs by mu1*c2r and mu2*c1r.
* fixed_power_three_mode: the same over the two single-user uplinks and
  the broadcast mode; one node transmits per slot, so the common power is
  the budget outright.

The fixed cycle is computed by slot role: uplink 1, uplink 2 and the
broadcast each get their powers and capacities on their own slots only.
It is delay limited: a frame's uplink traffic leaves the relay in that
frame's broadcast slot, never later, so each uplink slot carries the
minimum of its own capacity and that broadcast slot's capacity toward
its destination, and the relay buffers drain every frame. A trailing
partial frame has no broadcast slot, so its uplinks carry nothing. That
cap costs tdbc_pa more than tdbc_no_pa: water-filling each slot on its
own rarely powers both an uplink slot and its frame's broadcast slot,
and the cap keeps the smaller of the two, so tdbc_pa delivers less at
every budget of the default sweep.

Each preparation takes the trace the policy will run on, the budget and
its tolerance, and solves whatever else it needs (a water-filling price,
a common power, buffer duals) on that trace. The fixed-power variants
solve their buffer-balance duals with calibrate.balance_duals, the dual
solver of the proposed protocol with its dual-point budget, over
capacities computed once per common power, and read convergence off its
probe record. Each dual search starts from the last one's duals; one
that does not balance from there runs once more from (0.5, 0.5), the
search's own start; where neither balances, the duals of the one that
came closer by calibrate.imbalance are reported. Between dual searches,
and once more after a dual search that fails, the six-mode variant
rescales its common power by the power residual recorded at the duals
found.
"""

from __future__ import annotations

import numpy as np

from .calibrate import balance_duals, imbalance, match_budget
from .channel import ChannelTrace, check_real, check_tolerance
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
    trace_mean,
    wf_power,
)

__all__ = ["KINDS", "tdbc_policy", "fixed_power_policy"]

_TDBC_KINDS = ("tdbc_no_pa", "tdbc_pa")
_FIXED_KINDS = ("fixed_power_six_mode", "fixed_power_three_mode")
KINDS = _TDBC_KINDS + _FIXED_KINDS

_ROUNDS = 8  # cap on the six-mode rounds of dual search and power rescale


def _tdbc_decisions(g: TraceGains, p_total: float, gamma: float | None) -> TraceDecisions:
    """The fixed cycle over a trace's gains g: every active node at the full
    budget when gamma is None, water-filled at price gamma otherwise.

    Each role is computed on its own slots only: uplink 1 on 0::3, uplink 2
    on 1::3, the broadcast on 2::3. Each complete frame caps its uplink
    slots at its own broadcast slot's capacity toward their destination; a
    trailing partial frame has no broadcast slot, so its uplink slots spend
    power but carry nothing."""
    n = len(g.s1)
    u1, u2, b = slice(0, None, 3), slice(1, None, 3), slice(2, None, 3)
    relay = TraceGains(g.s1[b], g.s2[b])
    if gamma is None:
        power = np.full(n, p_total)
    else:
        power = np.empty(n)
        power[u1] = wf_power(1.0, gamma, g.inv1[u1])
        power[u2] = wf_power(1.0, gamma, g.inv2[u2])
        power[b] = broadcast_power(relay, 1.0, 1.0, gamma)
    up1, up2, down1, down2 = (np.zeros(n) for _ in range(4))
    down1[b] = capacity(power[b] * relay.s1)
    down2[b] = capacity(power[b] * relay.s2)
    f = len(relay.s1)  # complete frames
    up1[u1][:f] = np.minimum(capacity(power[u1][:f] * g.s1[u1][:f]), down2[b])
    up2[u2][:f] = np.minimum(capacity(power[u2][:f] * g.s2[u2][:f]), down1[b])
    return TraceDecisions(np.tile([1, 2, 6], n // 3 + 1)[:n], power, up1, up2, down1, down2)


def tdbc_policy(kind: str, trace: ChannelTrace, p_total: float, tol_power: float) -> PreparedPolicy:
    """Prepare a fixed-cycle policy at budget p_total; the PA variant solves
    for its shared water-filling price on the given trace, to tol_power.
    Both variants cap each uplink slot's rate at its frame's broadcast-slot
    capacity, since the cycle carries nothing across frames."""
    if kind not in _TDBC_KINDS:
        raise ValueError(f"kind must be one of {_TDBC_KINDS}, got {kind!r}")
    check_real("power budget", p_total, positive=True)
    check_tolerance("tol_power", tol_power)
    if kind == "tdbc_no_pa":
        gamma, fixed, converged = None, p_total, True
    else:
        gains = TraceGains(trace.s1, trace.s2)
        spend = lambda g: trace_mean(_tdbc_decisions(gains, p_total, g).power)  # noqa: E731
        gamma, resid, _ = match_budget(spend, p_total, 1.0, 0.25 * tol_power)
        fixed, converged = None, abs(resid) <= tol_power

    def decide(tr: ChannelTrace) -> TraceDecisions:
        return _tdbc_decisions(TraceGains(tr.s1, tr.s2), p_total, gamma)

    return PreparedPolicy(decide, None, None, gamma, fixed, converged)


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
        down1=of((6, c1r)),
        down2=of((6, c2r)),
    )


def fixed_power_policy(
    kind: str, trace: ChannelTrace, p_total: float, tol_rate: float
) -> PreparedPolicy:
    """Prepare a fixed-power selective policy at budget p_total, calibrating
    its buffer duals (and, for the six-mode variant, the common power) on
    the given trace.

    Each round computes the capacities once at its power, so a dual point
    costs one selection step, and runs balance_duals over them from the
    last round's duals; those are only a guess, so a search from them that
    does not balance runs once more from (0.5, 0.5), unless it started
    there, and where neither balances the round keeps the duals of the
    one with the smaller calibrate.imbalance (the warm start's on a tie),
    which prefers a probe that schedules both directions. It ends the
    loop when the buffers balance and the power
    residual r at the returned duals is within 1e-4, when the dual search
    fails, or after _ROUNDS rounds; otherwise the next round runs at
    power / (1 + r). The three-mode power is the budget, spent exactly in
    one round. The returned power is the one its duals were solved at,
    except where a six-mode dual search fails: the loop then still
    rescales the power to power / (1 + r), so the point spends about the
    budget, not r off it. converged means both balance residuals meet
    tol_rate and the power meets the budget to 1e-4 at the power the
    duals were solved at; a failed point is never converged."""
    if kind not in _FIXED_KINDS:
        raise ValueError(f"kind must be one of {_FIXED_KINDS}, got {kind!r}")
    check_real("power budget", p_total, positive=True)
    check_tolerance("tol_rate", tol_rate)
    six = kind == "fixed_power_six_mode"
    modes = (1, 2, 3, 6) if six else (1, 2, 6)
    # even time share keeps the two multiple-access splits statistically
    # symmetric; a boundary share pins one direction's inflow behind
    # interference, which no dual choice can rebalance at vanishing SNR
    t = 0.5

    def measure(a: float, b: float) -> tuple[float, float, float]:
        """Balance residuals and power residual of a dual point at the round's power."""
        dec = _fixed_select(caps, a, b, power, modes)
        return (*balance_residuals(dec), (trace_mean(dec.power) - p_total) / p_total)

    mu1, mu2, r = 0.5, 0.5, 0.0
    # the six-mode power starts near where its rescales land (~0.6 x)
    power = p_total / 1.66 if six else p_total
    for _ in range(_ROUNDS):
        # spent power is power x (1 + multiple-access share), so this power
        # spends the budget with the last round's mode shares
        power /= 1.0 + r
        caps = _fixed_caps(trace.s1, trace.s2, power, modes, t)
        searched = []  # (not balanced, imbalance, duals, power residual) per search
        for start in dict.fromkeys([(mu1, mu2), (0.5, 0.5)]):
            point, probes = balance_duals(measure, tol_rate=tol_rate, start=start)
            c1, c2, r = probes[point]
            searched.append((max(abs(c1), abs(c2)) > tol_rate, imbalance(probes[point]), point, r))
            if not searched[-1][0]:
                break
        unbalanced, _, (mu1, mu2), r = min(searched, key=lambda s: s[:2])
        converged = not unbalanced and abs(r) <= 1e-4
        if unbalanced and six:
            # no later round can balance, but the rescale still brings the
            # spend at the duals found close to the budget
            power /= 1.0 + r
        if converged or unbalanced:
            break

    def decide(tr: ChannelTrace) -> TraceDecisions:
        return _fixed_select(_fixed_caps(tr.s1, tr.s2, power, modes, t), mu1, mu2, power, modes)

    return PreparedPolicy(decide, mu1, mu2, None, power, converged)
