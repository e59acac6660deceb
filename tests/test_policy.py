"""Slot rule: closed-form powers, selection metrics, mode choice."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birelay.channel import FadingStatistics, sample_trace
from birelay.oracle import _grid_maxima, downlink_dominance
from birelay.policy import (
    SELECTABLE_MODES,
    Thresholds,
    TraceDecisions,
    TraceGains,
    _ma_regimes,
    balance_residuals,
    best_modes,
    broadcast_power,
    decide_trace,
    ma_split,
    mode_table,
    optimal_time_share,
    proposed_policy,
    trace_mean,
)
from rate_reference import PowerTriple, link_capacities

_STATS = FadingStatistics(1.0, 1.0)
_LN2 = math.log(2.0)


def _table(s1, s2, th, t=0.0):
    """mode_table at the thresholds th; scalar gains give one-slot arrays."""
    return mode_table(s1, s2, th.mu1, th.mu2, th.gamma, t)


def _slot_rule_modes(lam):
    """Each slot's mode by an independent argmax over the selectable modes'
    metrics (ties to the first, as in the slot rule)."""
    stacked = np.stack([lam[k] for k in SELECTABLE_MODES])
    return np.array(SELECTABLE_MODES)[np.argmax(stacked, axis=0)]


def test_thresholds_validated():
    with pytest.raises(ValueError):
        Thresholds(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        Thresholds(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        Thresholds(0.5, 0.5, 0.0)


def test_thresholds_reject_non_finite_and_non_numbers():
    # an infinite price used to pass, and the slot rule then found NaN
    # metrics; a string dual used to raise TypeError
    for bad in (
        (0.5, 0.5, float("inf")),
        (0.5, 0.5, float("nan")),
        (float("nan"), 0.5, 1.0),
        ("0.5", 0.5, 1.0),
        (0.5, "0.5", 1.0),
        (0.5, 0.5, "1.0"),
        (0.5, 0.5, True),
    ):
        with pytest.raises(ValueError):
            Thresholds(*bad)


def test_slot_rule_rejects_an_interior_decoding_share():
    # the joint multiple-access powers are solved at t = 0 or 1 only, so
    # any other share would pair them with rates at a share they do not fit
    s1, s2 = np.array([1.0, 0.4]), np.array([0.6, 2.0])
    for t in (0.5, 1e-9, 1.0 - 1e-9, -1.0, 2.0, float("nan")):
        with pytest.raises(ValueError):
            TraceGains(s1, s2).decide(0.4, 0.5, 0.3, t)
        with pytest.raises(ValueError):
            decide_trace(s1, s2, 0.4, 0.5, 0.3, t)
        with pytest.raises(ValueError):
            mode_table(s1, s2, 0.4, 0.5, 0.3, t)


def test_uplink_power_frozen_value():
    # water-filling: (1 - 0.4)/(0.3*ln2) - 1/2
    th = Thresholds(0.4, 0.5, 0.3)
    p, _ = _table(2.0, 1.0, th)
    assert p[1][0][0] == pytest.approx(2.3853900817779268, rel=1e-14)


def test_uplink_power_clamps_to_zero():
    th = Thresholds(0.4, 0.5, 0.3)
    p, _ = _table(0.2, 1.0, th)  # 1/s1 = 5 beats the level
    assert p[1][0][0] == 0.0
    p0, _ = _table(0.0, 1.0, th)  # dead link
    assert p0[1][0][0] == 0.0


def test_broadcast_power_frozen_value():
    th = Thresholds(0.3, 0.6, 0.2)
    p, m = _table(1.0, 2.0, th)
    assert p[6][0][0] == pytest.approx(5.667565036388642, rel=1e-12)
    assert m[6][0] == pytest.approx(1.5961932950885824, rel=1e-12)


def test_broadcast_power_root_residual():
    # whenever the broadcast power is positive it must satisfy the
    # marginal-benefit equation exactly
    rng = np.random.default_rng(8)
    n = 2000
    mu1 = rng.uniform(0.05, 0.95, n)
    mu2 = rng.uniform(0.05, 0.95, n)
    gamma = rng.uniform(0.05, 2.0, n)
    s1 = rng.exponential(1.0, n)
    s2 = rng.exponential(1.0, n)
    (pr,) = mode_table(s1, s2, mu1, mu2, gamma, 0.0)[0][6]
    on = pr > 0.0
    lhs = mu2 * s1 / (1.0 + pr * s1) + mu1 * s2 / (1.0 + pr * s2)
    assert np.all(np.abs(lhs - gamma * _LN2)[on] / (gamma * _LN2)[on] < 1e-8)
    assert np.count_nonzero(on) > n // 2


def test_broadcast_power_equal_gains_closed_form():
    # s1 == s2 == s collapses the root to water-filling with weight mu1+mu2
    th = Thresholds(0.35, 0.25, 0.4)
    s = np.array([0.5, 1.0, 3.0])
    p, _ = _table(s, s, th)
    want = np.maximum((th.mu1 + th.mu2) / (th.gamma * _LN2) - 1.0 / s, 0.0)
    assert p[6][0] == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_broadcast_power_zero_when_marginal_rate_too_small():
    th = Thresholds(0.1, 0.1, 5.0)  # power price far above any marginal gain
    p, _ = _table(1.0, 1.0, th)
    assert p[6][0][0] == 0.0


def test_ma_interior_frozen_values():
    # both users transmit; stationarity checked against the frozen literals
    th = Thresholds(0.35, 0.25, 0.15)
    p, _ = _table(3.0, 1.0, th, optimal_time_share(FadingStatistics(3.0, 1.0)))  # t = 0
    p1, p2 = p[3]
    assert p1[0] == pytest.approx(5.7707801635558535, rel=1e-12)
    assert p2[0] == pytest.approx(0.44269504088896316, rel=1e-12)


def test_ma_powers_mirror_symmetry():
    # t=1 with swapped users and duals must equal the t=0 solution
    rng = np.random.default_rng(15)
    rows = [
        (*rng.exponential(1.0, 2), *rng.uniform(0.05, 0.95, 2), rng.uniform(0.05, 1.5))
        for _ in range(200)
    ]
    s1, s2, mu1, mu2, gamma = np.array(rows).T
    a1, a2 = mode_table(s1, s2, mu1, mu2, gamma, 0.0)[0][3]
    b1, b2 = mode_table(s2, s1, mu2, mu1, gamma, 1.0)[0][3]
    assert a1 == pytest.approx(b2, rel=1e-11, abs=1e-12)
    assert a2 == pytest.approx(b1, rel=1e-11, abs=1e-12)


def test_broadcast_dominates_single_user_downlinks():
    rng = np.random.default_rng(31)
    rows = [
        (*rng.exponential(1.0, 2), *rng.uniform(0.05, 0.95, 2), rng.uniform(0.05, 2.0))
        for _ in range(2000)
    ]
    s1, s2, mu1, mu2, gamma = np.array(rows).T
    assert downlink_dominance(s1, s2, mu1, mu2, gamma) <= 1e-12


def test_ma_never_beats_best_uplink_under_equal_duals():
    # with mu1 == mu2 the joint mode can at best tie the better uplink
    rng = np.random.default_rng(32)
    rows = [
        (*rng.exponential(1.0, 2), rng.uniform(0.05, 0.95), rng.uniform(0.05, 2.0))
        for _ in range(1000)
    ]
    s1, s2, mu, gamma = np.array(rows).T
    _, m = mode_table(s1, s2, mu, mu, gamma, 0.0)
    assert np.all(m[3] <= np.maximum(m[1], m[2]) + 1e-9)


def _select(*metrics):
    """The slot rule's choice among modes 1, 2, 3 and 6 for one slot."""
    mode, _ = best_modes(SELECTABLE_MODES, [np.array([v]) for v in metrics])
    return int(mode[0])


def test_select_mode_prefers_lowest_on_tie():
    assert _select(1.0, 1.0, 0.5, 1.0) == 1
    assert _select(0.2, 0.7, 0.7, 0.7) == 2
    assert _select(0.2, 0.3, 0.4, 0.1) == 3


def test_select_mode_rejects_nan():
    with pytest.raises(ValueError):
        _select(0.1, float("nan"), 0.0, 0.0)


def test_decide_trace_picks_the_best_metric():
    rng = np.random.default_rng(77)
    th = Thresholds(0.36, 0.41, 0.12)
    s1, s2 = np.array([rng.exponential(1.0, 2) for _ in range(300)]).T
    t = optimal_time_share(_STATS)
    dec = decide_trace(s1, s2, th.mu1, th.mu2, th.gamma, t)
    powers, metrics = _table(s1, s2, th, t)
    assert tuple(powers) == tuple(metrics) == SELECTABLE_MODES
    assert np.array_equal(dec.mode, _slot_rule_modes(metrics))
    # the spent power belongs to the chosen mode only
    for k in SELECTABLE_MODES:
        assert np.array_equal(dec.power[dec.mode == k], sum(powers[k])[dec.mode == k])


def test_decide_trace_handles_dead_links():
    th = Thresholds(0.4, 0.4, 0.2)
    dec = decide_trace(np.array([0.0]), np.array([0.0]), th.mu1, th.mu2, th.gamma, 0.0)
    assert dec.power[0] == 0.0
    dec = decide_trace(np.array([0.0]), np.array([2.0]), th.mu1, th.mu2, th.gamma, 0.0)
    assert int(dec.mode[0]) in SELECTABLE_MODES
    assert dec.up1[0] == 0.0  # nothing can enter buffer 1 over a dead link


def _slot_rule_rates(s1, s2, th, t):
    """Each slot's mode by _slot_rule_modes, with its spent power and
    (up1, up2, down1, down2) rates from the per-slot capacity formulas of
    rate_reference at mode_table's powers."""
    mp, lam = _table(s1, s2, th, t)
    modes = _slot_rule_modes(lam)
    rows = []
    for i, mode in enumerate(modes):
        p = [q[i] for q in mp[mode]]
        triple = PowerTriple(
            *{1: (p[0], 0.0, 0.0), 2: (0.0, p[0], 0.0), 3: (*p, 0.0), 6: (0.0, 0.0, p[0])}[mode]
        )
        r = link_capacities(float(s1[i]), float(s2[i]), triple, t)
        rates = {
            1: (r.c1r, 0.0, 0.0, 0.0),
            2: (0.0, r.c2r, 0.0, 0.0),
            3: (r.c12r, r.c21r, 0.0, 0.0),
            6: (0.0, 0.0, r.cr1, r.cr2),
        }[mode]
        rows.append((triple.p1 + triple.p2 + triple.pr, *rates))
    return modes, rows


def test_decide_trace_matches_slot_rule():
    rng = np.random.default_rng(90)
    s1 = rng.exponential(1.0, 300)
    s2 = rng.exponential(0.8, 300)
    th = Thresholds(0.33, 0.44, 0.2)
    t = optimal_time_share(FadingStatistics(1.0, 0.8))
    dec = decide_trace(s1, s2, th.mu1, th.mu2, th.gamma, t)
    modes, rows = _slot_rule_rates(s1, s2, th, t)
    assert np.array_equal(dec.mode, modes)
    for i, (total, *want) in enumerate(rows):
        assert total == pytest.approx(float(dec.power[i]), rel=1e-12, abs=1e-15)
        got = (dec.up1[i], dec.up2[i], dec.down1[i], dec.down2[i])
        assert got == pytest.approx(tuple(want), rel=1e-12, abs=1e-15)


_gain = st.one_of(st.just(0.0), st.floats(1e-3, 1e2))
_dual = st.one_of(st.sampled_from((1e-3, 1.0 - 1e-3)), st.floats(1e-3, 1.0 - 1e-3))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_gain, _gain, st.booleans()), min_size=1, max_size=8),
    _dual,
    _dual,
    st.floats(1e-3, 1e2),
    st.sampled_from((0.0, 1.0)),
)
def test_decide_trace_matches_slot_rule_everywhere(slots, mu1, mu2, gamma, t):
    # dead links, equal gains and duals at the box edges included; a slot
    # whose flag is set repeats its first gain on both links
    s1 = np.array([a for a, _, _ in slots])
    s2 = np.array([a if same else b for a, b, same in slots])
    dec = decide_trace(s1, s2, mu1, mu2, gamma, t)
    modes, rows = _slot_rule_rates(s1, s2, Thresholds(mu1, mu2, gamma), t)
    assert np.array_equal(dec.mode, modes)
    for i, row in enumerate(rows):
        got = (dec.power[i], dec.up1[i], dec.up2[i], dec.down1[i], dec.down2[i])
        assert got == pytest.approx(row, rel=1e-12, abs=1e-12)


def test_proposed_policy_ignores_queues():
    # each slot is decided from its own gains: the decisions on a prefix of
    # the trace are the prefix of the decisions, so no state carries over
    th = Thresholds(0.4, 0.4, 0.1)
    policy = proposed_policy(th, _STATS)
    trace = sample_trace(_STATS, 500, 3)
    full = policy(trace)
    want = decide_trace(trace.s1, trace.s2, th.mu1, th.mu2, th.gamma, 0.0)
    for name in ("mode", "power", "up1", "up2", "down1", "down2"):
        assert np.array_equal(getattr(full, name), getattr(want, name))
    short = decide_trace(trace.s1[:123], trace.s2[:123], th.mu1, th.mu2, th.gamma, 0.0)
    assert np.array_equal(short.mode, full.mode[:123])
    assert np.array_equal(short.power, full.power[:123])


def test_ma_split_matches_link_capacities():
    # the trace-level split is the per-slot formula at every share, interior
    # ones included
    rng = np.random.default_rng(12)
    s1, s2 = rng.exponential(1.0, 50), rng.exponential(1.0, 50)
    p1, p2 = rng.uniform(0.0, 5.0, 50), rng.uniform(0.0, 5.0, 50)
    for t in (0.0, 0.5, 1.0):
        c12r, c21r = ma_split(s1, s2, p1, p2, t)
        for i in range(50):
            r = link_capacities(s1[i], s2[i], PowerTriple(p1[i], p2[i], 0.0), t)
            assert c12r[i] == pytest.approx(r.c12r, rel=1e-14, abs=1e-15)
            assert c21r[i] == pytest.approx(r.c21r, rel=1e-14, abs=1e-15)


def test_optimal_time_share_boundary():
    assert optimal_time_share(FadingStatistics(2.0, 1.0)) == 0.0
    assert optimal_time_share(FadingStatistics(1.0, 1.0)) == 0.0
    assert optimal_time_share(FadingStatistics(0.5, 1.0)) == 1.0


def test_closed_form_never_beaten_by_grid_smoke():
    # small-scale version of the exhaustive acceptance check
    rng = np.random.default_rng(44)
    for _ in range(25):
        mu1, mu2 = (float(x) for x in rng.uniform(0.1, 0.9, 2))
        gamma = float(rng.uniform(0.1, 1.0))
        s1, s2 = (float(x) for x in rng.exponential(1.0, 2))
        stats = FadingStatistics(2.0, 1.0) if mu1 >= mu2 else FadingStatistics(1.0, 2.0)
        t = optimal_time_share(stats)
        _, metrics = mode_table(s1, s2, mu1, mu2, gamma, t)
        p = np.linspace(0.0, 10.0 / gamma, 500)
        found = _grid_maxima(p[None, :], [s1], [s2], [mu1], [mu2], [gamma], [t])
        for mode in SELECTABLE_MODES:
            _, g_val = found[mode]
            assert g_val[0] <= metrics[mode][0] + 1e-6


_MIRROR_MODE = np.array([0, 2, 1, 3, 5, 4, 6])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mu1=st.floats(0.001, 0.999),
    mu2=st.floats(0.001, 0.999),
    gamma=st.floats(1e-3, 10.0),
    t=st.sampled_from([0.0, 1.0]),
    omega=st.floats(0.01, 100.0),
    k=st.floats(1e-3, 1e3),
)
def test_decide_trace_mirrors_and_scales(seed, mu1, mu2, gamma, t, omega, k):
    # metamorphic properties of the slot rule: swapping the links (gains,
    # duals and the decoding share) mirrors every decision, and scaling
    # both gains and the price by k leaves the rates alone and divides the
    # power by k
    rng = np.random.default_rng(seed)
    s1 = omega * rng.exponential(1.0, 200)
    s2 = rng.exponential(1.0, 200)
    dec = decide_trace(s1, s2, mu1, mu2, gamma, t)
    near = dict(rel=1e-12, abs=1e-12)

    mir = decide_trace(s2, s1, mu2, mu1, gamma, 1.0 - t)
    # an idle slot (every metric zero) goes to the lowest mode either way
    busy = dec.power > 0.0
    assert np.array_equal(_MIRROR_MODE[mir.mode[busy]], dec.mode[busy])
    assert mir.power == pytest.approx(dec.power, **near)
    assert mir.up1 == pytest.approx(dec.up2, **near)
    assert mir.up2 == pytest.approx(dec.up1, **near)
    assert mir.down1 == pytest.approx(dec.down2, **near)
    assert mir.down2 == pytest.approx(dec.down1, **near)

    scaled = decide_trace(k * s1, k * s2, mu1, mu2, k * gamma, t)
    assert np.array_equal(scaled.mode[busy], dec.mode[busy])
    assert k * scaled.power == pytest.approx(dec.power, **near)
    for name in ("up1", "up2", "down1", "down2"):
        assert getattr(scaled, name) == pytest.approx(getattr(dec, name), **near)


# --- reference: the slot rule as nested np.where selections -----------------
# A literal copy of decide_trace before the per-trace kernel (TraceGains):
# every intermediate allocated afresh and every output picked with np.where.
# The kernel must reproduce it byte for byte.


def _ref_recip(s):
    s = np.asarray(s, dtype=float)
    return np.where(s > 0.0, 1.0 / np.where(s > 0.0, s, 1.0), np.inf)


def _ref_capacity(x):
    return np.log2(1.0 + x)


def _ref_wf_power(weight, gamma, inv_s):
    return np.maximum(weight / (gamma * _LN2) - inv_s, 0.0)


def _ref_broadcast_power(s1, s2, mu1, mu2, gamma):
    gl = gamma * _LN2
    a = gl * s1 * s2
    b = gl * (s1 + s2) - (mu1 + mu2) * s1 * s2
    c = gl - mu1 * s2 - mu2 * s1
    sq = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
    num = np.where(b > 0.0, -2.0 * c, sq - b)
    den = np.where(b > 0.0, b + sq, 2.0 * a)
    root = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return np.where(c < 0.0, np.maximum(root, 0.0), 0.0)


def _ref_ma_split(s1, s2, p1, p2, t):
    if t == 0.0:
        return _ref_capacity(p1 * s1 / (1.0 + p2 * s2)), _ref_capacity(p2 * s2)
    if t == 1.0:
        return _ref_capacity(p1 * s1), _ref_capacity(p2 * s2 / (1.0 + p1 * s1))
    c12r_0, c21r_0 = _ref_ma_split(s1, s2, p1, p2, 0.0)
    c12r_1, c21r_1 = _ref_ma_split(s1, s2, p1, p2, 1.0)
    return t * c12r_1 + (1.0 - t) * c12r_0, (1.0 - t) * c21r_0 + t * c21r_1


def _ref_best_modes(modes, metrics):
    best = metrics[0]
    mode = np.full(np.shape(best), modes[0])
    for k, lam in zip(modes[1:], metrics[1:]):
        mode = np.where(lam > best, k, mode)
        best = np.maximum(best, lam)
    if np.isnan(best).any():
        raise ValueError("selection metric is NaN")
    return mode


def _ref_ma_powers(s1, s2, mu1, mu2, gamma, t, inv1, inv2, p1_m1, p2_m2):
    gl = gamma * _LN2
    u = (mu1 - mu2) / gl
    den = np.where(s1 == s2, 1.0, s1 - s2)
    if t == 0.0:
        only1 = s2 * (u * s1 + 1.0) <= s1
        only2 = ~only1 & (s2 * (1.0 - mu2) >= s1 * (1.0 - mu1))
        p1_int = np.maximum((1.0 - mu1) / gl - u * s2 / den, 0.0)
        p2_int = np.maximum(u * s1 / den - inv2, 0.0)
    else:
        only2 = s1 * (1.0 - u * s2) <= s2
        only1 = ~only2 & (s1 * (1.0 - mu1) >= s2 * (1.0 - mu2))
        p1_int = np.maximum(u * s2 / den - inv1, 0.0)
        p2_int = np.maximum((1.0 - mu2) / gl - u * s1 / den, 0.0)
    p1 = np.where(only1, p1_m1, np.where(only2, 0.0, p1_int))
    p2 = np.where(only1, 0.0, np.where(only2, p2_m2, p2_int))
    return p1, p2


def _ref_decide_trace(s1, s2, mu1, mu2, gamma, t):
    inv1, inv2 = _ref_recip(s1), _ref_recip(s2)
    p1_m1 = _ref_wf_power(1.0 - mu1, gamma, inv1)
    p2_m2 = _ref_wf_power(1.0 - mu2, gamma, inv2)
    p1_m3, p2_m3 = _ref_ma_powers(s1, s2, mu1, mu2, gamma, t, inv1, inv2, p1_m1, p2_m2)
    pr_m6 = _ref_broadcast_power(s1, s2, mu1, mu2, gamma)
    c1r = _ref_capacity(p1_m1 * s1)
    c2r = _ref_capacity(p2_m2 * s2)
    c12r, c21r = _ref_ma_split(s1, s2, p1_m3, p2_m3, t)
    cr1 = _ref_capacity(pr_m6 * s1)
    cr2 = _ref_capacity(pr_m6 * s2)
    lams = (
        (1.0 - mu1) * c1r - gamma * p1_m1,
        (1.0 - mu2) * c2r - gamma * p2_m2,
        (1.0 - mu1) * c12r + (1.0 - mu2) * c21r - gamma * (p1_m3 + p2_m3),
        mu1 * cr2 + mu2 * cr1 - gamma * pr_m6,
    )
    mode = _ref_best_modes(SELECTABLE_MODES, lams)
    is1, is2, is3, is6 = (mode == k for k in SELECTABLE_MODES)
    return TraceDecisions(
        mode=mode,
        power=np.where(is1, p1_m1, np.where(is2, p2_m2, np.where(is3, p1_m3 + p2_m3, pr_m6))),
        up1=np.where(is1, c1r, np.where(is3, c12r, 0.0)),
        up2=np.where(is2, c2r, np.where(is3, c21r, 0.0)),
        down1=np.where(is6, cr1, 0.0),
        down2=np.where(is6, cr2, 0.0),
    )


_FIELDS = ("mode", "power", "up1", "up2", "down1", "down2")


def _same_bytes(got, want):
    return all(
        getattr(got, f).dtype == getattr(want, f).dtype
        and getattr(got, f).tobytes() == getattr(want, f).tobytes()
        for f in _FIELDS
    )


_edge_dual = st.one_of(st.sampled_from((1e-3, 1.0 - 1e-3)), st.floats(1e-3, 1.0 - 1e-3))
_log_gamma = st.floats(math.log(1e-6), math.log(1e6))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    omegas=st.sampled_from(((1.0, 1.0), (10.0, 1.0), (1.0, 100.0), (100.0, 1.0))),
    n=st.integers(1, 400),
    duals=st.tuples(_edge_dual, _edge_dual, _edge_dual, _edge_dual),
    log_gammas=st.tuples(_log_gamma, _log_gamma),
    t=st.sampled_from((0.0, 1.0)),
)
def test_trace_kernel_is_byte_identical_to_nested_where(seed, omegas, n, duals, log_gammas, t):
    # dead links and s1 == s2 slots are planted in every trace; one
    # TraceGains serves two dual points, so its workspace carries nothing
    # from one call to the next, and the first call's outputs survive the
    # second untouched
    rng = np.random.default_rng(seed)
    s1 = omegas[0] * rng.exponential(1.0, n)
    s2 = omegas[1] * rng.exponential(1.0, n)
    s1[rng.random(n) < 0.1] = 0.0
    s2[rng.random(n) < 0.1] = 0.0
    equal = rng.random(n) < 0.15
    s2[equal] = s1[equal]
    gains = TraceGains(s1, s2)
    points = [(duals[0], duals[1], math.exp(log_gammas[0])), (duals[2], duals[3], math.exp(log_gammas[1]))]
    first = gains.decide(*points[0], t)
    kept = {f: getattr(first, f).copy() for f in _FIELDS}
    for mu1, mu2, gamma in points:
        want = _ref_decide_trace(s1, s2, mu1, mu2, gamma, t)
        assert _same_bytes(gains.decide(mu1, mu2, gamma, t), want)
        assert _same_bytes(decide_trace(s1, s2, mu1, mu2, gamma, t), want)
    assert all(np.array_equal(getattr(first, f), kept[f]) for f in _FIELDS)


def test_trace_kernel_rejects_nan_and_foreign_gains():
    s1, s2 = np.array([1.0, 2.0]), np.array([0.5, np.nan])
    with pytest.raises(ValueError):
        TraceGains(s1, s2).decide(0.4, 0.5, 0.3, 0.0)
    with pytest.raises(ValueError):
        decide_trace(s1, s1.copy(), 0.4, 0.5, 0.3, 0.0, gains=TraceGains(s1, s1))


def test_trace_kernel_allocates_only_its_outputs():
    # after the first call has made the workspace, a call on a 10k-slot
    # trace allocates its six output arrays (five float, one int) and at
    # most 8 KiB besides (Python objects and reduction scratch)
    trace = sample_trace(_STATS, 10_000, 1234)
    gains = TraceGains(trace.s1, trace.s2)
    gains.decide(0.45, 0.55, 0.6, 0.0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        dec = gains.decide(0.4, 0.6, 0.5, 0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    outputs = sum(getattr(dec, f).nbytes for f in _FIELDS)
    assert outputs == 6 * 8 * 10_000
    assert peak <= outputs + 8192


def _interior(s1, s2, mu1, mu2, gamma, t):
    """The slots where both users transmit in the multiple-access mode."""
    return _ma_regimes(TraceGains(s1, s2), mu1, mu2, gamma, t)[2]


_near_edge_dual = st.one_of(
    st.floats(1e-6, 1e-3), st.floats(1.0 - 1e-3, 1.0 - 1e-6), st.floats(1e-3, 1.0 - 1e-3)
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_gain, _gain, st.booleans()), min_size=1, max_size=12),
    _near_edge_dual,
    _near_edge_dual,
    st.floats(math.log(1e-6), math.log(1e6)),
    st.sampled_from((0.0, 1.0)),
)
def test_ma_metric_off_the_interior_is_an_uplink_metric(slots, mu1, mu2, log_gamma, t):
    # the slot rule computes mode 3 only where both users transmit; this is
    # exact because elsewhere its metric is the one-user uplink metric to
    # the last bit, which wins mode 3's tie, and so the rule never picks it
    s1 = np.array([a for a, _, _ in slots])
    s2 = np.array([a if same else b for a, b, same in slots])
    gamma = math.exp(log_gamma)
    alone1, alone2, both = _ma_regimes(TraceGains(s1, s2), mu1, mu2, gamma, t)
    assert not (alone1 & alone2).any() and np.array_equal(both, ~(alone1 | alone2))
    _, lam = mode_table(s1, s2, mu1, mu2, gamma, t)
    assert lam[3][alone1].tobytes() == lam[1][alone1].tobytes()
    assert lam[3][alone2].tobytes() == lam[2][alone2].tobytes()
    assert not (decide_trace(s1, s2, mu1, mu2, gamma, t).mode[~both] == 3).any()


def _all_interior(t, n=300, seed=5):
    """A trace and duals at which every slot is interior: at t = 0 with
    mu1 > mu2, each s2 lies strictly between s1/(u*s1 + 1) and
    s1*(1 - mu1)/(1 - mu2), with u = (mu1 - mu2)/(gamma*ln2); t = 1 mirrors
    it with the users and duals swapped. At these duals mode 3 wins on
    about half of the slots and mode 6 on the rest."""
    mu1, mu2, gamma = 0.4, 0.3, 0.1
    u = (mu1 - mu2) / (gamma * _LN2)
    rng = np.random.default_rng(seed)
    s1 = rng.uniform(1.0, 5.0, n)
    lo, hi = s1 / (u * s1 + 1.0), s1 * (1.0 - mu1) / (1.0 - mu2)
    s2 = lo + rng.uniform(0.01, 0.99, n) * (hi - lo)
    return (s1, s2, mu1, mu2, gamma) if t == 0.0 else (s2, s1, mu2, mu1, gamma)


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_trace_kernel_edges_of_the_interior_set_match_nested_where(t):
    # no interior slot: with mu1 == mu2 each slot goes to one user alone
    rng = np.random.default_rng(8)
    s1, s2 = rng.exponential(1.0, (2, 500))
    s2[:50] = s1[:50]
    s1[50:60] = 0.0
    args = (s1, s2, 0.45, 0.45, 0.2, t)
    assert not _interior(*args).any()
    assert _same_bytes(decide_trace(*args), _ref_decide_trace(*args))
    # every slot interior
    s1, s2, mu1, mu2, gamma = _all_interior(t)
    assert _interior(s1, s2, mu1, mu2, gamma, t).all()
    dec = decide_trace(s1, s2, mu1, mu2, gamma, t)
    assert _same_bytes(dec, _ref_decide_trace(s1, s2, mu1, mu2, gamma, t))
    assert 0 < np.count_nonzero(dec.mode == 3) < len(s1)  # mode 3 both wins and loses


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_trace_kernel_rejects_a_nan_metric_inside_and_outside_the_interior_set(t):
    s1, s2 = np.array([1.0, 2.0, 0.5, 3.0]), np.array([2.0, 2.5, 0.7, 4.0])
    # a NaN gain lands in the interior set (each regime test is a comparison)
    nan1 = s1.copy()
    nan1[1] = np.nan
    assert np.array_equal(_interior(nan1, s2, 0.45, 0.45, 0.2, t), [False, True, False, False])
    # a NaN price leaves every slot outside it (s2 > s1 on each at mu1 == mu2)
    args = (s1, s2, 0.45, 0.45, np.nan, t) if t == 0.0 else (s2, s1, 0.45, 0.45, np.nan, t)
    assert not _interior(*args).any()
    for bad in ((nan1, s2, 0.45, 0.45, 0.2, t), args):
        for decide in (decide_trace, _ref_decide_trace):
            with pytest.raises(ValueError, match="selection metric is NaN"):
                decide(*bad)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 10_000])
def test_trace_means_equal_numpy_mean_bit_for_bit(n):
    # lengths on both sides of numpy's pairwise-summation blocks; values
    # spread over many magnitudes so the sum order shows in the last bits
    rng = np.random.default_rng(n)
    rows = [rng.exponential(1.0, n) * 10.0 ** rng.uniform(-8.0, 8.0, n) for _ in range(5)]
    dec = TraceDecisions(np.ones(n, dtype=int), *rows)
    for x in rows:
        assert trace_mean(x).hex() == float(x.mean()).hex()
    d1, d2 = float(dec.down1.mean()), float(dec.down2.mean())
    want = ((float(dec.up1.mean()) - d2) / d2, (float(dec.up2.mean()) - d1) / d1)
    assert [c.hex() for c in balance_residuals(dec)] == [c.hex() for c in want]


def _broadcast_power_two_tests(s1, s2, mu1, mu2, gamma):
    """broadcast_power's steps in its own order, but with the root kept
    only where both den > 0 and c < 0, as the kernel once tested."""
    gl = gamma * _LN2
    a = gl * s1 * s2
    b = gl * (s1 + s2) - (mu1 + mu2) * s1 * s2
    c = gl - mu1 * s2 - mu2 * s1
    sq = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
    up = (b > 0.0).astype(float)
    down = (~(b > 0.0)).astype(float)
    num = -2.0 * c * up + (sq - b) * down
    den = (b + sq) * up + 2.0 * a * down
    keep = (den > 0.0) & (c < 0.0)
    return np.maximum(num / (den + (~keep).astype(float)), 0.0) * keep.astype(float)


_wide_gain = st.one_of(st.just(0.0), st.floats(-150.0, 150.0).map(lambda e: 10.0**e))
_corner_dual = st.one_of(st.sampled_from((0.0, 1e-3, 1.0 - 1e-3, 1.0)), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_wide_gain, _wide_gain, st.booleans()), min_size=1, max_size=12),
    _corner_dual,
    _corner_dual,
    st.floats(-14.0, 14.0),
)
def test_broadcast_power_needs_only_the_sign_of_c(slots, mu1, mu2, log10_gamma):
    # the kernel keeps the root where c < 0 and no longer tests den > 0,
    # which holds wherever c < 0 at these prices; dead and equal links,
    # dual corners and overflowing gain products included, bit for bit
    s1 = np.array([a for a, _, _ in slots])
    s2 = np.array([a if same else b for a, b, same in slots])
    gamma = 10.0**log10_gamma
    with np.errstate(all="ignore"):
        got = broadcast_power(TraceGains(s1, s2), mu1, mu2, gamma)
        want = _broadcast_power_two_tests(s1, s2, mu1, mu2, gamma)
    assert got.tobytes() == want.tobytes()
