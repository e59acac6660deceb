"""Dual calibration: residual structure, the nested search, end-to-end runs."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from birelay.calibrate import (
    CalibrationConfig,
    CalibrationResult,
    solve_gamma,
    balance_duals,
    calibrate,
    find_root,
)
import birelay.calibrate as calibrate_module
from birelay.channel import FadingStatistics, sample_trace
from birelay.policy import (
    Thresholds,
    TraceGains,
    balance_residuals,
    decide_trace,
    optimal_time_share,
)

_STATS = FadingStatistics(1.0, 1.0)


def _cfg(**kw):
    base = dict(stats=_STATS, p_total=1.0, n_slots=3000, seed=11)
    base.update(kw)
    return CalibrationConfig(**base)


def _decisions(th, cfg):
    """The slot rule at th over cfg's trace, without queue clipping."""
    trace = sample_trace(cfg.stats, cfg.n_slots, cfg.seed)
    t = optimal_time_share(cfg.stats)
    return decide_trace(trace.s1, trace.s2, th.mu1, th.mu2, th.gamma, t)


def test_config_validated():
    with pytest.raises(ValueError):
        _cfg(p_total=0.0)
    with pytest.raises(ValueError):
        _cfg(n_slots=0)
    with pytest.raises(ValueError):
        _cfg(tol_rate=0.0)
    with pytest.raises(ValueError):
        _cfg(tol_power=0.2)
    for bad in (
        dict(p_total=float("nan")),
        dict(p_total=float("inf")),
        dict(n_slots="7"),
        dict(seed=1.5),
        dict(tol_rate=float("nan")),
    ):
        with pytest.raises(ValueError):
            _cfg(**bad)


def test_spent_power_monotone_in_price():
    cfg = _cfg()
    powers = [
        float(_decisions(Thresholds(0.4, 0.4, g), cfg).power.mean())
        for g in (0.02, 0.1, 0.5, 2.0, 10.0)
    ]
    assert all(a >= b for a, b in zip(powers, powers[1:]))
    assert powers[0] > powers[-1]


def test_huge_price_spends_nothing():
    assert _decisions(Thresholds(0.4, 0.4, 1e6), _cfg()).power.max() == 0.0


def test_extreme_dual_starves_its_uplink():
    # mu1 near 1 makes receiving user-1 traffic nearly worthless
    dec = _decisions(Thresholds(0.999, 0.4, 0.1), _cfg())
    assert dec.up1.mean() < 0.01
    assert balance_residuals(dec)[0] < 0.0


def test_solve_gamma_on_synthetic_curve():
    # spent power ~ 2/gamma, so the unit-budget root is gamma = 2
    calls = []

    def resid(g):
        calls.append(g)
        return 2.0 / g - 1.0

    gamma, r = solve_gamma(resid, warm=0.001, tol=1e-4)
    assert gamma == pytest.approx(2.0, rel=1e-3)
    assert abs(r) <= 1e-4
    gamma, r = solve_gamma(resid, warm=500.0, tol=1e-4)
    assert gamma == pytest.approx(2.0, rel=1e-3)


def test_balance_duals_on_synthetic_residuals():
    # linear coupled system with a known interior root
    calls = []

    def residuals(mu1, mu2):
        calls.append((mu1, mu2))
        return 0.56 - mu1 - 0.3 * mu2, 0.62 - mu2 - 0.3 * mu1

    mu1, mu2, c1, c2, used, ok = balance_duals(residuals, 0.01, 200)
    assert ok
    assert used == len(calls)  # every probe cached exactly once
    assert used <= 200
    assert mu1 == pytest.approx((0.56 - 0.3 * 0.62) / 0.91, abs=0.02)
    assert mu2 == pytest.approx(0.62 - 0.3 * (0.56 - 0.3 * 0.62) / 0.91, abs=0.02)
    assert max(abs(c1), abs(c2)) <= 0.01


def test_balance_duals_reports_budget_exhaustion():
    def residuals(mu1, mu2):
        return 0.9 - mu1, 0.9 - mu2

    mu1, mu2, _, _, used, ok = balance_duals(residuals, 0.001, 3)
    assert used <= 3
    assert not ok


def test_balance_duals_handles_saturated_regions():
    # step-like residuals: +8 on one side of the band, -1 on the other,
    # mimicking regimes where a whole traffic direction is unscheduled
    def residuals(mu1, mu2):
        c1 = 0.45 - mu1 + 0.1 * (0.3 - mu2)
        c2 = 0.3 - mu2 + 0.1 * (0.45 - mu1)
        squash = lambda c: 8.0 if c > 0.12 else (-1.0 if c < -0.12 else c)
        return squash(c1), squash(c2)

    mu1, mu2, c1, c2, used, ok = balance_duals(residuals, 0.01, 200)
    assert ok
    assert abs(mu1 - 0.45) < 0.05 and abs(mu2 - 0.3) < 0.05


def test_calibrate_symmetric_point_converges():
    res = calibrate(_cfg())
    assert isinstance(res, CalibrationResult)
    assert res.converged
    assert res.iterations <= 400
    th = res.thresholds
    assert 0.001 < th.mu1 < 0.999 and 0.001 < th.mu2 < 0.999
    assert th.gamma > 0.0
    assert res.residual_c1 <= 0.01
    assert res.residual_c2 <= 0.01
    assert res.residual_c3 <= 0.005


def test_calibrate_asymmetric_point_converges():
    res = calibrate(_cfg(stats=FadingStatistics(5.0, 1.0), p_total=10.0, seed=7))
    assert res.converged
    assert res.thresholds.mu1 > res.thresholds.mu2  # strong link 1 tilts the duals


def test_calibrate_is_deterministic():
    a = calibrate(_cfg())
    b = calibrate(_cfg())
    assert a == b


def test_calibrate_on_a_supplied_trace_matches_its_own_draw():
    cfg = _cfg()
    assert calibrate(cfg, sample_trace(cfg.stats, cfg.n_slots, cfg.seed)) == calibrate(cfg)
    for other in (
        sample_trace(FadingStatistics(2.0, 1.0), cfg.n_slots, cfg.seed),
        sample_trace(cfg.stats, cfg.n_slots - 1, cfg.seed),
        sample_trace(cfg.stats, cfg.n_slots, cfg.seed + 1),
    ):
        with pytest.raises(ValueError):
            calibrate(cfg, other)


def test_calibrate_budget_of_one_cannot_converge(monkeypatch):
    monkeypatch.setattr(calibrate_module, "_MAX_POINTS", 1)
    res = calibrate(_cfg())
    assert not res.converged
    assert res.iterations == 1


def test_calibrated_duals_reproduce_residuals():
    # the residuals are those of the probe at the returned point; a fresh
    # run of the slot rule there must give them back
    cfg = _cfg()
    res = calibrate(cfg)
    dec = _decisions(res.thresholds, cfg)
    c1, c2 = balance_residuals(dec)
    c3 = (float(dec.power.mean()) - cfg.p_total) / cfg.p_total
    assert abs(c1) == pytest.approx(res.residual_c1, abs=1e-12)
    assert abs(c2) == pytest.approx(res.residual_c2, abs=1e-12)
    assert abs(c3) == pytest.approx(res.residual_c3, abs=1e-12)


@pytest.mark.parametrize("stats, p_total", [(_STATS, 1.0), (FadingStatistics(10.0, 1.0), 10.0)])
def test_calibrate_never_repeats_an_evaluation(monkeypatch, stats, p_total):
    # every (mu1, mu2, gamma) reaches the slot rule once, and the returned
    # point is one of them
    calls = []

    def recording(s1, s2, mu1, mu2, gamma, t, gains=None):
        calls.append((mu1, mu2, gamma))
        return decide_trace(s1, s2, mu1, mu2, gamma, t, gains=gains)

    monkeypatch.setattr(calibrate_module, "decide_trace", recording)
    result = calibrate(_cfg(stats=stats, p_total=p_total))
    th = result.thresholds
    assert (th.mu1, th.mu2, th.gamma) in calls
    assert len(set(calls)) == len(calls) == result.evaluations
    assert len(calls) > result.iterations


def test_calibrate_counts_its_slot_rule_runs(monkeypatch):
    # the default 10k-slot trace at 1:1 fading and 0 dB: a bisection in
    # every 1-D solve needed 924 runs of the slot rule here
    calls = []

    def recording(s1, s2, mu1, mu2, gamma, t, gains=None):
        calls.append((mu1, mu2, gamma))
        return decide_trace(s1, s2, mu1, mu2, gamma, t, gains=gains)

    monkeypatch.setattr(calibrate_module, "decide_trace", recording)
    result = calibrate(CalibrationConfig(stats=_STATS, p_total=1.0))
    assert result.converged
    assert result.evaluations == len(calls)
    assert len(calls) <= 400


def test_calibrate_builds_one_trace_kernel(monkeypatch):
    # the gain-only constants and the workspace are made once per
    # calibration, and every run of the slot rule goes through that one
    # kernel
    built, used = [], []

    class Counted(TraceGains):
        def __init__(self, s1, s2):
            super().__init__(s1, s2)
            built.append(self)

    def recording(s1, s2, mu1, mu2, gamma, t, gains=None):
        used.append(gains)
        return decide_trace(s1, s2, mu1, mu2, gamma, t, gains=gains)

    monkeypatch.setattr(calibrate_module, "TraceGains", Counted)
    monkeypatch.setattr(calibrate_module, "decide_trace", recording)
    result = calibrate(_cfg())
    assert len(built) == 1
    assert len(used) == result.evaluations
    assert all(g is built[0] for g in used)


def _monotone(kind, root, orient, scale, shape):
    """A monotone residual with its sign change at root; orient=-1 makes
    it fall. kind picks the shape: smooth and lopsided (exponential, or a
    ninth power that is flat at the root), saturating at +-1e12 outside a
    narrow linear band, a staircase of flat plateaus, or smooth in log x."""
    if kind == "smooth":
        return lambda x: orient * scale * math.expm1(shape * (x - root))
    if kind == "flat":
        return lambda x: orient * scale * (x - root) ** 9
    if kind == "saturated":
        slope = 1e12 / (1e-3 * scale)
        return lambda x: orient * min(1e12, max(-1e12, slope * (x - root)))
    if kind == "plateaus":
        return lambda x: orient * (math.floor((x - root) / (0.05 * scale)) + 0.5)
    return lambda x: orient * scale * (math.log(x) - math.log(root))


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(["smooth", "flat", "saturated", "plateaus", "log"]),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    orient=st.sampled_from([1.0, -1.0]),
    scale=st.floats(1e-3, 1e3),
    shape=st.sampled_from([-30.0, -3.0, 0.3, 3.0, 30.0]),
    tol=st.sampled_from([0.0, 1e-9, 1e-4, 1e-2]),
    xtol_exp=st.integers(2, 12),
    swap=st.booleans(),
)
def test_find_root_properties(kind, ends, orient, scale, shape, tol, xtol_exp, swap):
    log = kind == "log"
    lo_u, root_u, hi_u = sorted(ends)
    if log:  # (1e-14, 1e14) on a log scale
        lo, root, hi = (10.0 ** (28.0 * u - 14.0) for u in (lo_u, root_u, hi_u))
    else:
        lo, root, hi = (-5.0 + 10.0 * u for u in (lo_u, root_u, hi_u))
    f = _monotone(kind, root, orient, scale, shape)
    a, b = (hi, lo) if swap else (lo, hi)
    fa, fb = f(a), f(b)
    assume((fa > 0.0) != (fb > 0.0) and not tol >= min(abs(fa), abs(fb)))
    done = lambda r: abs(r) <= tol  # noqa: E731
    xtol = 10.0**-xtol_exp
    probes = []

    def recording(x):
        probes.append((x, f(x)))
        return probes[-1][1]

    x, r = find_root(recording, a, fa, b, fb, done, log=log, xtol=xtol, max_steps=1000)
    # every probe lies strictly inside the bracket left by the probes before it
    bracket = {fa > 0.0: a, fb > 0.0: b}
    for px, pr in probes:
        assert min(bracket.values()) < px < max(bracket.values())
        bracket[pr > 0.0] = px
    # no point is evaluated twice, and neither end again
    seen = [px for px, _ in probes]
    assert len(set(seen)) == len(seen) and a not in seen and b not in seen
    hits = [i for i, (_, pr) in enumerate(probes) if done(pr)]
    if hits:
        assert hits == [len(probes) - 1] and (x, r) == probes[-1]
    else:
        pool = [(a, fa), (b, fb)] + probes
        assert abs(r) == min(abs(v) for _, v in pool) and (x, r) in pool
    warp = math.log if log else float
    width = abs(warp(b) - warp(a))
    assert len(probes) <= 2 * max(0, math.ceil(math.log2(width / xtol))) + 2


def test_find_root_needs_a_sign_change():
    with pytest.raises(ValueError):
        find_root(lambda x: x, 1.0, 1.0, 2.0, 2.0, lambda r: False, xtol=1e-6, max_steps=10)
