"""Dual calibration: residual structure, the nested search, end-to-end runs."""

import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from birelay.calibrate import (
    CalibrationResult,
    balance_duals,
    calibrate,
    find_root,
    match_budget,
    threshold_region_scan,
)
import birelay.calibrate as calibrate_module
from birelay.channel import FadingStatistics, sample_trace
from birelay.cli import RunSpec
from birelay.policy import (
    Thresholds,
    TraceGains,
    balance_residuals,
    decide_trace,
    optimal_time_share,
)

_STATS = FadingStatistics(1.0, 1.0)


def _trace(stats=_STATS, n_slots=3000, seed=11):
    return sample_trace(stats, n_slots, seed)


def _calibrate(trace=None, p_total=1.0, tol_rate=0.01, tol_power=0.005):
    return calibrate(_trace() if trace is None else trace, p_total, tol_rate, tol_power)


def _decisions(th, trace):
    """The slot rule at th over trace, without queue clipping."""
    t = optimal_time_share(trace.stats)
    return decide_trace(trace.s1, trace.s2, th.mu1, th.mu2, th.gamma, t)


def test_config_validated(monkeypatch):
    # a bad budget or tolerance is rejected before the slot rule ever runs
    def never(*args, **kwargs):
        raise AssertionError("the slot rule ran")

    monkeypatch.setattr(calibrate_module, "decide_trace", never)
    trace = _trace(n_slots=50)
    for bad in (
        dict(p_total=0.0),
        dict(p_total=-1.0),
        dict(p_total=float("nan")),
        dict(p_total=float("inf")),
        dict(p_total="1.0"),
        dict(tol_rate=0.0),
        dict(tol_rate=float("nan")),
        dict(tol_power=0.2),
        dict(tol_power=True),
    ):
        with pytest.raises(ValueError):
            _calibrate(trace, **bad)


def test_spent_power_monotone_in_price():
    trace = _trace()
    powers = [
        float(_decisions(Thresholds(0.4, 0.4, g), trace).power.mean())
        for g in (0.02, 0.1, 0.5, 2.0, 10.0)
    ]
    assert all(a >= b for a, b in zip(powers, powers[1:]))
    assert powers[0] > powers[-1]


def test_huge_price_spends_nothing():
    assert _decisions(Thresholds(0.4, 0.4, 1e6), _trace()).power.max() == 0.0


def test_extreme_dual_starves_its_uplink():
    # mu1 near 1 makes receiving user-1 traffic nearly worthless
    dec = _decisions(Thresholds(0.999, 0.4, 0.1), _trace())
    assert dec.up1.mean() < 0.01
    assert balance_residuals(dec)[0] < 0.0


def test_solve_gamma_on_synthetic_curve():
    # spent power ~ 2/gamma, so the unit-budget root is gamma = 2
    def spend(g):
        return 2.0 / g

    gamma, r, _ = match_budget(spend, 1.0, warm=0.001, tol=1e-4)
    assert gamma == pytest.approx(2.0, rel=1e-3)
    assert abs(r) <= 1e-4
    gamma, r, _ = match_budget(spend, 1.0, warm=500.0, tol=1e-4)
    assert gamma == pytest.approx(2.0, rel=1e-3)


def test_match_budget_spends_each_price_once():
    # a step in spent power at gamma = 1.5 (2.0 below, 0.9 from there)
    # against a unit budget: no probe meets the tolerance, the bracket
    # closes on the step, and the price returned is one already probed
    prices = []

    def spend(g):
        prices.append(g)
        return 2.0 if g < 1.5 else 0.9

    gamma, r, _ = match_budget(spend, 1.0, 1.0, 1e-3)
    assert abs(r) > 1e-3
    assert gamma in prices
    assert len(set(prices)) == len(prices)


def _price_solve(spend, p_total, warm, tol, first, remeasure=True):
    """The price solve written out as the reference: a first step of
    first(r), then, with remeasure, |r| / e in log gamma with e measured
    between the last two probes (at least 4 tol, at most x8), else x8;
    closed in log gamma."""
    spent = []

    def resid(g):
        spent.append((g, spend(g)))
        return (spent[-1][1] - p_total) / p_total

    def outward(r):
        g, step = warm, first(r)
        while (g < 1e14) if r > 0.0 else (g > 1e-14):
            g = g * step if r > 0.0 else g / step
            yield g
            (ga, pa), (gb, pb) = spent[-2:]
            e, last = -math.log(pb / pa) / math.log(gb / ga), (pb - p_total) / p_total
            step = math.exp(min(max(abs(last) / e, 4.0 * tol), math.log(8.0))) if remeasure else 8.0

    return find_root(resid, warm, outward, lambda r: abs(r) <= tol, log=True)


def _unhinted_price_solve(spend, p_total, warm, tol):
    """The price solve with no elasticity: a first step of 1 + 2|r| (at
    least 1 + 4 tol), and every later step re-measured."""
    first = lambda r: min(8.0, max(1.0 + 2.0 * abs(r), 1.0 + 4.0 * tol))  # noqa: E731
    return _price_solve(spend, p_total, warm, tol, first)


@pytest.mark.parametrize("e", [1.0, 4.7])
def test_match_budget_first_step_follows_the_measured_elasticity(e):
    # spent power 3 / gamma**e over the elasticities calibration meets from
    # 20 dB down to -20 dB; the first solve measures e, and a second solve
    # at a budget 2 % away, started from the first price with that hint,
    # meets the budget within two probes
    probes = []

    def spend(g):
        probes.append(g)
        return 3.0 / g**e

    tol = 1.25e-3
    gamma, r, hint = match_budget(spend, 1.0, 1.0, tol)
    assert abs(r) <= tol and hint == pytest.approx(e, rel=1e-9)
    for budget in (0.98, 1.02):
        probes.clear()
        _, r, measured = match_budget(spend, budget, gamma, tol, hint)
        assert abs(r) <= tol and len(probes) <= 2
        assert measured == pytest.approx(e, rel=1e-9)
        # with no hint the probes are the fixed first step's, and more
        for warm in (gamma, 1.0):
            probes.clear()
            match_budget(spend, budget, warm, tol)
            unhinted = list(probes)
            probes.clear()
            _unhinted_price_solve(spend, budget, warm, tol)
            assert unhinted == probes and len(probes) > 2


@pytest.mark.parametrize("warm", [3.6, 2.5])
def test_match_budget_walk_re_measures_a_misstated_hint(warm):
    # spent power 3 / gamma, hinted as 3 / gamma**4.7, from a warm start
    # 20 % off: the hinted first step falls short of the root, and the
    # elasticity measured across it sizes the next step, where a x8 walk
    # overshoots and leaves a wide bracket to close
    probes = []

    def spend(g):
        probes.append(g)
        return 3.0 / g

    tol = 1.25e-3
    _, r, measured = match_budget(spend, 1.0, warm, tol, 4.7)
    walked = len(probes)
    assert abs(r) <= tol and measured == pytest.approx(1.0, rel=1e-9)
    probes.clear()
    first = lambda r: math.exp(min(abs(r) / 4.7, math.log(8.0)))  # noqa: E731
    _, r = _price_solve(spend, 1.0, warm, tol, first, remeasure=False)
    assert abs(r) <= tol and walked < len(probes)


def test_match_budget_walk_steps_at_least_four_tolerances():
    # spent power falls steeply (as gamma**-50) from 1.9 times the budget,
    # then slowly (0.002 over a factor 64 in gamma): after the first step
    # |r| / e is 0.0024, under 4 tol = 0.004 in log gamma, so the floor
    # sets the next step, and no two probes of the walk are closer
    probes = []

    def spend(g):
        probes.append(g)
        return 1.0 + 0.9 * g**-50.0 + 0.002 * (1.0 - math.log(g) / math.log(64.0))

    tol = 1e-3
    _, r, _ = match_budget(spend, 1.0, 1.0, tol)
    assert abs(r) <= tol
    steps = [math.log(b / a) for a, b in zip(probes, probes[1:])]
    assert len(steps) >= 3 and all(step > 0.0 for step in steps)
    assert all(step >= 4.0 * tol - 1e-12 for step in steps)
    assert any(step == pytest.approx(4.0 * tol, rel=1e-9) for step in steps)


def test_match_budget_keeps_a_hint_it_cannot_measure():
    # a warm start within tol probes once, and a flat spent power measures
    # no positive elasticity: the hint given comes back
    flat = lambda g: 2.0  # noqa: E731
    assert match_budget(flat, 2.0, 1.0, 1e-3, 2.5)[2] == 2.5
    assert match_budget(flat, 1.0, 1.0, 1e-3, 2.5)[2] == 2.5
    assert match_budget(flat, 1.0, 1.0, 1e-3)[2] is None


def test_balance_duals_on_synthetic_residuals():
    # linear coupled system with a known interior root; the third entry
    # of each value rides along unread
    calls = []

    def residuals(mu1, mu2):
        calls.append((mu1, mu2))
        return 0.56 - mu1 - 0.3 * mu2, 0.62 - mu2 - 0.3 * mu1, "extra"

    (mu1, mu2), probes = balance_duals(residuals, 0.01)
    assert list(probes) == calls  # every probe recorded once, in probe order
    assert (mu1, mu2) in probes
    assert len(probes) <= calibrate_module._MAX_POINTS
    assert mu1 == pytest.approx((0.56 - 0.3 * 0.62) / 0.91, abs=0.02)
    assert mu2 == pytest.approx(0.62 - 0.3 * (0.56 - 0.3 * 0.62) / 0.91, abs=0.02)
    c1, c2, _ = probes[(mu1, mu2)]
    assert max(abs(c1), abs(c2)) <= 0.01
    assert all(value[2] == "extra" for value in probes.values())


def test_balance_duals_inexact_stops_at_the_first_probe_in_band():
    # c1 is 0 from the start, so the forcing-term inner stop is |c2| <= tol / 2
    # until a probe has tol / 2 < |c2| <= tol: the search returns that
    # probe, the first in band, and probes nothing after it
    def residuals(mu1, mu2):
        return 0.5 - mu1, 0.7 - mu2 - 0.1 * (mu1 - 0.5)

    in_band = lambda value: max(map(abs, value)) <= 0.01  # noqa: E731
    point, probes = balance_duals(residuals, 0.01)
    first = next(p for p in probes if in_band(probes[p]))
    assert point == first == list(probes)[-1]
    assert abs(probes[first][1]) > 0.005


def _log_odds(mu):
    return math.log(mu / (1.0 - mu))


def _affine_path_residuals(mu1, mu2):
    """Coupled residuals linear in log-odds: for every u1 the inner root is
    u2 = 0.6 u1 - 0.5, an affine path, and c1 falls along it."""
    u1, u2 = _log_odds(mu1), _log_odds(mu2)
    return 0.2 * (1.5 - u1) + 0.05 * (0.4 - u2), 0.3 * (0.6 * u1 - 0.5 - u2)


def test_balance_duals_inexact_predicts_each_inner_start_along_the_path():
    # from the third inner solve on, the search starts u2 on the
    # line through the last two inner solutions and reaches the root
    # within one probe of that start; restarting from the last inner
    # solution with a 0.1 step, it walked 3 to 7 probes per solve here
    (mu1, mu2), probes = balance_duals(_affine_path_residuals, 1e-3)
    assert max(map(abs, probes[(mu1, mu2)])) <= 1e-3
    solves = [[_log_odds(m2) for _, m2 in group] for _, group in groupby(probes, key=lambda p: p[0])]
    outer = [_log_odds(m1) for m1 in dict.fromkeys(p[0] for p in probes)]
    assert len(solves) >= 4
    for i in range(2, len(solves)):
        (a1, b1), (a2, b2) = outer[i - 2 : i], (solves[i - 2][-1], solves[i - 1][-1])
        assert solves[i][0] == pytest.approx(b2 + (b2 - a2) / (b1 - a1) * (outer[i] - b1), abs=1e-9)
        assert len(solves[i]) <= 2


def test_balance_duals_reports_budget_exhaustion(monkeypatch):
    def residuals(mu1, mu2):
        return 0.9 - mu1, 0.9 - mu2

    monkeypatch.setattr(calibrate_module, "_MAX_POINTS", 3)
    point, probes = balance_duals(residuals, 0.001)
    assert len(probes) <= 3
    assert max(map(abs, probes[point])) > 0.001


def test_balance_duals_handles_saturated_regions():
    # step-like residuals: +8 on one side of the band, -1 on the other,
    # mimicking regimes where a whole traffic direction is unscheduled
    def residuals(mu1, mu2):
        c1 = 0.45 - mu1 + 0.1 * (0.3 - mu2)
        c2 = 0.3 - mu2 + 0.1 * (0.45 - mu1)
        squash = lambda c: 8.0 if c > 0.12 else (-1.0 if c < -0.12 else c)
        return squash(c1), squash(c2)

    (mu1, mu2), probes = balance_duals(residuals, 0.01)
    assert max(map(abs, probes[(mu1, mu2)])) <= 0.01
    assert abs(mu1 - 0.45) < 0.05 and abs(mu2 - 0.3) < 0.05


def test_balance_duals_reaches_duals_at_the_edges():
    # coupled linear residuals balanced at mu1 = 0.9996, mu2 = 2e-4, where
    # strongly asymmetric fading puts the duals: no box around the square
    # keeps the search from them
    def residuals(mu1, mu2):
        return 0.9996 - mu1 + 0.1 * (2e-4 - mu2), 2e-4 - mu2 + 0.1 * (0.9996 - mu1)

    (mu1, mu2), probes = balance_duals(residuals, 1e-5)
    assert max(map(abs, probes[(mu1, mu2)])) <= 1e-5
    assert mu1 > 0.999 and mu2 < 1e-3


def test_balance_duals_reports_the_smallest_bounded_imbalance():
    # c1 jumps from +1.5 to -1 (a direction never scheduled) with no root
    # between, so the search fails; ranked by |c| the -1 probes would win,
    # by |c / (2 + c)| (1 against 0.43) a +1.5 probe does
    def residuals(mu1, mu2):
        return (1.5 if mu1 < 0.7 else -1.0), 0.3 - mu2

    point, probes = balance_duals(residuals, 0.01)
    assert {probes[p][0] for p in probes} == {-1.0, 1.5}
    assert probes[point][0] == 1.5
    rank = calibrate_module.imbalance
    assert rank(probes[point]) == min(map(rank, probes.values()))
    assert rank((-1.0, 0.0)) == 1.0
    assert rank((1.5, -0.5)) == pytest.approx(1.5 / 3.5)


@pytest.mark.parametrize("omegas", [(100.0, 1.0), (1.0, 100.0)])
def test_calibrate_converges_under_strong_asymmetry(omegas):
    # 100:1 fading at -10 dB on the default trace balances with the weak
    # user's dual below 1e-3
    trace = sample_trace(FadingStatistics(*omegas), RunSpec.n_slots, RunSpec.seed)
    res = calibrate(trace, 0.1, RunSpec.tol_rate, RunSpec.tol_power)
    assert res.converged
    assert min(res.thresholds.mu1, res.thresholds.mu2) < 1e-3


def test_calibrate_falls_back_to_a_probe_within_tolerance(monkeypatch):
    # 1:1 fading at -15 dB on this trace: the search ends outside the
    # narrow aim band, and the point it reports is the probe nearest the
    # aim among those whose true residuals meet the tolerances
    calls = []

    def recording(s1, s2, mu1, mu2, gamma, t, gains=None):
        calls.append((mu1, mu2, gamma))
        return decide_trace(s1, s2, mu1, mu2, gamma, t, gains=gains)

    monkeypatch.setattr(calibrate_module, "decide_trace", recording)
    res = _calibrate(_trace(n_slots=10_000, seed=99), p_total=10.0**-1.5)
    assert res.converged
    th = res.thresholds
    assert (th.mu1, th.mu2, th.gamma) in calls
    assert res.residual_c1 <= 0.01 and res.residual_c2 <= 0.01 and res.residual_c3 <= 0.005


def test_calibrate_slot_rule_runs_stay_within_the_measured_count():
    # 1:1 and 10:1 at 0 dB and 100:1 at -10 dB on the default trace take
    # 174 slot-rule runs in all with each inner dual solve started on the
    # line through the last two inner solutions and its first step sized
    # by the slope the last one measured (314 restarting from the last
    # inner solution with a fixed step, 426 also without the price band,
    # the re-measured price walk and the stop at the first probe in band);
    # the bound is that count plus 10 %
    points = ((1.0, 0.0), (10.0, 0.0), (100.0, -10.0))
    total = 0
    for omega1, db in points:
        trace = sample_trace(FadingStatistics(omega1, 1.0), RunSpec.n_slots, RunSpec.seed)
        res = calibrate(trace, 10.0 ** (db / 10.0), RunSpec.tol_rate, RunSpec.tol_power)
        assert res.converged
        total += res.evaluations
    assert total <= 191


def test_calibrate_prices_a_point_to_the_band_it_needs(monkeypatch):
    # 1:1 fading at 0 dB on the default trace: a probe whose true balance
    # residuals meet tol_rate is priced to a quarter of tol_power, and any
    # other, which cannot be reported as converged, to tol_power, a band
    # the search uses
    record = {}

    def recording(*args, **kwargs):
        point, probes = balance_duals(*args, **kwargs)
        record.update(probes)
        return point, probes

    monkeypatch.setattr(calibrate_module, "balance_duals", recording)
    trace = sample_trace(_STATS, RunSpec.n_slots, RunSpec.seed)
    res = calibrate(trace, 1.0, RunSpec.tol_rate, RunSpec.tol_power)
    assert res.converged
    balanced = [max(map(abs, v[3:5])) <= RunSpec.tol_rate for v in record.values()]
    c3 = [abs(v[5]) for v in record.values()]
    assert all(c <= 0.25 * RunSpec.tol_power for c, b in zip(c3, balanced) if b)
    assert all(c <= RunSpec.tol_power for c in c3)
    assert any(c > 0.25 * RunSpec.tol_power for c, b in zip(c3, balanced) if not b)


def test_calibrate_symmetric_point_converges():
    res = _calibrate()
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
    res = _calibrate(_trace(FadingStatistics(5.0, 1.0), seed=7), p_total=10.0)
    assert res.converged
    assert res.thresholds.mu1 > res.thresholds.mu2  # strong link 1 tilts the duals


def test_calibrate_is_deterministic():
    a = _calibrate()
    b = _calibrate()
    assert a == b


def test_calibrate_budget_of_one_cannot_converge(monkeypatch):
    monkeypatch.setattr(calibrate_module, "_MAX_POINTS", 1)
    res = _calibrate()
    assert not res.converged
    assert res.iterations == 1


def test_calibrated_duals_reproduce_residuals():
    # the residuals are those of the probe at the returned point; a fresh
    # run of the slot rule there must give them back
    trace, p_total = _trace(), 1.0
    res = _calibrate(trace, p_total)
    dec = _decisions(res.thresholds, trace)
    c1, c2 = balance_residuals(dec)
    c3 = (float(dec.power.mean()) - p_total) / p_total
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
    result = _calibrate(_trace(stats), p_total=p_total)
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
    result = _calibrate(_trace(n_slots=10_000, seed=1234))
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
    result = _calibrate()
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
    # a start point and a one-point walk to the bracket's other end
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

    x, r = find_root(recording, a, lambda r: [b], done, log=log, xtol=xtol)
    assert probes[:2] == [(a, fa), (b, fb)]
    # every later probe lies strictly inside the bracket left by the probes before it
    bracket = {fa > 0.0: a, fb > 0.0: b}
    for px, pr in probes[2:]:
        assert min(bracket.values()) < px < max(bracket.values())
        bracket[pr > 0.0] = px
    # no point is evaluated twice
    seen = [px for px, _ in probes]
    assert len(set(seen)) == len(seen)
    hits = [i for i, (_, pr) in enumerate(probes) if done(pr)]
    if hits:
        assert hits == [len(probes) - 1] and (x, r) == probes[-1]
    else:
        assert abs(r) == min(abs(v) for _, v in probes) and (x, r) in probes
    warp = math.log if log else float
    width = abs(warp(b) - warp(a))
    assert len(probes) - 2 <= 2 * max(0, math.ceil(math.log2(width / xtol))) + 2


def test_find_root_walk_without_a_sign_change_ends_at_its_last_point():
    probes = []

    def recording(x):
        probes.append(x)
        return x

    assert find_root(recording, 1.0, lambda r: [2.0, 3.0], lambda r: False) == (3.0, 3.0)
    assert probes == [1.0, 2.0, 3.0]


def test_find_root_start_that_is_done_is_evaluated_once():
    probes = []

    def recording(x):
        probes.append(x)
        return x - 1.0

    def walk(r):
        raise AssertionError("walked from a start that was done")

    assert find_root(recording, 1.0, walk, lambda r: r == 0.0) == (1.0, 0.0)
    assert probes == [1.0]


def test_find_root_walk_step_that_does_not_move_ends_the_walk():
    # a price walk whose step rounds to a factor of 1 proposes its start
    # again; that point is not evaluated twice, and the walk ends there
    probes = []

    def recording(x):
        probes.append(x)
        return x - 2.0

    assert find_root(recording, 1.0, lambda r: [1.0, 3.0], lambda r: False) == (1.0, -1.0)
    assert probes == [1.0]


@pytest.mark.parametrize("seed, pt_db", [(1234, -20.0), (7, -20.0), (99, 0.0)])
def test_calibrate_returns_on_a_thirty_slot_trace(seed, pt_db):
    # a price bracket closed across a one-slot jump in spent power measured
    # an elasticity of order 1e14 between two adjacent floats, and the next
    # price walk's first step then rounded to a factor of 1 and probed its
    # warm price again, dividing by a zero log-ratio of prices
    result = calibrate(sample_trace(_STATS, 30, seed), 10.0 ** (pt_db / 10.0), 0.01, 0.005)
    assert isinstance(result, CalibrationResult)
    assert result.evaluations >= result.iterations >= 1


@pytest.mark.parametrize("log", [False, True])
def test_find_root_step_residual_terminates_without_a_cap(log):
    # the residual jumps from -1 to +1 at 0.3 and never enters the band, so
    # only the bracket shrinking to nothing between two floats stops the
    # solve; each two probes at least halve it
    probes = []

    def step(x):
        probes.append(x)
        return 1.0 if x > 0.3 else -1.0

    x, r = find_root(step, 1e-3, lambda r: [1.0], lambda r: abs(r) <= 0.5, log=log)
    assert abs(r) == 1.0 and x in probes
    assert len(set(probes)) == len(probes) <= 2 + 2 * 64
    below = max(p for p in probes if p <= 0.3)
    above = min(p for p in probes if p > 0.3)
    assert math.nextafter(below, 1.0) == above


def test_region_scan_boundary_duals_cannot_balance():
    trace = sample_trace(FadingStatistics(1.0, 1.0), 1500, 2)
    assert threshold_region_scan(trace, 1.0, np.array([0.0, 1.0])) == []


def test_region_scan_interior_point_balances():
    # the balanced set is a thin band through the calibrated interior point,
    # so a fine local grid must hit it while coarse offsets miss it
    trace = sample_trace(FadingStatistics(1.0, 1.0), 4000, 1234)
    balanced = threshold_region_scan(trace, 10.0, np.array([0.36, 0.365, 0.37]), tol_rate=0.05)
    assert 0 < len(balanced) < 9


def test_region_scan_validates_budget():
    trace = sample_trace(FadingStatistics(1.0, 1.0), 50, 0)
    for bad in (0.0, float("nan"), float("inf"), "1"):
        with pytest.raises(ValueError):
            threshold_region_scan(trace, bad, np.array([0.5]))
    for bad in (0.0, 0.5, float("nan"), "0.02"):
        with pytest.raises(ValueError):
            threshold_region_scan(trace, 1.0, np.array([0.5]), tol_rate=bad)
    for bad in ([1.5], [-0.5, 0.4], [float("inf")], [float("nan")]):
        with pytest.raises(ValueError, match="mu_values"):
            threshold_region_scan(trace, 1.0, np.array(bad))


def test_region_scan_prices_each_pair_once(monkeypatch):
    # a pair is judged on the decisions its price solve recorded at the
    # price it returned, so the slot rule never runs twice at one
    # (mu1, mu2, gamma); the balanced pairs are those of pricing each
    # returned price afresh
    calls = []
    decide = calibrate_module.decide_trace

    def recording(s1, s2, mu1, mu2, gamma, t, gains=None):
        calls.append((mu1, mu2, gamma))
        return decide(s1, s2, mu1, mu2, gamma, t, gains=gains)

    monkeypatch.setattr(calibrate_module, "decide_trace", recording)
    trace = sample_trace(FadingStatistics(1.0, 1.0), 4000, 1234)
    grid = [0.36, 0.365, 0.37]
    balanced = threshold_region_scan(trace, 10.0, np.array(grid), tol_rate=0.05)
    assert balanced == [(0.36, 0.37), (0.365, 0.365), (0.37, 0.36)]
    assert len(set(calls)) == len(calls)
    assert list(dict.fromkeys(call[:2] for call in calls)) == [(a, b) for a in grid for b in grid]
