"""Baseline protocols: schedules, budgets, calibration hooks."""

import numpy as np
import pytest

from birelay import benchmarks
from birelay.benchmarks import (
    KINDS,
    BenchmarkConfig,
    _fixed_eval,
    fixed_power_policy,
    tdbc_policy,
)
from birelay.channel import FadingStatistics, sample_trace
from birelay.engine import run
from birelay.policy import balance_residuals
from birelay.rate import PowerTriple, link_capacities

_STATS = FadingStatistics(1.0, 1.0)
_CYCLE = {1: 1, 2: 2, 0: 6}  # slot index mod 3 -> mode


def _trace(n=2000, seed=3, stats=_STATS):
    return sample_trace(stats, n, seed)


def test_config_validated():
    with pytest.raises(ValueError):
        BenchmarkConfig(kind="bogus", p_total=1.0)
    with pytest.raises(ValueError):
        BenchmarkConfig(kind="tdbc_pa", p_total=0.0)
    for bad in (float("nan"), float("inf"), "1.0", True):
        with pytest.raises(ValueError):
            BenchmarkConfig(kind="tdbc_pa", p_total=bad)


def test_tdbc_no_pa_schedule_and_budget():
    trace = _trace(n=9)
    prep = tdbc_policy(BenchmarkConfig(kind="tdbc_no_pa", p_total=2.0), trace)
    assert prep.converged
    dec = prep.decide(trace)
    assert dec.mode.tolist() == [_CYCLE[k % 3] for k in range(1, 10)]
    # every active node transmits at the full per-node budget
    assert dec.power.tolist() == [2.0] * 9
    rep = run(trace, prep.decide)
    assert rep.avg_power == pytest.approx(2.0)
    assert rep.mode_freq[0] == pytest.approx(3 / 9)
    assert rep.mode_freq[1] == pytest.approx(3 / 9)
    assert rep.mode_freq[5] == pytest.approx(3 / 9)


def test_tdbc_pa_waterfills_to_the_budget():
    trace = _trace()
    prep = tdbc_policy(BenchmarkConfig(kind="tdbc_pa", p_total=1.0), trace)
    assert prep.converged
    rep = run(trace, prep.decide)
    assert abs(rep.avg_power - 1.0) / 1.0 <= 0.01
    # water-filling must zero out deep fades at this budget
    spent = prep.decide(trace).power
    assert spent.min() == 0.0
    assert spent.max() > 1.0


def test_tdbc_pa_keeps_the_cycle():
    trace = _trace(n=300)
    prep = tdbc_policy(BenchmarkConfig(kind="tdbc_pa", p_total=1.0), trace)
    assert prep.decide(trace).mode.tolist() == [_CYCLE[k % 3] for k in range(1, 301)]


def test_tdbc_frames_are_self_contained():
    n, p = 9, 2.0
    trace = _trace(n=n)
    prep = tdbc_policy(BenchmarkConfig(kind="tdbc_no_pa", p_total=p), trace)
    rep = run(trace, prep.decide)
    s1, s2 = trace.s1, trace.s2
    # frame f delivers min(uplink, same-frame broadcast) in each direction
    want_r2 = float(np.minimum(np.log2(1 + p * s1[0::3]), np.log2(1 + p * s2[2::3])).sum()) / n
    want_r1 = float(np.minimum(np.log2(1 + p * s2[1::3]), np.log2(1 + p * s1[2::3])).sum()) / n
    assert rep.r_r2 == pytest.approx(want_r2, rel=1e-12)
    assert rep.r_r1 == pytest.approx(want_r1, rel=1e-12)
    # everything ingested leaves in the same frame, so the buffers end
    # empty up to the rounding of the running sums
    assert rep.final_queues.q1 == pytest.approx(0.0, abs=1e-12)
    assert rep.final_queues.q2 == pytest.approx(0.0, abs=1e-12)
    assert rep.r_1r == pytest.approx(rep.r_r2, rel=1e-14)
    assert rep.r_2r == pytest.approx(rep.r_r1, rel=1e-14)


def test_tdbc_tail_frame_carries_nothing():
    # the third frame has both uplink slots but no broadcast slot
    n, p = 8, 1.0
    trace = _trace(n=n)
    prep = tdbc_policy(BenchmarkConfig(kind="tdbc_no_pa", p_total=p), trace)
    rep = run(trace, prep.decide)
    s1, s2 = trace.s1, trace.s2
    # only the two complete frames deliver; the tail spends power on air
    want_r2 = float(np.minimum(np.log2(1 + p * s1[0:6:3]), np.log2(1 + p * s2[2:6:3])).sum()) / n
    dec = prep.decide(trace)
    assert dec.up1[6] == dec.up2[7] == 0.0
    assert rep.final_queues.q1 == pytest.approx(0.0, abs=1e-12)
    assert rep.final_queues.q2 == pytest.approx(0.0, abs=1e-12)
    assert rep.avg_power == pytest.approx(1.0)
    assert rep.r_r2 == pytest.approx(want_r2, rel=1e-12)


def test_tdbc_uplink_rate_is_frame_capped():
    trace = _trace(n=300)
    prep = tdbc_policy(BenchmarkConfig(kind="tdbc_pa", p_total=1.0), trace)
    dec = prep.decide(trace)
    for f in range(100):
        i1, i2, ib = 3 * f, 3 * f + 1, 3 * f + 2
        own1 = np.log2(1.0 + dec.power[i1] * trace.s1[i1])
        own2 = np.log2(1.0 + dec.power[i2] * trace.s2[i2])
        assert dec.up1[i1] == pytest.approx(min(own1, dec.down2[ib]), rel=1e-12)
        assert dec.up2[i2] == pytest.approx(min(own2, dec.down1[ib]), rel=1e-12)
        # the broadcast slot's capacities are the relay's links at its power
        r = link_capacities(trace.state(ib + 1), PowerTriple(0.0, 0.0, dec.power[ib]), 0.0)
        assert dec.down1[ib] == pytest.approx(r.cr1, rel=1e-12)
        assert dec.down2[ib] == pytest.approx(r.cr2, rel=1e-12)


def test_fixed_power_three_mode_spends_exactly_the_budget():
    trace = _trace()
    prep = fixed_power_policy(
        BenchmarkConfig(kind="fixed_power_three_mode", p_total=1.0), trace
    )
    assert prep.converged
    assert prep.fixed_power == pytest.approx(1.0)
    dec = prep.decide(trace)
    assert set(dec.mode.tolist()) <= {1, 2, 6}
    assert dec.power == pytest.approx(np.ones(len(trace)))
    rep = run(trace, prep.decide)
    assert rep.avg_power == pytest.approx(1.0)


def test_fixed_power_six_mode_balances_average_spend():
    trace = _trace()
    prep = fixed_power_policy(
        BenchmarkConfig(kind="fixed_power_six_mode", p_total=1.0), trace
    )
    assert prep.converged
    rep = run(trace, prep.decide)
    assert abs(rep.avg_power - 1.0) / 1.0 <= 0.01
    # joint uplink slots spend double, so the per-slot level sits below budget
    assert prep.fixed_power < 1.0 or rep.mode_freq[2] == 0.0
    # the duals balance the multiple-access split that actually runs: each
    # buffer's scheduled inflow meets its service within the rate tolerance
    dec = prep.decide(trace)
    assert abs(dec.up1.mean() / dec.down2.mean() - 1.0) <= 0.01
    assert abs(dec.up2.mean() / dec.down1.mean() - 1.0) <= 0.01


def test_every_kind_produces_throughput():
    trace = _trace(n=600)
    for kind in KINDS:
        cfg = BenchmarkConfig(kind=kind, p_total=1.0)
        maker = tdbc_policy if kind.startswith("tdbc") else fixed_power_policy
        prep = maker(cfg, trace)
        assert prep.name == kind
        rep = run(trace, prep.decide)
        assert rep.sum_rate > 0.0


def test_six_mode_downlink_slots_reach_single_transmitter_budget():
    trace = _trace()
    prep = fixed_power_policy(
        BenchmarkConfig(kind="fixed_power_six_mode", p_total=1.0), trace
    )
    dec = prep.decide(trace)
    seen = set(dec.mode.tolist())
    assert 6 in seen
    assert seen & {1, 2, 3}
    # downlink slots spend one transmitter's power, joint uplinks two
    assert dec.power[dec.mode == 6] == pytest.approx(prep.fixed_power)
    assert dec.power[dec.mode == 3] == pytest.approx(2.0 * prep.fixed_power)


def test_fixed_power_rates_match_link_capacities():
    # the array path's rates are the per-slot link capacities at t = 0.5
    trace = _trace(n=300)
    prep = fixed_power_policy(
        BenchmarkConfig(kind="fixed_power_six_mode", p_total=1.0), trace
    )
    dec = prep.decide(trace)
    p = prep.fixed_power
    for i in range(len(trace)):
        m = int(dec.mode[i])
        triple = PowerTriple(p if m in (1, 3) else 0.0, p if m in (2, 3) else 0.0, p if m > 3 else 0.0)
        r = link_capacities(trace.state(i + 1), triple, 0.5)
        want = {1: (r.c1r, 0, 0, 0), 2: (0, r.c2r, 0, 0), 3: (r.c12r, r.c21r, 0, 0),
                4: (0, 0, r.cr1, 0), 5: (0, 0, 0, r.cr2), 6: (0, 0, r.cr1, r.cr2)}[m]
        got = (dec.up1[i], dec.up2[i], dec.down1[i], dec.down2[i])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def _fixed_six(s1, s2, mu1, mu2, power=2.0):
    return _fixed_eval(np.array(s1), np.array(s2), mu1, mu2, power, (1, 2, 3, 4, 5, 6), 0.5)


def test_fixed_eval_tie_between_downlinks_goes_to_mode_4():
    # with link 2 dead the broadcast mode's metric equals mode 4's exactly,
    # and mu2 > 1 - mu1 puts both above every uplink mode
    dec = _fixed_six([1.5, 0.7], [0.0, 0.0], 0.8, 0.5)
    assert dec.mode.tolist() == [4, 4]
    assert np.array_equal(dec.down1, np.log2(1.0 + 2.0 * np.array([1.5, 0.7])))
    assert np.array_equal(dec.down2, np.zeros(2))
    assert np.array_equal(dec.power, np.full(2, 2.0))


def test_fixed_eval_tie_between_uplink_and_downlink_goes_to_mode_1():
    # 1 - mu1 == mu2 exactly: modes 1 and 4 score the same (and, with link
    # 2 dead, so do 3 and 6), and the lowest mode wins
    assert 1.0 - 0.75 == 0.25
    dec = _fixed_six([1.5, 0.7], [0.0, 0.0], 0.75, 0.25)
    assert dec.mode.tolist() == [1, 1]
    assert np.array_equal(dec.up1, np.log2(1.0 + 2.0 * np.array([1.5, 0.7])))
    assert np.array_equal(dec.down1 + dec.down2 + dec.up2, np.zeros(2))


def test_fixed_power_preparation_never_repeats_an_evaluation(monkeypatch):
    calls = []
    select = benchmarks._fixed_select

    def recording(caps, mu1, mu2, power, modes):
        calls.append((mu1, mu2, power))
        return select(caps, mu1, mu2, power, modes)

    monkeypatch.setattr(benchmarks, "_fixed_select", recording)
    trace = _trace()
    for kind in ("fixed_power_six_mode", "fixed_power_three_mode"):
        for p_total in (0.1, 10.0):
            calls.clear()
            fixed_power_policy(BenchmarkConfig(kind=kind, p_total=p_total), trace)
            assert len(calls) > 10
            assert len(set(calls)) == len(calls)


def test_six_mode_off_budget_is_not_converged(monkeypatch):
    # a power solve that ends off the budget (here: always at the bracket's
    # low end) must not be reported as converged, though the buffers balance
    monkeypatch.setattr(benchmarks, "find_root", lambda f, a, fa, b, fb, done, **kw: (a, fa))
    trace = _trace()
    prep = fixed_power_policy(BenchmarkConfig(kind="fixed_power_six_mode", p_total=1.0), trace)
    assert prep.fixed_power == 0.45
    c1, c2 = balance_residuals(prep.decide(trace))
    assert abs(c1) <= 0.01 and abs(c2) <= 0.01
    assert not prep.converged


def _count_capacity_steps(monkeypatch):
    powers = []
    caps = benchmarks._fixed_caps

    def counting(s1, s2, power, modes, t):
        powers.append(power)
        return caps(s1, s2, power, modes, t)

    monkeypatch.setattr(benchmarks, "_fixed_caps", counting)
    return powers


def test_fixed_power_capacities_are_computed_once_per_power(monkeypatch):
    powers = _count_capacity_steps(monkeypatch)
    trace = sample_trace(_STATS, 10_000, 1234)
    for db in (-20.0, 0.0, 20.0):
        p_total = 10.0 ** (db / 10.0)
        powers.clear()
        fixed_power_policy(BenchmarkConfig(kind="fixed_power_three_mode", p_total=p_total), trace)
        assert powers == [p_total]
        # the nested power solve this replaced ran _fixed_eval 1019/428/184 times
        powers.clear()
        fixed_power_policy(BenchmarkConfig(kind="fixed_power_six_mode", p_total=p_total), trace)
        assert 3 <= len(powers) <= 40
        assert len(set(powers)) == len(powers)


@pytest.mark.parametrize(
    "omega1, pt_db",
    [(1.0, db) for db in (-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)]
    + [(10.0, 10.0), (10.0, 20.0)],
)
def test_fixed_power_six_mode_converges_on_the_sweep(omega1, pt_db):
    # judged afresh at the returned point, not on the solver's own numbers
    trace = sample_trace(FadingStatistics(omega1, 1.0), 10_000, 1234)
    p_total = 10.0 ** (pt_db / 10.0)
    prep = fixed_power_policy(BenchmarkConfig(kind="fixed_power_six_mode", p_total=p_total), trace)
    assert prep.converged
    six = (1, 2, 3, 4, 5, 6)
    dec = _fixed_eval(trace.s1, trace.s2, prep.mu1, prep.mu2, prep.fixed_power, six, 0.5)
    assert abs(dec.power.mean() - p_total) / p_total <= 1e-4
    c1, c2 = balance_residuals(dec)
    assert abs(c1) <= 0.01 and abs(c2) <= 0.01
