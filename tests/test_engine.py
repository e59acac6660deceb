"""Queue dynamics and run accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birelay.channel import ChannelTrace, FadingStatistics, sample_trace
from birelay.engine import _lindley, run
from birelay.policy import Thresholds, TraceDecisions, proposed_policy
from rate_reference import PowerTriple, link_capacities

_STATS = FadingStatistics(1.0, 1.0)


def _decisions(mode, up1=None, up2=None, down1=None, down2=None, power=None):
    n = len(mode)

    def arr(x):
        return np.zeros(n) if x is None else np.asarray(x, dtype=float)

    return TraceDecisions(
        mode=np.asarray(mode),
        power=arr(power),
        up1=arr(up1),
        up2=arr(up2),
        down1=arr(down1),
        down2=arr(down2),
    )


def _run(dec):
    """Run fixed decisions over a trace of matching length."""
    n = len(dec.mode)
    trace = ChannelTrace(stats=_STATS, s1=np.ones(n), s2=np.ones(n))
    return run(trace, lambda tr: dec)


def _reference(dec):
    """Slot-by-slot buffers: arrivals add, service drains min(capacity,
    buffer) from the level at the start of the slot."""
    q1 = q2 = out1 = out2 = 0.0
    for a1, a2, c1, c2 in zip(dec.up1, dec.up2, dec.down1, dec.down2):
        d1, d2 = min(c1, q2), min(c2, q1)
        q1 += a1 - d2
        q2 += a2 - d1
        out1 += d1
        out2 += d2
    return q1, q2, out1, out2


def test_uplink_modes_fill_buffers():
    ch = (3.0, 1.0)  # one slot's squared gains (s1, s2)
    c1r = link_capacities(*ch, PowerTriple(1.0, 0.0, 0.0), 0.0).c1r
    c2r = link_capacities(*ch, PowerTriple(0.0, 1.0, 0.0), 0.0).c2r
    assert (c1r, c2r) == (2.0, 1.0)  # log2(1+3), log2(1+1)
    rep = _run(_decisions([1, 2, 1], up1=[c1r, 0.0, 0.5], up2=[0.0, c2r, 0.0]))
    assert (rep.q1, rep.q2) == (2.5, 1.0)
    assert (rep.r_1r, rep.r_2r) == (2.5 / 3, 1.0 / 3)
    assert rep.r_r1 == rep.r_r2 == 0.0
    assert rep.mode_freq == (2 / 3, 1 / 3, 0.0, 0.0, 0.0, 0.0)


def test_joint_uplink_fills_both():
    r = link_capacities(1.5, 2.5, PowerTriple(1.0, 1.0, 0.0), 1.0)
    rep = _run(_decisions([3], up1=[r.c12r], up2=[r.c21r]))
    assert rep.q1 == pytest.approx(1.3219280948873624)
    assert rep.q2 == pytest.approx(1.0)
    assert rep.r_1r == pytest.approx(1.3219280948873624)
    assert rep.mode_freq[2] == 1.0


def test_downlink_modes_clip_to_buffer():
    # mode 4 serves user 1 out of buffer 2: capacity 2.0 clipped to 0.7
    rep = _run(_decisions([2, 4], up2=[0.7, 0.0], down1=[0.0, 2.0]))
    assert rep.r_r1 * 2 == pytest.approx(0.7)
    assert (rep.q1, rep.q2) == (0.0, 0.0)
    # mode 5 serves user 2 out of buffer 1: capacity 1.0, buffer has more
    rep = _run(_decisions([1, 5], up1=[5.0, 0.0], down2=[0.0, 1.0]))
    assert rep.r_r2 * 2 == pytest.approx(1.0)
    assert rep.q1 == pytest.approx(4.0)
    # service on an empty buffer delivers nothing
    rep = _run(_decisions([4, 5, 6], down1=[1.0, 0.0, 3.0], down2=[0.0, 1.0, 3.0]))
    assert rep.sum_rate == 0.0
    assert (rep.q1, rep.q2) == (0.0, 0.0)


def test_broadcast_serves_both_from_pre_slot_levels():
    # cr1 = cr2 = 2.0 at pr = 1 on gains (3, 3)
    r = link_capacities(3.0, 3.0, PowerTriple(0.0, 0.0, 1.0), 0.0)
    rep = _run(
        _decisions([1, 2, 6], up1=[1.0, 0, 0], up2=[0, 3.0, 0], down1=[0, 0, r.cr1], down2=[0, 0, r.cr2])
    )
    assert rep.r_r1 * 3 == pytest.approx(2.0)  # from buffer 2
    assert rep.r_r2 * 3 == pytest.approx(1.0)  # from buffer 1, clipped
    assert rep.q1 == pytest.approx(0.0)
    assert rep.q2 == pytest.approx(1.0)


def test_service_before_the_only_arrival_delivers_nothing():
    # the running sums give a final level of 0.1 + 9e-17 here, more than
    # arrived, which read as a negative delivered rate
    rep = _run(_decisions([6, 2], up2=[0.0, 0.1], down1=[1.1, 0.0]))
    assert rep.r_r1 == 0.0
    assert rep.q2 == 0.1


def test_service_before_the_only_arrival_leaves_no_rounding_residue():
    # the running sums leave 1.1e-16 delivered out of a buffer that was
    # served (1.3485) before its only arrival (0.33994)
    assert _lindley(np.array([0.0, 0.33994]), np.array([1.3485, 0.0])) == (0.33994, 0.33994, 0.0)
    rep = _run(_decisions([6, 1], up1=[0.0, 0.33994], down2=[1.3485, 0.0]))
    assert rep.r_r2 == 0.0
    assert rep.q1 == 0.33994


def test_run_rejects_unknown_mode():
    for bad in ([7], [0], [-1], [1.0]):
        with pytest.raises(ValueError):
            _run(_decisions(bad))
    with pytest.raises(ValueError):
        _run(_decisions([1, 2], up1=[1.0, -1e-9]))
    with pytest.raises(ValueError):
        _run(_decisions([6], down1=[float("nan")]))
    with pytest.raises(ValueError):
        _run(_decisions([1, 2], up1=[1.0]))


@pytest.mark.parametrize("flow", ["power", "up1", "up2", "down1", "down2"])
def test_run_rejects_an_infinite_decision(flow):
    # +inf passes a plain ">= 0" test; it would be reported as an infinite
    # power or a NaN rate
    dec = _decisions([1, 2, 6], **{flow: [0.5, np.inf, 0.5]})
    with pytest.raises(ValueError, match="finite and nonnegative"):
        _run(dec)


def test_run_empty_trace_guards():
    # a one-slot trace is the minimum: the sampler refuses zero slots, and
    # so does the trace itself, so no empty trace reaches run
    with pytest.raises(ValueError):
        sample_trace(_STATS, 0, 1)
    with pytest.raises(ValueError):
        ChannelTrace(stats=_STATS, s1=np.zeros(0), s2=np.zeros(0))
    assert _run(_decisions([6])).n_slots == 1


def test_run_accounting_and_conservation():
    trace = sample_trace(_STATS, 2000, 13)
    policy = proposed_policy(Thresholds(0.37, 0.36, 0.09), _STATS)
    report = run(trace, policy)
    n = report.n_slots
    assert n == 2000
    assert sum(report.mode_freq) == pytest.approx(1.0, abs=1e-12)
    assert report.sum_rate == pytest.approx(report.r_r1 + report.r_r2, rel=1e-12)
    # delivered bits can never exceed ingested bits, direction by direction
    assert report.r_r2 * n <= report.r_1r * n + 1e-9
    assert report.r_r1 * n <= report.r_2r * n + 1e-9
    # ingested minus delivered sits in the final buffers, exactly
    assert report.q1 == pytest.approx(
        (report.r_1r - report.r_r2) * n, rel=1e-9, abs=1e-9
    )
    assert report.q2 == pytest.approx(
        (report.r_2r - report.r_r1) * n, rel=1e-9, abs=1e-9
    )
    assert report.avg_power > 0.0
    # the closed-form recursion matches the slot-by-slot buffers
    q1, q2, out1, out2 = _reference(policy(trace))
    assert report.q1 == pytest.approx(q1, rel=1e-12, abs=1e-9)
    assert report.q2 == pytest.approx(q2, rel=1e-12, abs=1e-9)
    assert report.r_r1 == pytest.approx(out1 / n, rel=1e-12)
    assert report.r_r2 == pytest.approx(out2 / n, rel=1e-12)


def test_run_is_deterministic():
    stats = FadingStatistics(1.3, 0.8)
    trace = sample_trace(stats, 500, 99)
    policy = proposed_policy(Thresholds(0.42, 0.33, 0.2), stats)
    a = run(trace, policy)
    b = run(trace, policy)
    assert a == b


def test_run_respects_policy_modes():
    trace = sample_trace(_STATS, 300, 5)

    def uplink_only(tr):
        n = len(tr)
        return _decisions([1] * n, up1=np.log2(1.0 + tr.s1), power=np.ones(n))

    report = run(trace, uplink_only)
    assert report.mode_freq[0] == 1.0
    assert report.r_r1 == report.r_r2 == 0.0
    assert report.q1 == pytest.approx(report.r_1r * 300, rel=1e-12)
    assert report.avg_power == pytest.approx(1.0, rel=1e-12)


_rate = st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), _rate, _rate), min_size=1, max_size=300))
def test_run_matches_sequential_buffers(slots):
    # each mode moves only its own flows: 1-3 fill, 4-6 serve
    mode = [m for m, _, _ in slots]
    dec = _decisions(
        mode,
        up1=[a if m in (1, 3) else 0.0 for m, a, _ in slots],
        up2=[b if m in (2, 3) else 0.0 for m, _, b in slots],
        down1=[a if m in (4, 6) else 0.0 for m, a, _ in slots],
        down2=[b if m in (5, 6) else 0.0 for m, _, b in slots],
        power=[a + b for _, a, b in slots],
    )
    rep = _run(dec)
    n = len(slots)
    q1, q2, out1, out2 = _reference(dec)
    scale = 1e-12 * (1.0 + sum(a + b for _, a, b in slots))
    assert rep.q1 == pytest.approx(q1, abs=scale)
    assert rep.q2 == pytest.approx(q2, abs=scale)
    assert rep.r_r1 * n == pytest.approx(out1, abs=scale)
    assert rep.r_r2 * n == pytest.approx(out2, abs=scale)
    # never more out than in, nor less than nothing, direction by direction;
    # and never more left over than arrived
    assert 0.0 <= rep.r_r2 <= rep.r_1r
    assert 0.0 <= rep.r_r1 <= rep.r_2r
    assert 0.0 <= rep.q1
    assert 0.0 <= rep.q2
    assert rep.q1 / n <= rep.r_1r
    assert rep.q2 / n <= rep.r_2r
    assert rep.mode_freq == tuple(mode.count(k) / n for k in range(1, 7))
