"""Channel trace sampling: distribution, determinism, container behavior."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from birelay.channel import ChannelTrace, FadingStatistics, sample_trace


def test_sample_trace_is_bit_identical():
    a = sample_trace(FadingStatistics(1.5, 0.7), 500, 42)
    b = sample_trace(FadingStatistics(1.5, 0.7), 500, 42)
    assert np.array_equal(a.s1, b.s1)
    assert np.array_equal(a.s2, b.s2)
    c = sample_trace(FadingStatistics(1.5, 0.7), 500, 43)
    assert not np.array_equal(a.s1, c.s1)


def test_sample_trace_frozen_first_draws():
    # pins the inverse-CDF construction on the seeded 64-bit generator
    tr = sample_trace(FadingStatistics(1.0, 1.0), 5, 7)
    assert tr.s1[0] == pytest.approx(0.9810838630345526, rel=0, abs=0)
    assert tr.s1[1] == pytest.approx(2.275104185650305, rel=0, abs=0)
    assert tr.s2[0] == pytest.approx(2.0679355533410644, rel=0, abs=0)
    assert tr.s2[1] == pytest.approx(0.005279215132056956, rel=0, abs=0)


def test_sample_trace_peak_memory_is_draws_plus_trace():
    # the gains are computed in the buffer of uniform draws, so drawing
    # holds that buffer and the trace's own copies (four floats a slot),
    # not a temporary per link on top
    n = 10_000
    sample_trace(FadingStatistics(1.0, 1.0), 10, 1)  # first-call setup
    tracemalloc.start()
    try:
        sample_trace(FadingStatistics(1.0, 1.0), n, 1234)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * n


def test_empirical_means_match_statistics():
    tr = sample_trace(FadingStatistics(2.0, 0.5), 40_000, 11)
    m1, m2 = tr.s1.mean(), tr.s2.mean()
    assert abs(m1 - 2.0) / 2.0 < 0.05
    assert abs(m2 - 0.5) / 0.5 < 0.05


def test_gains_are_exponential():
    tr = sample_trace(FadingStatistics(1.8, 1.0), 20_000, 3)
    # Kolmogorov-Smirnov at the 1% level: D*sqrt(n) below 1.628
    for arr, omega in ((tr.s1, 1.8), (tr.s2, 1.0)):
        d = sps.kstest(arr, "expon", args=(0.0, omega)).statistic
        assert d * np.sqrt(arr.size) < 1.628


def test_gains_are_independent_across_slots_and_links():
    tr = sample_trace(FadingStatistics(1.0, 1.0), 20_000, 5)
    lag1 = np.corrcoef(tr.s1[:-1], tr.s1[1:])[0, 1]
    cross = np.corrcoef(tr.s1, tr.s2)[0, 1]
    assert abs(lag1) < 0.05
    assert abs(cross) < 0.05


def test_validation_errors():
    with pytest.raises(ValueError):
        FadingStatistics(0.0, 1.0)
    with pytest.raises(ValueError):
        FadingStatistics(1.0, -2.0)
    with pytest.raises(ValueError):
        sample_trace(FadingStatistics(1.0, 1.0), 0, 1)
    with pytest.raises(ValueError):
        sample_trace(FadingStatistics(1.0, 1.0), "7", 1)
    with pytest.raises(ValueError):
        sample_trace(FadingStatistics(1.0, 1.0), 10, 1.5)
    with pytest.raises(ValueError):
        FadingStatistics(float("inf"), 1.0)
    with pytest.raises(ValueError):
        FadingStatistics(float("nan"), 1.0)


def test_trace_container_behavior():
    tr = sample_trace(FadingStatistics(1.0, 2.0), 10, 9)
    assert len(tr) == 10
    with pytest.raises(ValueError):
        tr.s1[0] = 5.0  # arrays are read-only
    with pytest.raises(TypeError):
        iter(tr)  # slots are read through the arrays


def test_trace_owns_its_gains():
    # the trace checks and freezes copies: a later write to the caller's
    # array neither reaches the trace nor fails, and a list is accepted
    base = np.ones(6)
    tr = ChannelTrace(s1=base[:3], s2=base[3:])
    base[0] = -5.0
    assert tr.s1.tolist() == [1.0, 1.0, 1.0]
    assert not tr.s1.flags.writeable and not tr.s2.flags.writeable
    listed = ChannelTrace(s1=[1, 2], s2=[0.5, 0.0])
    assert listed.s1.dtype == np.float64 and listed.s2.tolist() == [0.5, 0.0]


def test_trace_rejects_mismatched_arrays():
    with pytest.raises(ValueError):
        ChannelTrace(s1=np.ones(3), s2=np.ones(4))


def test_trace_rejects_empty_negative_and_non_finite_gains():
    # on such a trace calibration cannot converge (a negative gain) or
    # reports NaN residuals (no slot), so the trace itself refuses it
    for bad in (-1.0, -1e-300, float("nan"), float("inf"), -float("inf")):
        for s1, s2 in ((np.array([1.0, bad]), np.ones(2)), (np.ones(2), np.array([bad, 1.0]))):
            with pytest.raises(ValueError):
                ChannelTrace(s1=s1, s2=s2)
    with pytest.raises(ValueError):
        ChannelTrace(s1=np.zeros(0), s2=np.zeros(0))
    # zero gains (a dead link) and a single slot are a valid trace
    trace = ChannelTrace(s1=np.zeros(1), s2=np.array([3.0]))
    assert len(trace) == 1
