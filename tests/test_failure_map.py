"""Calibration failure map: the operating points where a calibrated
protocol does not converge may only shrink.

The map crosses five fading asymmetries w1:w2 with the budgets -20...20 dB
in 5 dB steps, on the default trace (10 000 slots, seed 1234). FAILING
holds, per protocol, the points that did not converge when the map was
recorded; a point outside it that fails is a regression, and a point in it
that converges is progress. The full map is marked slow (run it with
``-m slow``); Tier-1 runs a subset that holds both kinds of point.
"""

import functools

import pytest

from birelay.benchmarks import BenchmarkConfig, fixed_power_policy
from birelay.calibrate import CalibrationConfig, calibrate
from birelay.channel import FadingStatistics, sample_trace

PROTOCOLS = ("proposed", "fixed_power_six_mode", "fixed_power_three_mode")
RATIOS = ((1, 1), (10, 1), (1, 10), (100, 1), (1, 100))
BUDGETS_DB = tuple(range(-20, 25, 5))
MAP = tuple((w1, w2, db) for w1, w2 in RATIOS for db in BUDGETS_DB)
SUBSET = ((1, 1, -20), (1, 1, 20), (10, 1, -15), (10, 1, 0), (1, 10, 0), (100, 1, -10))


def _span(w1, w2, lo, hi):
    return {(w1, w2, db) for db in BUDGETS_DB if lo <= db <= hi}


_STRONG = _span(100, 1, -20, 5) | _span(1, 100, -20, 5)
_SIX_MODE = _span(10, 1, -20, 0) | _span(1, 10, -20, 0) | _STRONG
FAILING = {
    "proposed": {(10, 1, -15)} | _STRONG,
    "fixed_power_six_mode": _SIX_MODE,
    "fixed_power_three_mode": _SIX_MODE - {(1, 10, 0)},
}


@functools.cache
def _trace(w1, w2):
    return sample_trace(FadingStatistics(float(w1), float(w2)), 10_000, 1234)


def _converged(protocol, w1, w2, db):
    trace = _trace(w1, w2)
    p_total = 10.0 ** (db / 10.0)
    if protocol == "proposed":
        return calibrate(CalibrationConfig(stats=trace.stats, p_total=p_total), trace).converged
    return fixed_power_policy(BenchmarkConfig(kind=protocol, p_total=p_total), trace).converged


def _new_failures(protocol, points):
    """The points that fail outside the recorded map; every point runs, so
    a recorded failure that starts to raise is caught too."""
    failed = [pt for pt in points if not _converged(protocol, *pt)]
    return [pt for pt in failed if pt not in FAILING[protocol]]


def test_recorded_map_is_the_stated_one():
    assert len(MAP) == 45
    assert [len(FAILING[p]) for p in PROTOCOLS] == [13, 22, 21]
    assert all(FAILING[p] <= set(MAP) for p in PROTOCOLS)
    # the Tier-1 subset holds points that converge and points that fail
    for p in PROTOCOLS:
        assert 0 < len(FAILING[p] & set(SUBSET)) < len(SUBSET)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_failures_stay_inside_the_map_on_the_subset(protocol):
    assert _new_failures(protocol, SUBSET) == []


@pytest.mark.slow
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_failures_stay_inside_the_map(protocol):
    assert _new_failures(protocol, MAP) == []
