"""Calibration failure map: the operating points where a calibrated
protocol does not converge may only shrink.

The map crosses five fading asymmetries w1:w2 with the budgets -20...20 dB
in 5 dB steps, on the default trace (10 000 slots, seed 1234). FAILING
holds, per protocol, the points that did not converge when the map was
recorded; a point outside it that fails is a regression, and a point in it
that converges is progress. The full map is marked slow (run it with
``-m slow``); Tier-1 runs a subset that holds both kinds of point. Under
``-m slow`` the same rule holds on the traces of seeds 7 and 99, against
the failing points recorded for each, where ``proposed`` fails nowhere.
"""

import functools

import pytest

from birelay.benchmarks import fixed_power_policy
from birelay.calibrate import calibrate
from birelay.channel import FadingStatistics, sample_trace
from birelay.cli import RunSpec

PROTOCOLS = ("proposed", "fixed_power_six_mode", "fixed_power_three_mode")
RATIOS = ((1, 1), (10, 1), (1, 10), (100, 1), (1, 100))
BUDGETS_DB = tuple(range(-20, 25, 5))
MAP = tuple((w1, w2, db) for w1, w2 in RATIOS for db in BUDGETS_DB)
# (1, 100, 0): the six-mode baseline converges there only because a
# dual search from the last round's duals that does not balance runs
# again from the centre
SUBSET = (
    (1, 1, -20),
    (1, 1, 20),
    (10, 1, -15),
    (10, 1, 0),
    (1, 10, 0),
    (100, 1, -10),
    (1, 100, 0),
)


def _span(w1, w2, lo, hi):
    return {(w1, w2, db) for db in BUDGETS_DB if lo <= db <= hi}


# the fixed-power baselines fail at asymmetric fading and low budgets
_THREE_MODE = (
    _span(10, 1, -20, -10) | _span(1, 10, -20, -10) | _span(100, 1, -20, -5) | _span(1, 100, -20, -5)
)
FAILING = {
    "proposed": set(),
    "fixed_power_six_mode": _THREE_MODE | {(100, 1, 0)},
    "fixed_power_three_mode": _THREE_MODE,
}
# the same record on the traces of seeds 7 and 99
FAILING_ON = {
    RunSpec.seed: FAILING,
    7: {
        "proposed": set(),
        "fixed_power_six_mode": _span(10, 1, -20, -10)
        | _span(1, 10, -20, -10)
        | _span(100, 1, -20, 0)
        | _span(1, 100, -20, -5),
        "fixed_power_three_mode": _span(10, 1, -20, -15)
        | _span(1, 10, -20, -15)
        | _span(100, 1, -20, -5)
        | _span(1, 100, -20, -5),
    },
    99: {
        "proposed": set(),
        "fixed_power_six_mode": _span(10, 1, -20, -5)
        | _span(1, 10, -20, -10)
        | _span(100, 1, -20, -5)
        | _span(1, 100, -20, -5),
        "fixed_power_three_mode": _span(10, 1, -20, -10)
        | _span(1, 10, -20, -20)
        | _span(100, 1, -20, -5)
        | _span(1, 100, -20, -5),
    },
}


@functools.cache
def _trace(w1, w2, seed=RunSpec.seed):
    return sample_trace(FadingStatistics(float(w1), float(w2)), RunSpec.n_slots, seed)


def _converged(protocol, w1, w2, db, seed=RunSpec.seed):
    trace = _trace(w1, w2, seed)
    p_total = 10.0 ** (db / 10.0)
    if protocol == "proposed":
        return calibrate(trace, p_total, RunSpec.tol_rate, RunSpec.tol_power).converged
    return fixed_power_policy(protocol, trace, p_total, RunSpec.tol_rate).converged


def _new_failures(protocol, points, seed=RunSpec.seed):
    """The points that fail outside the recorded map of the seed's trace;
    every point runs, so a recorded failure that starts to raise is caught
    too."""
    failed = [pt for pt in points if not _converged(protocol, *pt, seed=seed)]
    return [pt for pt in failed if pt not in FAILING_ON[seed][protocol]]


def test_recorded_map_is_the_stated_one():
    assert len(MAP) == 45
    assert [len(FAILING[p]) for p in PROTOCOLS] == [0, 15, 14]
    assert all(FAILING[p] <= set(MAP) for p in PROTOCOLS)
    assert [len(FAILING_ON[7][p]) for p in PROTOCOLS] == [0, 15, 12]
    assert [len(FAILING_ON[99][p]) for p in PROTOCOLS] == [0, 15, 12]
    assert all(FAILING_ON[s][p] <= set(MAP) for s in (7, 99) for p in PROTOCOLS)
    # the Tier-1 subset holds points that converge and, for every protocol
    # that fails anywhere, points that fail
    for p in PROTOCOLS:
        assert bool(FAILING[p]) == bool(FAILING[p] & set(SUBSET))
        assert len(FAILING[p] & set(SUBSET)) < len(SUBSET)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_failures_stay_inside_the_map_on_the_subset(protocol):
    assert _new_failures(protocol, SUBSET) == []


@pytest.mark.slow
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_failures_stay_inside_the_map(protocol):
    assert _new_failures(protocol, MAP) == []


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 99])
def test_failures_stay_inside_the_map_on_other_traces(seed):
    # the failing points are not a property of the default trace alone: on
    # two other trace seeds the calibration converges at every map point
    # too, and each baseline fails only where it was recorded to
    assert {p: _new_failures(p, MAP, seed) for p in PROTOCOLS} == {p: [] for p in PROTOCOLS}
