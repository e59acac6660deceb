"""Metamorphic properties of the calibrated protocols, on transformed traces.

Each calibration runs on a drawn trace and on a transformed copy built by
hand, and the two results must agree as the model says:

* swap: exchanging the links (s1 with s2) exchanges mu1 with mu2 and
  keeps the sum rate, the power price and the common power;
* scale: gains times 4 at a quarter of the budget keeps every capacity, so
  the duals and the sum rate stay, the power price is 4 times as large
  and the common power a quarter as large. Times 4 is exact in floating
  point.

Bounds: duals within 5e-3, sum rates within the rate tolerance
(relative), power price and common power within 1 %. The calibrated
protocol is judged on its unclipped rate, which its calibration balances;
the fixed-power baselines on the engine's delivered rate.
"""

import pytest

from birelay.benchmarks import fixed_power_policy
from birelay.calibrate import calibrate
from birelay.channel import ChannelTrace, FadingStatistics, sample_trace
from birelay.engine import run
from birelay.policy import proposed_policy

TOL_RATE, TOL_POWER = 0.01, 0.005
MU_BOUND = 5e-3


def _trace(omega1, omega2):
    return sample_trace(FadingStatistics(omega1, omega2), 3000, 11)


def _swapped(trace):
    return ChannelTrace(s1=trace.s2, s2=trace.s1)


def _scaled(trace, k=4.0):
    return ChannelTrace(s1=k * trace.s1, s2=k * trace.s2)


def _proposed(trace, p_total):
    """Calibrated duals and price, and the unclipped sum rate they give."""
    result = calibrate(trace, p_total, TOL_RATE, TOL_POWER)
    assert result.converged
    th = result.thresholds
    dec = proposed_policy(th)(trace)
    return th.mu1, th.mu2, th.gamma, float(dec.down1.mean() + dec.down2.mean())


def _fixed(kind, trace, p_total):
    """Prepared duals and common power, and the delivered sum rate."""
    prep = fixed_power_policy(kind, trace, p_total, TOL_RATE)
    assert prep.converged
    return prep.mu1, prep.mu2, prep.fixed_power, run(trace, prep.decide).sum_rate


_PROPOSED_POINTS = [(1.0, 1.0, 0.0), (10.0, 1.0, -10.0), (1.0, 10.0, 10.0)]
_FIXED_POINTS = [
    (kind, omega1, pt_db)
    for kind in ("fixed_power_six_mode", "fixed_power_three_mode")
    for omega1, pt_db in ((1.0, 10.0), (4.0, 20.0))
]


@pytest.mark.parametrize("omega1, omega2, pt_db", _PROPOSED_POINTS)
def test_calibrate_mirrors_under_a_link_swap(omega1, omega2, pt_db):
    trace, p_total = _trace(omega1, omega2), 10.0 ** (pt_db / 10.0)
    mu1, mu2, gamma, rate = _proposed(trace, p_total)
    mu1_s, mu2_s, gamma_s, rate_s = _proposed(_swapped(trace), p_total)
    assert abs(mu1_s - mu2) <= MU_BOUND and abs(mu2_s - mu1) <= MU_BOUND
    assert gamma_s == pytest.approx(gamma, rel=0.01)
    assert rate_s == pytest.approx(rate, rel=TOL_RATE)


@pytest.mark.parametrize("omega1, omega2, pt_db", _PROPOSED_POINTS)
def test_calibrate_scaling_the_gains_is_scaling_the_budget(omega1, omega2, pt_db):
    trace, p_total = _trace(omega1, omega2), 10.0 ** (pt_db / 10.0)
    mu1, mu2, gamma, rate = _proposed(trace, p_total)
    mu1_k, mu2_k, gamma_k, rate_k = _proposed(_scaled(trace), p_total / 4.0)
    assert abs(mu1_k - mu1) <= MU_BOUND and abs(mu2_k - mu2) <= MU_BOUND
    assert gamma_k == pytest.approx(4.0 * gamma, rel=0.01)
    assert rate_k == pytest.approx(rate, rel=TOL_RATE)


@pytest.mark.parametrize("kind, omega1, pt_db", _FIXED_POINTS)
def test_fixed_power_mirrors_under_a_link_swap(kind, omega1, pt_db):
    trace, p_total = _trace(omega1, 1.0), 10.0 ** (pt_db / 10.0)
    mu1, mu2, power, rate = _fixed(kind, trace, p_total)
    mu1_s, mu2_s, power_s, rate_s = _fixed(kind, _swapped(trace), p_total)
    assert abs(mu1_s - mu2) <= MU_BOUND and abs(mu2_s - mu1) <= MU_BOUND
    assert power_s == pytest.approx(power, rel=0.01)
    assert rate_s == pytest.approx(rate, rel=TOL_RATE)


@pytest.mark.parametrize("kind, omega1, pt_db", _FIXED_POINTS)
def test_fixed_power_scaling_the_gains_is_scaling_the_budget(kind, omega1, pt_db):
    trace, p_total = _trace(omega1, 1.0), 10.0 ** (pt_db / 10.0)
    mu1, mu2, power, rate = _fixed(kind, trace, p_total)
    mu1_k, mu2_k, power_k, rate_k = _fixed(kind, _scaled(trace), p_total / 4.0)
    assert abs(mu1_k - mu1) <= MU_BOUND and abs(mu2_k - mu2) <= MU_BOUND
    assert 4.0 * power_k == pytest.approx(power, rel=0.01)
    assert rate_k == pytest.approx(rate, rel=TOL_RATE)
