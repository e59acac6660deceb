"""Capacity formulas: known values, the sum-split identity, affinity in t."""

import numpy as np
import pytest

from rate_reference import PowerTriple, cap, link_capacities


def test_cap_known_values():
    assert cap(0.0) == 0.0
    assert cap(1.0) == pytest.approx(1.0, rel=0, abs=0)
    assert cap(3.0) == pytest.approx(2.0, rel=1e-15)
    assert isinstance(cap(2.0), float)


def test_cap_accepts_arrays():
    out = cap(np.array([0.0, 1.0, 3.0]))
    assert out.shape == (3,)
    assert out[1] == pytest.approx(1.0)


def test_cap_rejects_negative():
    with pytest.raises(ValueError):
        cap(-1e-9)
    with pytest.raises(ValueError):
        cap(np.array([1.0, -2.0]))


def test_power_triple_rejects_negative():
    with pytest.raises(ValueError):
        PowerTriple(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        PowerTriple(0.0, 0.0, -0.5)


def test_split_frozen_example():
    # receive SNRs 1.5 and 2.5; decoding order t=1 protects user 1's stream
    ch = (1.5, 2.5)  # one slot's squared gains (s1, s2)
    p = PowerTriple(1.0, 1.0, 0.0)
    r = link_capacities(*ch, p, 1.0)
    assert r.c12r == pytest.approx(1.3219280948873624, rel=1e-15)  # log2(2.5)
    assert r.c21r == pytest.approx(1.0, rel=1e-15)  # log2(5/2.5)
    assert r.cr_sum == pytest.approx(2.321928094887362, rel=1e-15)  # log2(5)
    r0 = link_capacities(*ch, p, 0.0)
    assert r0.c21r == pytest.approx(1.8073549220576042, rel=1e-15)  # log2(3.5)
    assert r0.c12r == pytest.approx(2.321928094887362 - 1.8073549220576042, rel=1e-13)


def test_split_sums_to_joint_capacity():
    # the two per-user rates always add up to the two-sender sum capacity
    rng = np.random.default_rng(20)
    for _ in range(300):
        s1, s2 = rng.exponential(1.0, 2)
        p1, p2 = rng.uniform(0.0, 5.0, 2)
        t = float(rng.uniform(0.0, 1.0))
        r = link_capacities(float(s1), float(s2), PowerTriple(p1, p2, 0.0), t)
        assert r.c12r + r.c21r == pytest.approx(r.cr_sum, rel=1e-12, abs=1e-12)
        assert r.c12r >= -1e-15 and r.c21r >= -1e-15


def test_split_is_affine_in_t():
    ch = (0.8, 2.2)
    p = PowerTriple(3.0, 1.5, 0.0)
    r0 = link_capacities(*ch, p, 0.0)
    r1 = link_capacities(*ch, p, 1.0)
    rh = link_capacities(*ch, p, 0.5)
    assert rh.c12r == pytest.approx(0.5 * (r0.c12r + r1.c12r), rel=1e-14)
    assert rh.c21r == pytest.approx(0.5 * (r0.c21r + r1.c21r), rel=1e-14)


def test_single_user_links():
    ch = (3.0, 0.5)
    r = link_capacities(*ch, PowerTriple(1.0, 2.0, 4.0), 0.0)
    assert r.c1r == pytest.approx(2.0, rel=1e-15)  # log2(1+3)
    assert r.c2r == pytest.approx(1.0, rel=1e-15)  # log2(1+1)
    assert r.cr1 == pytest.approx(cap(12.0), rel=1e-15)
    assert r.cr2 == pytest.approx(cap(2.0), rel=1e-15)


def test_rates_monotone_in_power():
    ch = (1.3, 0.9)
    lo = link_capacities(*ch, PowerTriple(1.0, 1.0, 1.0), 0.5)
    hi = link_capacities(*ch, PowerTriple(2.0, 2.0, 2.0), 0.5)
    assert hi.c1r > lo.c1r
    assert hi.c2r > lo.c2r
    assert hi.cr1 > lo.cr1
    assert hi.cr2 > lo.cr2
    assert hi.cr_sum > lo.cr_sum


def test_time_share_validated():
    ch = (1.0, 1.0)
    p = PowerTriple(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        link_capacities(*ch, p, -0.01)
    with pytest.raises(ValueError):
        link_capacities(*ch, p, 1.01)
