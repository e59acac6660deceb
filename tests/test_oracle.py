"""Brute-force oracle machinery: grids and the t profile."""

import itertools
import tracemalloc

import numpy as np
import pytest

from birelay import oracle
from birelay.oracle import (
    _BLOCK,
    _CHUNK_CELLS,
    _grid_maxima,
    _t_profile,
    _workspace,
    grid_optimality,
    sample_draws,
    time_share_at_boundary,
)


def _search(mode, p, s1, s2, mu1, mu2, gamma, t):
    """One draw's best grid indices and metric for one mode, from the
    batched search run on a one-draw batch."""
    columns = ([v] for v in (s1, s2, mu1, mu2, gamma, t))
    at, value = _grid_maxima(p[None, :], *columns, _workspace(1, p.size))[mode]
    return tuple(int(k[0]) for k in at), value[0]


def _chunk_rows(points):
    """Draws per chunk of grid_optimality on an axis of points."""
    return _CHUNK_CELLS // (-(-points // _BLOCK) * _BLOCK)


def test_grid_max_hand_example():
    # single-link problem: 0.5*log2(1+p) - 0.1*p peaks at p = 5/ln2 - 1
    p = np.linspace(0.0, 20.0, 20_001)
    (k,), val = _search(1, p, 1.0, 1.0, 0.5, 0.5, 0.1, 0.0)
    want = 0.5 / (0.1 * np.log(2.0)) - 1.0
    assert p[k] == pytest.approx(want, abs=2e-3)
    assert val == pytest.approx(0.5 * np.log2(1.0 + want) - 0.1 * want, abs=1e-6)


def test_grid_max_mode3_matches_separable_case():
    # with mu1 == mu2 and t=0 the 2-D search must not beat the best 1-D uplink
    p = np.linspace(0.0, 30.0, 400)
    (_, _), val3 = _search(3, p, 1.7, 0.6, 0.4, 0.4, 0.2, 0.0)
    (_,), val1 = _search(1, p, 1.7, 0.6, 0.4, 0.4, 0.2, 0.0)
    (_,), val2 = _search(2, p, 1.7, 0.6, 0.4, 0.4, 0.2, 0.0)
    assert val3 <= max(val1, val2) + 1e-9


def _ma_grid_literal(p, s1, s2, mu1, mu2, gamma, t):
    """The multiple-access metric over the (p1, p2) grid, written out as the
    split rates it is made of; the reference for the oracle's coefficient form."""
    g1 = p * s1  # row axis: user 1 power
    g2 = p * s2  # column axis: user 2 power
    l1 = np.log2(1.0 + g1)
    l2 = np.log2(1.0 + g2)
    lsum = np.log2(1.0 + np.add.outer(g1, g2))
    c12r = t * l1[:, None] + (1.0 - t) * (lsum - l2[None, :])
    c21r = (1.0 - t) * l2[None, :] + t * (lsum - l1[:, None])
    return (1.0 - mu1) * c12r + (1.0 - mu2) * c21r - gamma * np.add.outer(p, p)


def _ma_grid(p, s1, s2, mu1, mu2, gamma, t):
    """The exhaustive reference: the metric's coefficient form
    a*lsum[i, j] + row[i] + col[j] at every grid point, in the operation
    order the oracle's block search applies to each element."""
    l1 = np.log2(1.0 + p * s1)
    l2 = np.log2(1.0 + p * s2)
    vals = np.add.outer(p * s1, p * s2)
    vals += 1.0
    np.log2(vals, out=vals)
    vals *= (1.0 - mu1) * (1.0 - t) + (1.0 - mu2) * t
    vals += (t * (mu2 - mu1) * l1 - gamma * p)[:, None]
    vals += ((1.0 - t) * (mu1 - mu2) * l2 - gamma * p)[None, :]
    return vals


def test_ma_grid_coefficient_form_matches_literal_formula():
    rng = np.random.default_rng(15)
    for _ in range(200):
        mu1, mu2 = (float(x) for x in rng.uniform(0.05, 0.95, 2))
        gamma = float(rng.uniform(0.05, 2.0))
        s1, s2 = (float(x) for x in rng.exponential(1.0, 2))
        p = np.linspace(0.0, 10.0 / gamma, 150)
        for t in (0.0, 0.5, 1.0):
            coef = _ma_grid(p, s1, s2, mu1, mu2, gamma, t)
            lit = _ma_grid_literal(p, s1, s2, mu1, mu2, gamma, t)
            assert coef.shape == lit.shape == (150, 150)
            best_c, best_l = coef.max(), lit.max()
            assert best_c == pytest.approx(best_l, rel=1e-12, abs=0.0)
            # each form's argmax is optimal, to 1e-12, under the other form
            assert lit.flat[np.argmax(coef)] == pytest.approx(best_l, rel=1e-12, abs=0.0)
            assert coef.flat[np.argmax(lit)] == pytest.approx(best_c, rel=1e-12, abs=0.0)
            at, val = _search(3, p, s1, s2, mu1, mu2, gamma, t)
            assert at == np.unravel_index(np.argmax(coef), coef.shape) and val == best_c


def _ma_cases(n):
    """n multiple-access searches (axis, s1, s2, mu1, mu2, gamma, t) that
    mix random draws with the edge cases a pruned search could get wrong:
    the boundary and interior shares, a silent user, equal gains, equal
    duals, duals near 0 and 1, axes that end at 1e6 and sizes that do not
    divide into whole blocks."""
    rng = np.random.default_rng(20261018)
    for k in range(n):
        mu1, mu2 = (float(x) for x in rng.uniform(0.05, 0.95, 2))
        gamma = float(rng.uniform(0.05, 2.0))
        s1, s2 = (float(x) for x in rng.exponential(1.0, 2))
        if k % 5 == 1:
            mu2 = mu1
        if k % 6 == 2:
            mu1 = 1e-9
        if k % 6 == 3:
            mu2 = 1.0 - 1e-9
        if k % 4 == 1:
            s2 = s1
        if k % 7 == 3:
            s1 = 0.0
        if k % 11 == 5:
            s2 = 0.0
        t = (0.0, 0.5, 1.0)[k % 3]
        points = (100, 101, 150, 333, 799)[k % 5] if k % 4 == 0 else (101, 150)[k % 2]
        hi = (10.0 / gamma, 1e6, 1.0)[k % 8 % 3]
        yield np.linspace(0.0, hi, points), s1, s2, mu1, mu2, gamma, t


def _line_grid(mode, p, s1, s2, mu1, mu2, gamma):
    """The exhaustive reference of a 1-D mode (1, 2 or 6): its metric at
    every power on axis p, for one draw."""
    if mode == 6:
        return mu1 * np.log2(1.0 + p * s2) + mu2 * np.log2(1.0 + p * s1) - gamma * p
    weight, s = {1: (1.0 - mu1, s1), 2: (1.0 - mu2, s2)}[mode]
    return weight * np.log2(1.0 + p * s) - gamma * p


def _exhaustive(p, s1, s2, mu1, mu2, gamma, t):
    """Each mode's argmax indices and value hex, searched draw by draw."""
    want = {}
    for mode in (1, 2, 6):
        vals = _line_grid(mode, p, s1, s2, mu1, mu2, gamma)
        k = int(np.argmax(vals))
        want[mode] = ((k,), float(vals[k]).hex())
    vals = _ma_grid(p, s1, s2, mu1, mu2, gamma, t)
    ij = tuple(int(k) for k in np.unravel_index(int(np.argmax(vals)), vals.shape))
    want[3] = (ij, float(vals[ij]).hex())
    return want


def test_ma_block_search_equals_exhaustive_grid_bit_for_bit():
    # every mode of every draw, searched in batches of one draw, one chunk
    # and one chunk + 1 per axis size, against the per-draw exhaustive search
    by_points = {}
    for case in _ma_cases(1200):
        by_points.setdefault(case[0].size, []).append(case)
    for points, cases in by_points.items():
        rows = _chunk_rows(points)
        want = [_exhaustive(*case) for case in cases]
        picks = [k % len(cases) for k in range(max(len(cases), 2 * rows + 2))]
        sizes = itertools.cycle((1, rows, rows + 1))
        while picks:
            size = next(sizes)
            batch, picks = picks[:size], picks[size:]
            p = np.stack([cases[k][0] for k in batch])
            columns = zip(*(cases[k][1:] for k in batch))
            found = _grid_maxima(p, *(np.array(c) for c in columns), _workspace(*p.shape))
            for d, k in enumerate(batch):
                for mode, (at, value) in found.items():
                    got = (tuple(int(i[d]) for i in at), float(value[d]).hex())
                    assert got == want[k][mode], (points, len(batch), k, mode)


def _chunk(draws, points, ends=None):
    """The _grid_maxima arguments of draws on an axis of points from 0 to
    ends (one per draw), by default grid_optimality's 10/gamma."""
    s1, s2, mu1, mu2, gamma = draws
    p = np.linspace(0.0, 10.0 / gamma if ends is None else ends, points, axis=1)
    return p, s1, s2, mu1, mu2, gamma, np.where(mu1 >= mu2, 0.0, 1.0)


def test_grid_maxima_ignores_what_its_workspace_held():
    # a workspace filled with NaN, then reused by a partial last chunk that
    # lays its rows over the first chunk's: every chunk rewrites its stages
    # and padding, so each draw's argmax and value are the exhaustive ones.
    # Axes that end at 1 put many maxima on the last point, which on 801
    # points sits in a partial block with the padding
    rng = np.random.default_rng(28)
    for points in (800, 801):
        rows = _chunk_rows(points)
        work = _workspace(rows, points)
        work.fill(np.nan)
        for n in (rows, rows // 2 + 1):
            draws = sample_draws(rng, n)
            ends = np.array([(10.0 / g, 1.0, 1e6)[d % 3] for d, g in enumerate(draws[4])])
            chunk = _chunk(draws, points, ends)
            found = _grid_maxima(*chunk, work)
            for d in range(n):
                want = _exhaustive(chunk[0][d], *(v[d] for v in chunk[1:]))
                for mode, (at, value) in found.items():
                    got = (tuple(int(i[d]) for i in at), float(value[d]).hex())
                    assert got == want[mode], (points, n, d, mode)


@pytest.mark.parametrize("points", [800, 801])
def test_grid_maxima_allocates_no_row_arrays_on_a_workspace(monkeypatch, points):
    # on a given workspace, a whole chunk (20 draws x 800 points, or 19 x
    # 801 with a partial last block) allocates less than one row array
    # (about 125 KB) before the block search, and peaks below 400 KB in
    # all, on the block bounds, their order and numpy's iteration buffers;
    # fresh arrays for each stage took 1.2 MB
    rows = _chunk_rows(points)
    chunk = _chunk(sample_draws(np.random.default_rng(8), rows), points)
    work = _workspace(rows, points)
    _grid_maxima(*chunk, work)
    search, before_search = oracle._ma_search, []

    def record(*args):
        before_search.append(tracemalloc.get_traced_memory()[1] - base)
        return search(*args)

    monkeypatch.setattr(oracle, "_ma_search", record)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _grid_maxima(*chunk, work)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert before_search[0] < chunk[0].nbytes, before_search
    assert peak < 400_000, peak


def test_ma_block_search_breaks_ties_at_the_lowest_flat_index():
    # no gain and no price: every grid point ties at 0, across all blocks
    p = np.linspace(0.0, 5.0, 130)
    assert _search(3, p, 0.0, 0.0, 0.3, 0.6, 0.0, 0.0) == ((0, 0), 0.0)
    # a silent user 2 and free power: every column of the last row ties
    vals = _ma_grid(p, 1.0, 0.0, 0.3, 0.6, 0.0, 1.0)
    assert np.all(vals[-1] == vals.max())
    at, value = _search(3, p, 1.0, 0.0, 0.3, 0.6, 0.0, 1.0)
    assert at == (129, 0) and value == vals.max()


def test_grid_optimality_default_size_golden_values():
    # recorded at verify's defaults (200 draws x 800 points per axis) from
    # the exhaustive 2-D grid search the block search replaced
    golden = ((1, 0.49797960341397385), (7, 0.5016605186546985), (1234, 0.5006598712892316))
    for seed, step in golden:
        draws = sample_draws(np.random.default_rng(seed), 200)
        assert grid_optimality(*draws, 800) == (0.0, step)


def test_grid_optimality_chunks_equal_draw_by_draw_checks():
    # one chunk + 1 draws, on an axis with and without a partial last block:
    # the worst values are those of the draws checked one at a time
    rng = np.random.default_rng(25)
    for points in (100, 801):
        draws = sample_draws(rng, _chunk_rows(points) + 1)
        alone = [grid_optimality(*(v[[d]] for v in draws), points) for d in range(draws[0].size)]
        assert grid_optimality(*draws, points) == tuple(max(r) for r in zip(*alone))


def test_grid_optimality_rejects_bad_input():
    draws = sample_draws(np.random.default_rng(3), 4)
    for points in (1, 0, -5):
        with pytest.raises(ValueError, match="at least 2 points"):
            grid_optimality(*draws, points)
    # no draws would otherwise report (-inf, 0.0), which reads as a pass
    with pytest.raises(ValueError, match="no draws"):
        grid_optimality(*(v[:0] for v in draws), 100)
    with pytest.raises(ValueError, match="one length"):
        grid_optimality(draws[0][:3], *draws[1:], 100)


def test_t_sweep_profile_is_affine_with_boundary_argmax():
    rng = np.random.default_rng(6)
    ts = np.linspace(0.0, 1.0, 51)
    for _ in range(200):
        s1, s2 = (float(x) for x in rng.exponential(1.0, 2))
        mu1, mu2 = (float(x) for x in rng.uniform(0.05, 0.95, 2))
        gamma = float(rng.uniform(0.05, 1.5))
        profile = _t_profile(s1, s2, mu1, mu2, gamma, 1.5, 2.0, ts)
        t_best = ts[np.argmax(profile)]
        assert t_best in (0.0, 1.0)
        # affine: second differences vanish
        d2 = np.diff(profile, 2)
        assert np.max(np.abs(d2)) < 1e-10
        slope = profile[-1] - profile[0]
        if abs(slope) > 1e-9:
            assert t_best == (1.0 if slope > 0.0 else 0.0)
            assert (slope > 0.0) == (mu2 > mu1)


def test_t_sweep_flat_under_equal_duals():
    profile = _t_profile(1.1, 0.7, 0.3, 0.3, 0.2, 2.0, 1.0, np.linspace(0.0, 1.0, 11))
    assert np.ptp(profile) < 1e-12


def test_time_share_at_boundary_ties():
    draws = sample_draws(np.random.default_rng(9), 500)
    assert time_share_at_boundary(*draws)
    # a user-1 gain of 1e-20 (a dead link) leaves the profile flat to
    # rounding, so its argmax is t = 0 although mu1 < mu2 picks t = 1: a tie
    flat = [np.array([x]) for x in (1e-20, 1.0, 0.2, 0.6, 0.5)]
    assert time_share_at_boundary(*flat)
    # equal duals leave the profile flat too
    equal = [np.array([x]) for x in (1e-20, 1.0, 0.4, 0.4, 0.5)]
    assert time_share_at_boundary(*equal)
