"""Soft depth sampling: weights, values, gradients, and location refinement."""
from dataclasses import replace

import numpy as np
import pytest

from depthsample.imagedata import DepthMap, SampleSet
from depthsample.ssa import (
    SamplingError,
    SsaConfig,
    TemperatureSchedule,
    bilinear_sample,
    finite_difference_gradient,
    gradient_check,
    hard_sample,
    refine_locations,
    ssa_sample,
    ssa_weights,
)


def _full(depth):
    depth = np.asarray(depth, dtype=np.float64)
    return DepthMap(depth, np.ones_like(depth, dtype=bool))


def _random_depth(h, w, seed, lo=200.0, hi=20000.0):
    rng = np.random.default_rng(seed)
    return _full(rng.uniform(lo, hi, size=(h, w)))


def _grid_points(cx, cy, half=2):
    xs, ys = np.meshgrid(np.arange(cx - half, cx + half + 1),
                         np.arange(cy - half, cy + half + 1))
    return np.column_stack([xs.ravel(), ys.ravel()]).astype(float)


# ---------------------------------------------------------------- weights

def test_weights_concentrate_on_exact_hit():
    pts = _grid_points(5, 5)
    k = ssa_weights(np.array([5.0, 5.0]), pts, t=0.1)
    assert k[12] > 1 - 1e-6  # the center point of the 5x5 stencil


def test_weights_uniform_limit():
    pts = _grid_points(5, 5)
    k = ssa_weights(np.array([5.3, 4.8]), pts, t=1e6)
    assert np.abs(k - 1 / 25).max() < 1e-6


def test_weights_symmetric_for_equidistant_points():
    pts = np.array([[4.0, 5.0], [6.0, 5.0], [5.0, 9.0]])
    k = ssa_weights(np.array([5.0, 5.0]), pts, t=0.7)
    assert abs(k[0] - k[1]) < 1e-12


def test_weights_normalized_and_monotone_in_distance():
    pts = _grid_points(4, 4)
    loc = np.array([4.21, 3.77])
    k = ssa_weights(loc, pts, t=0.9)
    assert abs(k.sum() - 1) < 1e-12
    assert k.min() >= 0
    rho = np.linalg.norm(pts - loc, axis=1)
    order = np.argsort(rho)
    assert np.all(np.diff(k[order]) <= 1e-15)  # farther never weighs more


def test_weights_reject_bad_temperature():
    with pytest.raises(ValueError):
        ssa_weights(np.array([0.0, 0.0]), _grid_points(2, 2), t=0.0)


# ---------------------------------------------------------------- soft sampling

def test_constant_depth_gives_constant_value_and_zero_gradient():
    d = _full(np.full((9, 9), 1000.0))
    for t in (0.1, 1.0, 10.0):
        cfg = SsaConfig(window=5, temperature=t)
        s = ssa_sample(d, np.array([4.3, 3.9]), cfg)
        assert abs(s.value - 1000.0) < 1e-9
        assert np.abs(s.gradient).max() < 1e-9


def test_cold_temperature_recovers_nearest_neighbor():
    d = _random_depth(9, 9, 0)
    cfg = SsaConfig(window=5, temperature=0.01)
    loc = np.array([4.3, 3.8])
    s = ssa_sample(d, loc, cfg)
    nearest = d.depth[4, 4]
    assert abs(s.value - nearest) < 1e-6 * nearest


def test_soft_value_is_convex_combination_of_window():
    d = _random_depth(11, 11, 3)
    cfg = SsaConfig(window=5, temperature=1.5)
    s = ssa_sample(d, np.array([5.2, 5.8]), cfg)
    win = d.depth[3:9, 3:9]
    assert win.min() - 1e-9 <= s.value <= win.max() + 1e-9
    assert abs(s.weights.sum() - 1) < 1e-12


def test_invalid_pixels_are_renormalized_away():
    depth = np.full((7, 7), 500.0)
    valid = np.ones((7, 7), dtype=bool)
    depth[3, 3] = 0.0
    valid[3, 3] = False
    cfg = SsaConfig(window=5, temperature=1.0)
    s = ssa_sample(DepthMap(depth, valid), np.array([3.0, 3.0]), cfg)
    # the hole would drag the average toward 0 if it leaked in
    assert abs(s.value - 500.0) < 1e-9


def test_all_invalid_window_raises():
    d = DepthMap(np.zeros((7, 7)), np.zeros((7, 7), dtype=bool))
    with pytest.raises(SamplingError):
        ssa_sample(d, np.array([3.0, 3.0]))


def test_gradient_matches_finite_differences_sampled():
    d = _random_depth(9, 9, 7)
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = rng.uniform(0.2, 2.0)
        loc = rng.uniform(2.1, 6.4, size=2)
        cfg = SsaConfig(window=5, temperature=t)
        s = ssa_sample(d, loc, cfg)
        fd = finite_difference_gradient(d, loc, cfg)
        denom = max(np.linalg.norm(s.gradient), np.linalg.norm(fd), 1e-2)
        assert np.linalg.norm(s.gradient - fd) / denom < 1e-4


def test_bulk_gradient_check_entry_point():
    assert gradient_check(cases=100, seed=5) < 1e-4


# ---------------------------------------------------------------- bilinear

def test_bilinear_exact_at_pixel_centers():
    d = _random_depth(6, 6, 11)
    s = bilinear_sample(d, np.array([3.0, 2.0]))
    assert s.value == d.depth[2, 3]


def test_bilinear_midpoint_mixes_evenly():
    depth = np.zeros((2, 2))
    depth[0, 1] = 100.0
    d = DepthMap(depth, np.ones((2, 2), dtype=bool))
    s = bilinear_sample(d, np.array([0.5, 0.0]))
    assert abs(s.value - 50.0) < 1e-12


def test_bilinear_support_is_its_unit_cell():
    d = _random_depth(9, 9, 13)
    loc = np.array([4.4, 4.6])
    before = bilinear_sample(d, loc).value
    bumped = d.depth.copy()
    bumped[1, 4] += 5000.0  # 3px above: outside the 2x2 cell
    after = bilinear_sample(DepthMap(bumped, d.valid), loc).value
    assert after == before


def test_bilinear_renormalizes_over_valid_corners():
    depth = np.array([[100.0, 0.0], [100.0, 100.0]])
    valid = np.array([[True, False], [True, True]])
    s = bilinear_sample(DepthMap(depth, valid), np.array([0.5, 0.5]))
    assert abs(s.value - 100.0) < 1e-12


def test_bilinear_all_invalid_raises():
    d = DepthMap(np.zeros((3, 3)), np.zeros((3, 3), dtype=bool))
    with pytest.raises(SamplingError):
        bilinear_sample(d, np.array([1.2, 1.2]))


# ---------------------------------------------------------------- hard sampling

def test_hard_sample_rounds_to_nearest():
    d = _full(np.arange(30, dtype=float).reshape(5, 6) + 1)
    (px, py), val = hard_sample(d, np.array([1.49, 2.49]))
    assert (px, py) == (1, 2)
    assert val == d.depth[2, 1]


def test_hard_sample_breaks_ties_toward_smaller_index():
    d = _full(np.arange(30, dtype=float).reshape(5, 6) + 1)
    (px, py), _ = hard_sample(d, np.array([1.5, 2.0]))
    assert (px, py) == (1, 2)


def test_hard_sample_falls_back_to_nearest_valid():
    depth = np.full((5, 5), 777.0)
    valid = np.ones((5, 5), dtype=bool)
    depth[2, 2] = 0.0
    valid[2, 2] = False
    (px, py), val = hard_sample(DepthMap(depth, valid), np.array([2.0, 2.0]))
    assert val == 777.0
    assert (px, py) == (2, 1)  # distance ties resolved by smaller y, then x


def test_soft_cold_limit_agrees_with_hard():
    d = _random_depth(9, 9, 17)
    rng = np.random.default_rng(23)
    cfg = SsaConfig(window=5, temperature=1e-3)
    for _ in range(200):
        # keep a wide margin from .5 fractions so no rounding ties occur
        loc = np.floor(rng.uniform(2, 6, size=2)) + rng.uniform(0.1, 0.4, size=2)
        _, hard = hard_sample(d, loc)
        soft = ssa_sample(d, loc, cfg).value
        assert abs(soft - hard) < 1e-6 * hard


# ---------------------------------------------------------------- window reach

def test_ssa_sees_past_the_bilinear_cell():
    """With a 5x5 window at t=1 every window pixel influences the output.

    Perturbing depth at Chebyshev distance 2 from the rounding center moves
    the soft sample but can never move the bilinear one, which is blind past
    its 2x2 cell.  This is the behavioral gap between the two kernels.
    """
    d = _random_depth(11, 11, 19)
    loc = np.array([5.3, 5.2])
    cfg = SsaConfig(window=5, temperature=1.0)
    base_soft = ssa_sample(d, loc, cfg).value
    base_bil = bilinear_sample(d, loc).value
    bumped = d.depth.copy()
    bumped[3, 7] += 3000.0  # (dx, dy) = (+2, -2) from round(loc) = (5, 5)
    d2 = DepthMap(bumped, d.valid)
    assert ssa_sample(d2, loc, cfg).value != base_soft
    assert bilinear_sample(d2, loc).value == base_bil


# ---------------------------------------------------------------- temperature

def test_temperature_schedule_endpoints_and_midpoint():
    sched = TemperatureSchedule(1.0, 0.1, steps=100)
    assert sched.at(0) == 1.0
    assert sched.at(100) == pytest.approx(0.1)
    assert sched.at(50) == pytest.approx(0.55)


def test_zero_length_schedule_stays_at_start():
    assert TemperatureSchedule(1.0, 0.1, steps=0).at(0) == 1.0


def test_temperature_schedule_validation():
    with pytest.raises(ValueError):
        TemperatureSchedule(0.1, 1.0, steps=10)  # must anneal downward
    with pytest.raises(ValueError):
        TemperatureSchedule(1.0, 0.0, steps=10)


# ---------------------------------------------------------------- refinement

def test_refine_stays_put_when_targets_already_met():
    d = _random_depth(9, 9, 29)
    locs = np.array([[3.2, 4.1], [6.0, 2.5]])
    cfg = SsaConfig(window=5, temperature=1.0,
                    schedule=TemperatureSchedule(1.0, 1.0, steps=50))
    targets = np.array([ssa_sample(d, l, cfg).value for l in locs])
    res = refine_locations(d, SampleSet(locs), targets, cfg, lr=1e-5, steps=50)
    assert np.allclose(res.locations.locations, locs, atol=1e-9)
    assert not res.diverged


def test_single_step_refinement_runs_at_start_temperature():
    d = _random_depth(9, 9, 31)
    loc = np.array([[4.3, 3.8]])
    cfg = SsaConfig(window=5, schedule=TemperatureSchedule(2.0, 0.5, steps=100))
    res = refine_locations(d, SampleSet(loc), np.array([0.0]), cfg, steps=1)
    hot, cold = (ssa_sample(d, loc[0], replace(cfg, temperature=t)).value for t in (2.0, 0.5))
    assert hot != cold
    assert res.losses.tolist() == [hot * hot]


def test_refine_walks_up_a_depth_ramp():
    # depth = 100x + 1: start at x=2, demand 501mm -> optimum at x=5
    x = np.arange(11, dtype=float)
    d = _full(np.tile(100 * x, (7, 1)) + 1.0)
    cfg = SsaConfig(window=5, temperature=1.0,
                    schedule=TemperatureSchedule(1.0, 0.1, steps=200))
    res = refine_locations(d, SampleSet(np.array([[2.0, 3.0]])), np.array([501.0]),
                           cfg, lr=1e-5, steps=200)
    assert abs(res.locations.locations[0, 0] - 5.0) < 0.1
    assert abs(res.locations.locations[0, 1] - 3.0) < 0.5


def test_refine_constant_depth_has_no_gradient_anywhere():
    d = _full(np.full((9, 9), 4000.0))
    locs = np.array([[2.0, 2.0], [6.5, 3.5]])
    res = refine_locations(d, SampleSet(locs), np.array([100.0, 9000.0]),
                           lr=1e-5, steps=30)
    assert np.allclose(res.locations.locations, locs)


def test_refine_reports_loss_trajectory():
    # the ramp case drives the loss to zero, so the recorded trajectory
    # must both have one entry per step and actually descend
    x = np.arange(11, dtype=float)
    d = _full(np.tile(100 * x, (7, 1)) + 1.0)
    res = refine_locations(d, SampleSet(np.array([[2.0, 3.0]])), np.array([501.0]),
                           lr=1e-5, steps=60)
    assert len(res.losses) == 60
    assert res.losses[-1] < res.losses[0]
