"""Soft depth sampling: weights, values, gradients, and location refinement."""
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from depthsample import ssa
from depthsample.imagedata import DepthMap, SampleSet, nearest_pixel
from depthsample.scenes import SCENE_KINDS, gen_scene
from depthsample.ssa import (
    SamplingError,
    SsaConfig,
    TemperatureSchedule,
    bilinear_sample,
    finite_difference_gradient,
    gradient_check,
    hard_sample,
    refine_locations,
    ssa_read,
    ssa_sample,
    ssa_weights,
)
from depthsample.superpixel import sps_sample


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


@pytest.mark.parametrize("window", [-1, 0, 2, 4])
def test_hard_sample_rejects_an_even_or_empty_window(window):
    # an even window has no center pixel: it used to return (6, 4) at (5, 5)
    d = _full(np.arange(100, dtype=float).reshape(10, 10) + 1)
    with pytest.raises(ValueError, match=f"odd size of at least 1, got {window}"):
        hard_sample(d, np.array([5.0, 5.0]), window)


@pytest.mark.parametrize("window", [1, 3, 5, 7])
def test_hard_sample_odd_windows_return_the_nearest_pixel(window):
    d = _full(np.arange(100, dtype=float).reshape(10, 10) + 1)
    assert hard_sample(d, np.array([5.0, 5.0]), window) == ((5, 5), 56.0)
    assert hard_sample(d, np.array([2.4, 7.6]), window) == ((2, 8), 83.0)


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
    sched = TemperatureSchedule(1.0, 0.1)
    assert sched.at(0, 100) == 1.0
    assert sched.at(100, 100) == pytest.approx(0.1)
    assert sched.at(50, 100) == pytest.approx(0.55)


def test_zero_length_schedule_stays_at_start():
    assert TemperatureSchedule(1.0, 0.1).at(0, 0) == 1.0


def test_temperature_schedule_validation():
    with pytest.raises(ValueError):
        TemperatureSchedule(0.1, 1.0)  # must anneal downward
    with pytest.raises(ValueError):
        TemperatureSchedule(1.0, 0.0)


@pytest.mark.parametrize("make", [
    lambda: SsaConfig(temperature=float("nan")),
    lambda: SsaConfig(temperature=float("inf")),
    lambda: SsaConfig(temperature=0.0),
    lambda: SsaConfig(temperature=-1.0),
    lambda: TemperatureSchedule(float("nan"), 0.1),
    lambda: TemperatureSchedule(float("inf"), 0.1),
    lambda: TemperatureSchedule(1.0, float("nan")),
    lambda: TemperatureSchedule(float("nan"), float("nan")),
    lambda: gradient_check(cases=1, t_range=(0.2, float("inf"))),
    lambda: gradient_check(cases=1, t_range=(float("nan"), 2.0)),
    lambda: gradient_check(cases=1, t_range=(0.0, 2.0)),
    lambda: gradient_check(cases=1, t_range=(2.0, 0.2)),
    lambda: ssa_weights(np.array([0.0, 0.0]), _grid_points(2, 2), t=float("nan")),
])
def test_non_finite_or_non_positive_temperatures_are_rejected(make):
    with pytest.raises(ValueError, match="temperature"):
        make()


# ---------------------------------------------------------------- refinement

def test_refine_stays_put_when_targets_already_met():
    d = _random_depth(9, 9, 29)
    locs = np.array([[3.2, 4.1], [6.0, 2.5]])
    cfg = SsaConfig(window=5, temperature=1.0,
                    schedule=TemperatureSchedule(1.0, 1.0))
    targets = np.array([ssa_sample(d, l, cfg).value for l in locs])
    res = refine_locations(d, SampleSet(locs), targets, cfg, lr=1e-5, steps=50)
    assert np.allclose(res.locations.locations, locs, atol=1e-9)


def test_single_step_refinement_runs_at_start_temperature():
    d = _random_depth(9, 9, 31)
    loc = np.array([[4.3, 3.8]])
    cfg = SsaConfig(window=5, schedule=TemperatureSchedule(2.0, 0.5))
    res = refine_locations(d, SampleSet(loc), np.array([0.0]), cfg, steps=1)
    hot, cold = (ssa_sample(d, loc[0], replace(cfg, temperature=t)).value for t in (2.0, 0.5))
    assert hot != cold
    assert res.losses.tolist() == [hot * hot]


def test_refine_walks_up_a_depth_ramp():
    # depth = 100x + 1: start at x=2, demand 501mm -> optimum at x=5
    x = np.arange(11, dtype=float)
    d = _full(np.tile(100 * x, (7, 1)) + 1.0)
    cfg = SsaConfig(window=5, temperature=1.0,
                    schedule=TemperatureSchedule(1.0, 0.1))
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


def _step_into_hole():
    """1000 mm left of x = 20 and 4000 mm from it, with columns 24-39 invalid."""
    depth = np.tile(np.where(np.arange(60) < 20, 1000.0, 4000.0), (30, 1))
    valid = np.ones((30, 60), dtype=bool)
    valid[:, 24:40] = False
    return DepthMap(np.where(valid, depth, 0.0), valid)


def test_refine_does_not_step_into_a_window_without_valid_depth():
    # the first step toward the 20000 mm target would land at x = 27.33,
    # whose 5x5 window lies inside the hole
    d = _step_into_hole()
    start = np.array([[17.6, 15.0]])
    res = refine_locations(d, SampleSet(start), np.array([20000.0]))
    assert len(res.losses) == 200
    assert ssa_read(d, res.locations.locations).valid.any()
    assert np.array_equal(res.locations.locations, start)


def test_refine_leaves_a_sample_without_a_valid_start_window_unread():
    d = _step_into_hole()
    locs, targets = np.array([[12.3, 4.6], [31.2, 20.0]]), np.array([3000.0, 500.0])
    res = refine_locations(d, SampleSet(locs), targets, steps=20)
    alone = refine_locations(d, SampleSet(locs[:1]), targets[:1], steps=20)
    assert np.array_equal(res.locations.locations, [alone.locations.locations[0], locs[1]])
    assert np.array_equal(res.losses, alone.losses)


@pytest.mark.parametrize("loc", [[60.5, 3.0], [30.0, -0.4]])  # the second is over the hole
def test_refine_rejects_a_location_outside_the_image(loc):
    with pytest.raises(ValueError, match=r"outside a 30x60 image"):
        refine_locations(_step_into_hole(), SampleSet(np.array([loc])), np.array([1.0]))


# ---------------------------------------------------------------- batched read-out
#
# The per-location read-out and refinement loop that `ssa_read` replaced,
# kept as the reference.  `ssa_read` reads all locations whose windows hold
# equally many valid pixels together, over just those pixels, so its sums
# reduce in the same order as these and every result is compared for exact
# equality, clipped windows and windows with invalid pixels included.  The
# reference refinement follows `refine_locations`' rules one location at a
# time: a sample moves only onto a window with valid depth, and it ends at
# whichever of its start and end reads closer to its target at t_end.

def _reference_window_points(d, location, window):
    x, y = float(location[0]), float(location[1])
    if not (0 <= x <= d.width - 1 and 0 <= y <= d.height - 1):
        raise ValueError(f"location ({x}, {y}) outside a {d.height}x{d.width} image")
    cx, cy = int(nearest_pixel(x)), int(nearest_pixel(y))
    half = window // 2
    x0, x1 = max(0, cx - half), min(d.width - 1, cx + half)
    y0, y1 = max(0, cy - half), min(d.height - 1, cy + half)
    xs, ys = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
    xs, ys = xs.ravel(), ys.ravel()
    keep = d.valid[ys, xs]
    return np.column_stack([xs[keep], ys[keep]]), d.depth[ys[keep], xs[keep]]


def _reference_ssa_sample(d, location, cfg):
    pts, depths = _reference_window_points(d, np.asarray(location, dtype=np.float64), cfg.window)
    if len(pts) == 0:
        raise SamplingError(f"no valid depth in the {cfg.window}x{cfg.window} window at {location}")
    t = cfg.temperature
    loc = np.asarray(location, dtype=np.float64)
    rho2 = np.sum((loc - pts.astype(np.float64)) ** 2, axis=1)
    a = -rho2 / (t * t)
    a -= a.max()
    w = np.exp(a)
    w = w / w.sum()
    value = float(w @ depths)
    diff = (loc - pts) * (2.0 / (t * t))
    mean_diff = w @ diff
    dw = w[:, None] * (mean_diff - diff)
    return value, depths @ dw, w, pts


def _reference_refine(d, locations, targets, cfg, lr, steps):
    def has_depth(loc):
        return len(_reference_window_points(d, loc, cfg.window)[1]) > 0

    locs = locations.copy()
    read = [i for i in range(len(locs)) if has_depth(locs[i])]
    moving, stopped = set(read), []
    losses = []
    for step in range(steps):
        step_cfg = replace(cfg, temperature=cfg.schedule.at(step, steps - 1))
        total = 0.0
        grads = np.zeros_like(locs)
        for i in read:
            value, gradient, _, _ = _reference_ssa_sample(d, locs[i], step_cfg)
            err = value - targets[i]
            total += err * err
            grads[i] = 2.0 * err * gradient
        losses.append(total)
        for i in sorted(moving):
            moved = locs[i] - lr * grads[i]
            moved[0] = np.clip(moved[0], 0, d.width - 1)
            moved[1] = np.clip(moved[1], 0, d.height - 1)
            if has_depth(moved):
                locs[i] = moved
            else:
                moving.discard(i)
                stopped.append(i)
    end_cfg = replace(cfg, temperature=cfg.schedule.t_end)
    for i in read:
        start_err = _reference_ssa_sample(d, locations[i], end_cfg)[0] - targets[i]
        end_err = _reference_ssa_sample(d, locs[i], end_cfg)[0] - targets[i]
        if start_err * start_err < end_err * end_err:
            locs[i] = locations[i]
    return locs, np.array(losses), read, stopped


def _holey_depth(h, w, seed, invalid=0.1):
    rng = np.random.default_rng(seed)
    valid = rng.random((h, w)) >= invalid
    return DepthMap(np.where(valid, rng.uniform(200.0, 20000.0, size=(h, w)), 0.0), valid)


def _border_locations(h, w):
    """Locations on every border and corner, on and between pixel centers."""
    xs = np.array([0.0, 0.3, 0.5, 1.0, 1.7, w / 2 + 0.25, w - 2.4, w - 1.5, w - 1.2, w - 1.0])
    ys = np.array([0.0, 0.4, 0.5, 1.0, 2.2, h / 2 - 0.3, h - 2.5, h - 1.6, h - 1.1, h - 1.0])
    gx, gy = np.meshgrid(xs, ys)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    on_border = (np.isin(grid[:, 0], (0.0, w - 1.0)) | np.isin(grid[:, 1], (0.0, h - 1.0)))
    assert on_border.sum() >= 4 * len(xs) - 4  # every edge and corner is present
    return grid


def _assert_read_matches_reference(d, locs, cfg):
    read = ssa_read(d, locs, cfg)
    assert read.values.shape == (len(locs),) and read.gradients.shape == (len(locs), 2)
    k = cfg.window * cfg.window
    assert read.weights.shape == read.valid.shape == (len(locs), k)
    assert read.pixels.shape == (len(locs), k, 2)
    for i, loc in enumerate(locs):
        value, gradient, weights, pixels = _reference_ssa_sample(d, loc, cfg)
        ok = read.valid[i]
        assert read.values[i] == value
        assert np.array_equal(read.gradients[i], gradient)
        assert np.array_equal(read.weights[i, ok], weights)
        assert np.all(read.weights[i, ~ok] == 0.0)
        assert np.array_equal(read.pixels[i, ok], pixels)
        single = ssa_sample(d, loc, cfg)
        assert single.value == value
        assert np.array_equal(single.gradient, gradient)
        assert np.array_equal(single.weights, weights)
        assert np.array_equal(single.pixels, pixels)


@pytest.mark.parametrize("window", [3, 5, 7])
@pytest.mark.parametrize("t", [0.05, 0.2, 1.0, 2.0])
def test_batched_read_equals_reference_on_random_locations(window, t):
    d = _holey_depth(120, 160, 41)
    rng = np.random.default_rng(window * 100 + int(t * 100))
    locs = rng.uniform((0.0, 0.0), (159.0, 119.0), size=(48, 2))
    _assert_read_matches_reference(d, locs, SsaConfig(window=window, temperature=t))


@pytest.mark.parametrize("window", [3, 5, 7])
@pytest.mark.parametrize("t", [0.05, 1.0, 2.0])
@pytest.mark.parametrize("invalid", [0.0, 0.1])
def test_batched_read_equals_reference_on_borders_and_corners(window, t, invalid):
    d = _holey_depth(120, 160, 43, invalid)
    _assert_read_matches_reference(d, _border_locations(120, 160),
                                   SsaConfig(window=window, temperature=t))


def test_batched_read_of_one_location_and_of_none():
    d = _holey_depth(9, 11, 47)
    cfg = SsaConfig(window=5, temperature=0.7)
    _assert_read_matches_reference(d, np.array([[4.3, 3.8]]), cfg)
    empty = ssa_read(d, np.zeros((0, 2)), cfg)
    assert empty.values.shape == (0,) and empty.gradients.shape == (0, 2)


def test_batched_read_raises_at_the_first_bad_location():
    depth = np.full((9, 9), 1000.0)
    valid = np.ones((9, 9), dtype=bool)
    valid[:4, :4] = False
    depth[:4, :4] = 0.0
    d = DepthMap(depth, valid)
    cfg = SsaConfig(window=3)
    hole, outside, fine = [1.0, 1.0], [9.5, 2.0], [6.0, 6.0]
    for locs in ([fine, hole, outside], [fine, outside, hole], [hole], [outside]):
        first = next(loc for loc in locs if loc is not fine)
        with pytest.raises(ValueError) as expected:
            _reference_ssa_sample(d, np.array(first), cfg)
        with pytest.raises(ValueError) as got:
            ssa_read(d, np.array(locs), cfg)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
    with pytest.raises(SamplingError, match=r"no valid depth in the 3x3 window at \[1\. 1\.\]"):
        ssa_sample(d, np.array(hole), cfg)
    with pytest.raises(ValueError, match=r"location \(9\.5, 2\.0\) outside a 9x9 image"):
        hard_sample(d, np.array(outside))


def test_finite_difference_gradient_reads_the_four_stencil_points():
    d = _holey_depth(12, 12, 53)
    cfg = SsaConfig(window=5, temperature=0.6)
    loc, h = np.array([5.2, 6.7]), 1e-4
    expected = [(_reference_ssa_sample(d, loc + e, cfg)[0]
                 - _reference_ssa_sample(d, loc - e, cfg)[0]) / (2.0 * h)
                for e in (np.array([h, 0.0]), np.array([0.0, h]))]
    assert finite_difference_gradient(d, loc, cfg, h).tolist() == expected


def _assert_refine_equals_reference(d, locs, targets, cfg, lr, steps):
    res = refine_locations(d, SampleSet(locs), targets, cfg, lr=lr, steps=steps)
    ref_locs, ref_losses, read, stopped = _reference_refine(d, locs, targets, cfg, lr, steps)
    assert np.array_equal(res.locations.locations, ref_locs)
    assert np.array_equal(res.losses, ref_losses)
    return len(locs) - len(read), len(stopped)


@pytest.mark.parametrize("invalid", [0.0, 0.1, 0.9])
def test_refine_equals_the_per_location_loop(invalid):
    """At 0.9 invalid some windows hold no valid depth: some samples start
    in one and are never read, and some steps would land in one."""
    d = _holey_depth(40, 50, 59, invalid)
    rng = np.random.default_rng(61)
    locs = rng.uniform((0.0, 0.0), (49.0, 39.0), size=(24, 2))
    locs[:4] = [[0.0, 0.0], [49.0, 0.0], [0.0, 39.0], [49.0, 39.0]]
    targets = rng.uniform(500.0, 20000.0, size=24)
    cfg = SsaConfig(window=5, schedule=TemperatureSchedule(1.5, 0.1))
    for lr, steps in ((1e-5, 30), (1e-3, 40)):  # the second takes steps of many pixels
        unread, stopped = _assert_refine_equals_reference(d, locs, targets, cfg, lr, steps)
        assert (unread > 0 and stopped > 0) == (invalid == 0.9)


def _window_kinds(monkeypatch):
    """Record, per `_windows` call, each window's kind: clipped, holey or full."""
    kinds = []
    windows = ssa._windows

    def spy(d, locs, offsets):
        px, py, depths, ok = windows(d, locs, offsets)
        clipped = ((px.min(1) < 0) | (px.max(1) >= d.width)
                   | (py.min(1) < 0) | (py.max(1) >= d.height))
        kinds.append("".join(np.where(clipped, "c", np.where(ok.all(1), "f", "h"))))
        return px, py, depths, ok

    monkeypatch.setattr(ssa, "_windows", spy)
    return kinds


def test_refine_equals_the_per_location_loop_as_windows_change_kind(monkeypatch):
    """Locations walk from the border up a depth ramp and past a hole.

    The first location's window is clipped, then full, then holey, then full
    again, so steps that read every window as one group alternate with steps
    that group the windows by valid count.
    """
    yy, xx = np.mgrid[0:30, 0:40]
    valid = np.ones((30, 40), dtype=bool)
    valid[12, 9:12] = False
    d = DepthMap(np.where(valid, 1000.0 + 200.0 * xx + 10.0 * yy, 0.0), valid)
    locs = np.array([[0.3, 12.2], [1.0, 5.0], [0.0, 20.0]])
    targets = 1000.0 + 200.0 * 20 + 10.0 * locs[:, 1]
    cfg = SsaConfig(window=5, schedule=TemperatureSchedule(1.5, 0.1))
    kinds = _window_kinds(monkeypatch)
    _assert_refine_equals_reference(d, locs, targets, cfg, lr=1e-6, steps=40)
    walk, pick = kinds[:-1], kinds[-1]  # the last read scores the starts and ends at t_end
    assert len(walk) == 40 and len(pick) == 2 * len(locs)
    first = [k[0] for k in walk]
    assert "".join(c for i, c in enumerate(first) if i == 0 or c != first[i - 1]) == "cfhf"
    full_steps = [k == "fff" for k in walk]
    assert any(full_steps) and not all(full_steps)


def test_refine_equals_the_per_location_loop_when_every_window_is_full(monkeypatch):
    d = _random_depth(40, 50, 67)
    rng = np.random.default_rng(71)
    locs = rng.uniform((5.0, 5.0), (44.0, 34.0), size=(24, 2))
    targets = rng.uniform(500.0, 20000.0, size=24)
    cfg = SsaConfig(window=7, schedule=TemperatureSchedule(1.5, 0.1))
    kinds = _window_kinds(monkeypatch)
    _assert_refine_equals_reference(d, locs, targets, cfg, lr=1e-9, steps=30)
    assert len(kinds) == 31 and all(k == "f" * 24 for k in kinds[:30]) and kinds[30] == "f" * 48


@pytest.mark.parametrize("h, w", [(9, 11), (2, 2)])
def test_read_of_no_locations_returns_empty_arrays(h, w):
    d = _holey_depth(h, w, 73)
    for window in (3, 5):
        empty = ssa_read(d, np.zeros((0, 2)), SsaConfig(window=window))
        k = window * window
        assert empty.values.shape == (0,) and empty.gradients.shape == (0, 2)
        assert empty.weights.shape == empty.valid.shape == (0, k)
        assert empty.pixels.shape == (0, k, 2)
    res = refine_locations(d, SampleSet(np.zeros((0, 2))), np.zeros(0), steps=3)
    assert res.locations.locations.shape == (0, 2) and res.losses.tolist() == [0.0, 0.0, 0.0]


def _sps_targets(kind, seed):
    """A 120x160 scene, its 48 sps locations and their superpixels' mean depth."""
    scene = gen_scene(kind, 120, 160, seed)
    samples, seg = sps_sample(scene.rgb, 48, return_segmentation=True)
    labels, gt = seg.labels.ravel(), scene.depth
    valid = gt.valid.ravel()
    targets = (np.bincount(labels[valid], weights=gt.depth.ravel()[valid], minlength=48)
               / np.bincount(labels[valid], minlength=48))
    return gt, samples, targets


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_refine_never_returns_a_location_worse_than_its_start_at_t_end(kind, seed):
    """Losses at different temperatures measure different blends, so each
    sample's start and end are compared at the schedule's end temperature."""
    gt, samples, targets = _sps_targets(kind, seed)
    res = refine_locations(gt, samples, targets)
    cold = replace(SsaConfig(), temperature=SsaConfig().schedule.t_end)
    start, end = (ssa_read(gt, s.locations, cold).values - targets for s in (samples, res.locations))
    assert np.all(end * end <= start * start)


# SHA-256 of the refined locations and the losses, recorded when each sample
# began to keep the better of its start and end at t_end.
REFINE_DIGESTS = {
    ("step-edge", 1): "b7eda3b911921395bfaa3b7b6af9a114a1b08449398ad096083c1367073e726d",
    ("step-edge", 20): "b7d12ad3fdc07c82497e9b849d57dcc74d5df584b50a221884e27b12cddeb819",
    ("step-edge", 200): "f71fdebecfdf49b7bbf57adb66219886bd74a6c2dc234371c896f476dd8745a9",
    ("piecewise-constant", 1): "cdeb836154d8c5f665d2b08398baabaffd250a1fa02ccb26071b2a283c4b172a",
    ("piecewise-constant", 20): "490b0a55519a9ea907f11d28ceaa1d80fd6e2b8fe49ef7e0cd388f96aaa9ac21",
    ("piecewise-constant", 200): "6830a771baca2af84abb90f63ee50ceb42d0418103620fa621b5cdcfa0301143",
    ("textured", 1): "fe4357cbe703e6fe669d71903930f857134433d383fa4a0b9a3aa870c38b2819",
    ("textured", 20): "4cc130a1a4b3f3044ae032507f46e407e68654353d6bb2c3f59c1473b773b617",
    ("textured", 200): "ac1cd65c2fb19362ad92d57905e2429144ad084ee673dabd8dbce05e1152c104",
}


@pytest.mark.parametrize("kind, steps", sorted(REFINE_DIGESTS))
def test_refine_matches_golden_digests(kind, steps):
    """sps locations on a 120x160 scene, n=48, refined toward their superpixels' mean depth."""
    gt, samples, targets = _sps_targets(kind, 0)
    res = refine_locations(gt, samples, targets, SsaConfig(), steps=steps)
    digest = hashlib.sha256()
    for a in (res.locations.locations, res.losses):
        digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == REFINE_DIGESTS[kind, steps]
