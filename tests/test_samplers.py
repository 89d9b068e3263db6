"""Baseline mask generators: exact budgets, determinism, spacing."""
import hashlib
import math

import numpy as np
import pytest

from depthsample import samplers
from depthsample.imagedata import SampleSet, nearest_pixel
from depthsample.samplers import (
    CapacityError,
    _bridson,
    _lattice_dims,
    grid_mask,
    locations_to_mask,
    poisson_mask,
    random_mask,
    target_count,
)


def test_target_count_reference_rates():
    # the headline budgets: 1%, 0.25%, 0.0625% on the two evaluation sizes
    assert target_count(0.01, 240, 960) == 2304
    assert target_count(0.0025, 240, 960) == 576
    assert target_count(0.000625, 240, 960) == 144
    assert target_count(0.01, 240, 320) == 768
    assert target_count(0.0025, 240, 320) == 192
    assert target_count(0.000625, 240, 320) == 48


def test_target_count_edges():
    assert target_count(1.0, 4, 4) == 16
    assert target_count(1e-9, 4, 4) == 1  # clamps up to one sample
    with pytest.raises(ValueError):
        target_count(0.0, 4, 4)
    with pytest.raises(ValueError):
        target_count(-0.5, 4, 4)


def test_random_mask_exhaustive():
    m = random_mask(2, 2, 4, seed=123)
    assert m.bits.all()


def test_random_mask_deterministic():
    a = random_mask(32, 32, 50, seed=9)
    b = random_mask(32, 32, 50, seed=9)
    assert np.array_equal(a.bits, b.bits)
    c = random_mask(32, 32, 50, seed=10)
    assert not np.array_equal(a.bits, c.bits)


def test_random_mask_row_counts_look_binomial():
    """Seed-averaged per-row hit counts stay within 4 sigma of binomial.

    Each row's count is ~Binomial(W, n/HW); averaging over 50 seeds shrinks
    sigma by sqrt(50), and a >4 sigma excursion of any of the 100 averages
    has probability ~6e-3 under the null (measured max is 2.9).  A sampler
    that stripes or clusters blows straight through this.
    """
    h = w = 100
    n = 1000
    seeds = 50
    p = n / (h * w)
    acc = np.zeros(h)
    for seed in range(seeds):
        acc += random_mask(h, w, n, seed=seed).bits.sum(axis=1)
    row_means = acc / seeds
    sigma_mean = np.sqrt(w * p * (1 - p) / seeds)
    assert np.all(np.abs(row_means - w * p) < 4 * sigma_mean)


def test_grid_mask_2x2_lattice_on_4x4():
    m = grid_mask(4, 4, 4)
    ys, xs = np.nonzero(m.bits)
    got = sorted(zip(xs.tolist(), ys.tolist()))
    assert got == [(1, 1), (1, 3), (3, 1), (3, 3)]


def test_grid_mask_single_sample_centers():
    m = grid_mask(5, 5, 1)
    ys, xs = np.nonzero(m.bits)
    assert (xs[0], ys[0]) == (2, 2)


def test_grid_mask_aspect_ratio_lattice():
    # 2304 samples on 240x960 should land on a 24x96 lattice
    m = grid_mask(240, 960, 2304)
    assert m.count == 2304
    rows_used = np.unique(np.nonzero(m.bits)[0])
    cols_used = np.unique(np.nonzero(m.bits)[1])
    assert len(rows_used) == 24
    assert len(cols_used) == 96


def test_grid_mask_trims_to_exact_count():
    for n in (5, 7, 13, 50):
        assert grid_mask(17, 23, n).count == n


def _reference_grid(height, width, n):
    """The row-major double loop over the lattice that grid_mask replaces."""
    rows, cols = _lattice_dims(n, height, width)
    ys = nearest_pixel((np.arange(rows) + 0.5) * height / rows)
    xs = nearest_pixel((np.arange(cols) + 0.5) * width / cols)
    bits = np.zeros((height, width), dtype=bool)
    taken = 0
    for y in ys:
        for x in xs:
            if taken == n:
                break
            bits[y, x] = True
            taken += 1
    return bits


@pytest.mark.parametrize("height, width", [(5, 5), (4, 7), (1, 9), (17, 23)])
def test_grid_mask_equals_the_row_major_loop_at_every_budget(height, width):
    """Every n from 1 to H*W, so every overshoot and trim of the lattice."""
    for n in range(1, height * width + 1):
        got = grid_mask(height, width, n)
        assert got.count == n
        assert np.array_equal(got.bits, _reference_grid(height, width, n))


def test_poisson_mask_exact_count():
    m = poisson_mask(64, 64, 16, seed=0)
    assert m.count == 16


def test_poisson_mask_min_distance():
    m, radius = poisson_mask(64, 64, 16, seed=1, return_radius=True)
    ys, xs = np.nonzero(m.bits)
    pts = np.column_stack([xs, ys]).astype(float)
    d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    dmin = np.sqrt(d2.min())
    assert dmin >= radius - 1e-9
    # 16 points on 64x64 leave lots of room; conservative absolute bound
    assert dmin >= 8.0


def test_poisson_mask_saturation_is_a_capacity_error():
    # Bridson places at most 6 points on a 1x7 strip at seed 2, even at radius 1
    with pytest.raises(CapacityError, match="saturated at 6 < 7"):
        poisson_mask(1, 7, 7, 2)


def test_poisson_mask_deterministic():
    a = poisson_mask(48, 48, 20, seed=4)
    b = poisson_mask(48, 48, 20, seed=4)
    assert np.array_equal(a.bits, b.bits)


# SHA-256 of poisson_mask(h, w, n, seed, return_radius=True): the mask bits
# followed by repr(radius).  Recorded from the bucket-grid Bridson this
# sampler used before its exclusion raster; the last two cases hold 31% of
# the pixels and reach radius sqrt(2).
POISSON_GOLDEN = {
    (120, 160, 48, 0): "872d9883ef1e85d9c92390d0c63b42f79d494034b1ff688a2138b78975ddf07c",
    (120, 160, 48, 1): "81ed7b423066fd6fdaa0f8eabab7a338f03eba50ed1a5bd36807ac01895b16f4",
    (120, 160, 48, 2): "6b2a8ecbed52f8ca215b1a2368c06e7c515a0c72285c1bf659b0ef4459b2150c",
    (120, 160, 48, 3): "f4d22fab47276b4623ba0c60a592e52972c7f7f5b73953d404dba641bf17b6a5",
    (120, 160, 48, 4): "23c869ccebfb541aa0660a86845ed4df55067ac09c0e2fa8a0d0140b048b557a",
    (120, 160, 48, 5): "4d322914496f4879f8843e95a45aa39a4fa397e56449639886d234d49aa7f941",
    (120, 160, 48, 6): "4523db65ba765d762df7dac524ce2dca3579cb8435b74dc1a5dbfaea2d3d490c",
    (120, 160, 48, 7): "18964dbf71116a75c7ea028be1b0e9677fea8b4c7dca993c2223df45fc18dfea",
    (120, 160, 48, 8): "cecb236e27f23c9d5da4ce1d3bd180cf95cdec79df0def76f066a2955223daba",
    (120, 160, 48, 9): "3943e037650a7d470cac87b6f467cc678ae78ae484d0cf9c56a1c34c864edb18",
    (240, 320, 192, 0): "3aaf1c373edf21c30eb8ac2d2f7a6c60471beeeb541c94dcd58e23fc2520b35b",
    (240, 320, 192, 1): "c1da1883150e7925a027505380c61b55d9350a85a9fb26cadca9256f41681114",
    (36, 48, 52, 0): "f7a710d8ae22c6c658763e16b24db354926fbaa63f83410659dfee70298a8e33",
    (36, 48, 52, 1): "f5ace63893492c3a357b783bab6c482eeadb71f13721eabb1017f8010cb1e32c",
    (36, 48, 52, 2): "8500687376ac813febca52702300377d774949b72ec2ad403eeb23c84115dcfe",
    (36, 48, 52, 3): "6ef99e49d62638dd356b1cf3221417f7e570f5f71b6232fd9e4343b3c790d00e",
    (36, 48, 52, 4): "404709c4381c20a932fe147b381f564c40f7c95de5c942645a9e53aa0d2e9cfb",
    (24, 32, 240, 0): "a9e6aed07e2cee346b5f7886b8461e6af2cf08aadfda95318f0082254e9201ea",
    (24, 32, 240, 1): "c7ab7e98fbddb5d45e525d1c53907f7e92f4dae9f7e916af34c6bc4748710f86",
}


@pytest.mark.parametrize("h, w, n, seed", sorted(POISSON_GOLDEN))
def test_poisson_masks_and_radii_match_golden_digests(h, w, n, seed):
    mask, radius = poisson_mask(h, w, n, seed, return_radius=True)
    digest = hashlib.sha256(mask.bits.tobytes() + repr(radius).encode()).hexdigest()
    assert digest == POISSON_GOLDEN[h, w, n, seed]


def _reference_bridson(height, width, radius, rng, stop_at):
    """The one-candidate-at-a-time Bridson loop `samplers._bridson` batches."""
    pad = math.ceil(radius)
    reach = np.arange(-pad, pad + 1)
    disc = reach[:, None] ** 2 + reach[None, :] ** 2 < radius * radius
    blocked = np.zeros((height + 2 * pad, width + 2 * pad), dtype=bool)
    points = []

    def push(px, py):
        points.append((px, py))
        blocked[py:py + 2 * pad + 1, px:px + 2 * pad + 1] |= disc

    push(math.ceil(rng.uniform(0, width - 1) - 0.5), math.ceil(rng.uniform(0, height - 1) - 0.5))
    active = [0]
    while active and (stop_at is None or len(points) < stop_at):
        slot = int(rng.integers(len(active)))
        ax, ay = points[active[slot]]
        placed = False
        for _ in range(30):
            rho = rng.uniform(radius, 2 * radius)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            px = math.ceil(ax + rho * math.cos(theta) - 0.5)
            py = math.ceil(ay + rho * math.sin(theta) - 0.5)
            if not (0 <= px < width and 0 <= py < height):
                continue
            if not blocked[py + pad, px + pad]:
                push(px, py)
                active.append(len(points) - 1)
                placed = True
                break
        if not placed:
            active[slot] = active[-1]
            active.pop()
    return np.array(points, dtype=np.int64).reshape(-1, 2)


def _assert_bridson_equals_reference(height, width, radius, rng, stop_at):
    """Both loops give the same points and leave the generator in the same state."""
    ref_rng = np.random.Generator(np.random.PCG64())
    ref_rng.bit_generator.state = rng.bit_generator.state
    points = _bridson(height, width, radius, rng, stop_at)
    assert np.array_equal(points, _reference_bridson(height, width, radius, ref_rng, stop_at))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return points


@pytest.mark.parametrize("h, w, n, seed", sorted(POISSON_GOLDEN))
def test_batched_bridson_equals_the_scalar_loop_on_every_pass(h, w, n, seed, monkeypatch):
    passes = []

    def checked(height, width, radius, rng, stop_at):
        passes.append(_assert_bridson_equals_reference(height, width, radius, rng, stop_at))
        return passes[-1]

    monkeypatch.setattr(samplers, "_bridson", checked)
    poisson_mask(h, w, n, seed)
    assert len(passes) == 21  # 20 bisection probes and the saturated pass


@pytest.mark.parametrize("stop_at", [2304, None])
def test_batched_bridson_equals_the_scalar_loop_at_the_largest_budget(stop_at):
    # 8.062244415283203 is the radius poisson_mask(240, 960, 2304, 0) reaches
    points = _assert_bridson_equals_reference(240, 960, 8.062244415283203,
                                              np.random.default_rng([0, 19]), stop_at)
    assert len(points) >= 2304


def test_all_samplers_hit_exact_budgets():
    for h, w in ((240, 960), (240, 320)):
        for rate in (0.01, 0.0025, 0.000625):
            n = target_count(rate, h, w)
            assert random_mask(h, w, n, seed=0).count == n
            assert grid_mask(h, w, n).count == n
            # poisson at full size is exercised by the acceptance suite;
            # keep the unit test at the small size for speed
        n = target_count(0.000625, h, w)
        assert poisson_mask(h, w, n, seed=0).count == n


def test_locations_round_to_nearest_pixel():
    m = locations_to_mask(SampleSet(np.array([[1.4, 2.6]])), 8, 8)
    assert m.bits[3, 1]
    assert m.count == 1


def test_location_collision_pushes_east_first():
    # both locations round to (0,0); ring search probes E,S,W,N then
    # diagonals, and E = (1,0) is free
    m = locations_to_mask(SampleSet(np.array([[0.0, 0.0], [0.4, 0.0]])), 8, 8)
    assert m.bits[0, 0] and m.bits[0, 1]
    assert m.count == 2


def test_location_count_always_conserved():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = rng.integers(1, 30)
        locs = rng.random((n, 2)) * [7, 5]  # heavy collisions on 6x8
        m = locations_to_mask(SampleSet(locs), 6, 8)
        assert m.count == n


def test_locations_overflow_capacity():
    with pytest.raises(CapacityError):
        locations_to_mask(SampleSet(np.zeros((5, 2))), 2, 2)
