"""Guided reconstruction: affinities, the propagation solver, and baselines."""
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from depthsample import reconstruct
from depthsample.imagedata import DepthMap, LabImage, RgbImage, apply_mask, rgb_to_lab
from depthsample.reconstruct import (
    SolverConfig,
    bilateral_reconstruct,
    build_affinity,
    colorization_reconstruct,
    nn_reconstruct,
)
from depthsample.samplers import grid_mask, locations_to_mask, random_mask
from depthsample.scenes import gen_scene
from depthsample.superpixel import sps_sample


def _uniform_lab(h, w, value=128):
    return rgb_to_lab(RgbImage(np.full((h, w, 3), value, dtype=np.uint8)))


def _random_lab(h, w, seed):
    rng = np.random.default_rng(seed)
    return rgb_to_lab(RgbImage(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)))


def _sparse(depth, mask):
    depth = np.asarray(depth, dtype=np.float64)
    return DepthMap(np.where(mask, depth, 0.0), np.asarray(mask, dtype=bool))


# ---------------------------------------------------------------- affinity

def test_affinity_uniform_image_spreads_evenly():
    g = build_affinity(_uniform_lab(4, 5))
    lap = g.laplacian.toarray()
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    off = lap - np.diag(np.diag(lap))
    assert np.all(off[off != 0] == -1.0)
    # corner pixels have 3 neighbors, edges 5, interior 8
    assert [np.count_nonzero(off[i]) for i in (0, 1, 6)] == [3, 5, 8]
    assert np.array_equal(np.diag(lap)[[0, 1, 6]], [3.0, 5.0, 8.0])


def test_affinity_center_outlier_matches_hand_gaussian():
    pix = np.full((3, 3, 3), 200, dtype=np.uint8)
    pix[1, 1] = (0, 0, 0)
    lab = rgb_to_lab(RgbImage(pix))
    sigma = 10.0
    g = build_affinity(lab, sigma_c=sigma)
    k_center = -g.laplacian.toarray()[4]
    diff2 = float(np.sum((lab.values[1, 1] - lab.values[0, 0]) ** 2))
    want = np.exp(-diff2 / (2 * sigma * sigma))  # all 8 neighbors are equally dissimilar
    neigh = k_center[k_center > 0]
    assert len(neigh) == 8
    assert np.allclose(neigh, want, rtol=1e-10)


def test_affinity_positive_and_structurally_symmetric():
    g = build_affinity(_random_lab(5, 6, 1))
    lap = g.laplacian.tocoo()
    off = lap.row != lap.col
    assert (lap.data[off] < 0).all()
    links = set(zip(lap.row.tolist(), lap.col.tolist()))
    assert all((j, i) in links for i, j in links)


def test_cg_receives_an_exactly_symmetric_system(monkeypatch):
    """Both directions of a link square the same color differences, so the
    kernel, its Laplacian and the reduced system CG solves are symmetric bit
    for bit, and CG's symmetric recurrences hold for the matrix it is given."""
    scene = gen_scene("textured", 120, 160, 1)
    lab = rgb_to_lab(scene.rgb)
    systems = []
    solve = reconstruct._jacobi_cg

    def spy(A, *args):
        systems.append(A)
        return solve(A, *args)

    monkeypatch.setattr(reconstruct, "_jacobi_cg", spy)
    graph = build_affinity(lab)
    colorization_reconstruct(lab, apply_mask(scene.depth, random_mask(120, 160, 48, 0)),
                             graph=graph)
    (A,) = systems
    assert (A != A.T).nnz == 0
    assert (graph.laplacian != graph.laplacian.T).nnz == 0
    row_sums = np.asarray(graph.laplacian.sum(axis=1)).ravel()
    assert np.all(np.abs(row_sums) <= 1e-12 * graph.laplacian.diagonal())


def test_a_flat_wall_is_solved_by_the_warm_start():
    """On a uniform image with constant depth the nearest-sample start is
    already the solution: CG returns it after no iteration rather than
    dividing by p @ Ap = 0."""
    lab = _uniform_lab(60, 80)
    flat = DepthMap.from_depth(np.full((60, 80), 2500.0))
    res = colorization_reconstruct(lab, apply_mask(flat, grid_mask(60, 80, 12)))
    assert res.converged
    assert res.iterations == 0
    assert np.array_equal(res.depth.depth, flat.depth)


def test_affinity_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        build_affinity(_uniform_lab(3, 3), sigma_c=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0])
def test_non_finite_or_non_positive_bandwidths_are_rejected(bad):
    """NaN passes a plain ``<= 0`` test and would make every degree NaN, which
    silently turns the solve into the nearest-sample fill."""
    lab = _random_lab(6, 6, 3)
    mask = np.zeros((6, 6), dtype=bool)
    mask[1, 1] = mask[4, 4] = True
    sparse = _sparse(np.full((6, 6), 2000.0), mask)
    with pytest.raises(ValueError, match="sigma_c must be finite and positive"):
        colorization_reconstruct(lab, sparse, SolverConfig(sigma_c=bad))
    for name in ("sigma_s", "sigma_c", "radius"):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            bilateral_reconstruct(lab, sparse, **{name: bad})


# ---------------------------------------------------------------- colorization

def test_constant_samples_propagate_exactly():
    lab = _random_lab(8, 8, 2)
    mask = np.zeros((8, 8), dtype=bool)
    mask[1, 2] = mask[6, 5] = mask[3, 7] = True
    res = colorization_reconstruct(lab, _sparse(np.full((8, 8), 1500.0), mask))
    assert res.converged
    assert np.abs(res.depth.depth - 1500.0).max() < 1e-6
    assert res.depth.valid.all()


def test_samples_pass_through_bit_exactly():
    lab = _random_lab(10, 10, 3)
    rng = np.random.default_rng(4)
    depth = rng.uniform(500, 20000, size=(10, 10))
    mask = rng.random((10, 10)) < 0.15
    mask[0, 0] = True
    sparse = _sparse(depth, mask)
    res = colorization_reconstruct(lab, sparse)
    assert np.array_equal(res.depth.depth[mask], sparse.depth[mask])


def test_uniform_row_interpolates_linearly():
    # two anchors at 0mm and 800mm on a colorless 1x9 strip: the propagation
    # equations have the straight line as their exact solution
    lab = _uniform_lab(1, 9)
    mask = np.zeros((1, 9), dtype=bool)
    mask[0, 0] = mask[0, 8] = True
    depth = np.zeros((1, 9))
    depth[0, 8] = 800.0
    res = colorization_reconstruct(lab, _sparse(depth, mask))
    want = 100.0 * np.arange(9)
    assert np.abs(res.depth.depth[0] - want).max() < 0.5


def _smooth_lab(h, w, seed, base=120, amp=25):
    """Random color field with bounded neighbor contrast.

    iid uint8 colors make neighboring affinities ~exp(-32), which leaves the
    propagation system with condition number ~1e22 -- there no solver (dense
    LU included) produces meaningful digits.  Moderate contrast keeps the
    system well-conditioned so solver-vs-oracle agreement is a real test.
    """
    rng = np.random.default_rng(seed)
    pix = np.clip(base + rng.integers(-amp, amp + 1, size=(h, w, 3)), 0, 255)
    return rgb_to_lab(RgbImage(pix.astype(np.uint8)))


def _dense_oracle(lab, sparse):
    """Assemble the propagation system with plain loops and solve it densely:
    (diag(deg_U) - K_UU + lambda I) x = K_UF d_F + lambda x_nn, with K the
    Gaussian color kernel, lambda = 1e-4 and x_nn the nearest sample (ties
    to the first in row-major order)."""
    h, w = lab.height, lab.width
    n = h * w
    raw = np.zeros((n, n))
    for y in range(h):
        for x in range(w):
            i = y * w + x
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == dx == 0:
                        continue
                    ny, nx = y + dy, x + dx
                    if not (0 <= ny < h and 0 <= nx < w):
                        continue
                    j = ny * w + nx
                    diff2 = float(np.sum((lab.values[y, x] - lab.values[ny, nx]) ** 2))
                    raw[i, j] = np.exp(-diff2 / 200.0)  # sigma_c = 10
    con = sparse.valid.ravel()
    unk = ~con
    ys, xs = np.nonzero(sparse.valid)
    yy, xx = np.divmod(np.arange(n), w)
    x_nn = sparse.depth[ys, xs][((yy[:, None] - ys) ** 2 + (xx[:, None] - xs) ** 2).argmin(axis=1)]
    lam = 1e-4
    A = np.diag(raw.sum(axis=1)[unk] + lam) - raw[np.ix_(unk, unk)]
    b = raw[np.ix_(unk, con)] @ sparse.depth.ravel()[con] + lam * x_nn[unk]
    full = sparse.depth.ravel().copy()
    full[unk] = np.linalg.solve(A, b)
    return full.reshape(h, w)


def test_solver_matches_dense_direct_solve():
    rng = np.random.default_rng(9)
    cfg = SolverConfig(tol=1e-9)
    for seed in range(5):
        lab = _smooth_lab(8, 8, 40 + seed)
        depth = rng.uniform(500, 20000, size=(8, 8))
        mask = rng.random((8, 8)) < 0.2
        mask[rng.integers(8), rng.integers(8)] = True
        sparse = _sparse(depth, mask)
        res = colorization_reconstruct(lab, sparse, cfg)
        want = _dense_oracle(lab, sparse)
        rel = np.abs(res.depth.depth - want) / np.maximum(np.abs(want), 1.0)
        assert rel.max() < 1e-6
        assert res.converged


def _acceptance_05_instances():
    """Acceptance check 05's solves, with its solver settings: 20 oracle
    instances, 100 range-principle instances on iid colors and a 1-D ramp."""
    rng = np.random.default_rng(5)
    for seed in range(20):
        lab = _smooth_lab(8, 8, 500 + seed)
        depth = rng.uniform(500.0, 20000.0, size=(8, 8))
        mask = rng.random((8, 8)) < 0.2
        mask[rng.integers(8), rng.integers(8)] = True
        yield lab, _sparse(depth, mask), SolverConfig(tol=1e-9)
    for seed in range(100):
        rng2 = np.random.default_rng(5000 + seed)
        lab = rgb_to_lab(RgbImage(rng2.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)))
        depth = rng2.uniform(500.0, 20000.0, size=(8, 8))
        mask = rng2.random((8, 8)) < 0.25
        mask[rng2.integers(8), rng2.integers(8)] = True
        yield lab, _sparse(depth, mask), SolverConfig(max_iters=2000)
    line = np.zeros((1, 9))
    line[0, 0], line[0, 8] = 1000.0, 1800.0
    yield _uniform_lab(1, 9), _sparse(line, line > 0), SolverConfig(tol=1e-12)


@pytest.fixture
def cg_systems(monkeypatch):
    """Every (A, b) that colorization hands to CG, in call order."""
    systems = []
    solve = reconstruct._jacobi_cg

    def spy(A, b, *args):
        systems.append((A, b))
        return solve(A, b, *args)

    monkeypatch.setattr(reconstruct, "_jacobi_cg", spy)
    return systems


def _distance_from_exact(cg_systems, lab, sparse, cfg=SolverConfig()):
    """Solve, then solve the same reduced system directly; give the result
    and the RMS distance of its solved pixels from the direct answer."""
    res = colorization_reconstruct(lab, sparse, cfg)
    A, b = cg_systems.pop()
    gap = res.depth.depth.ravel()[~sparse.valid.ravel()] - spsolve(A.tocsc(), b)
    return res, float(np.sqrt(np.mean(gap * gap)))


def test_the_error_bound_holds_on_the_acceptance_instances(cg_systems):
    for lab, sparse, cfg in _acceptance_05_instances():
        res, rms = _distance_from_exact(cg_systems, lab, sparse, cfg)
        assert rms <= res.error_bound_mm


@pytest.mark.parametrize("sampler", ["sps", "random"])
def test_the_error_bound_holds_on_a_textured_scene(sampler, cg_systems):
    """Textured scenes are where the system without a data term had no
    determined answer; at the default tol the bound is a few millimetres."""
    scene = gen_scene("textured", 120, 160, 1)
    mask = (locations_to_mask(sps_sample(scene.rgb, 48), 120, 160) if sampler == "sps"
            else random_mask(120, 160, 48, 0))
    res, rms = _distance_from_exact(cg_systems, rgb_to_lab(scene.rgb),
                                    apply_mask(scene.depth, mask))
    assert res.converged
    assert rms <= res.error_bound_mm < 50.0


def test_the_residual_and_the_bound_come_from_one_true_residual(cg_systems):
    """``residual`` times ||b|| and ``error_bound_mm`` times lambda sqrt(N)
    are both ||b - A x|| of the returned solve, not the residual CG recurs."""
    scene = gen_scene("textured", 120, 160, 1)
    res = colorization_reconstruct(rgb_to_lab(scene.rgb),
                                   apply_mask(scene.depth, random_mask(120, 160, 48, 0)))
    ((_, b),) = cg_systems
    want = res.residual * np.linalg.norm(b) / (reconstruct._LAMBDA * np.sqrt(b.size))
    assert res.error_bound_mm == pytest.approx(want, rel=1e-12)


def test_maximum_principle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        lab = _random_lab(9, 9, rng.integers(1 << 30))
        depth = rng.uniform(500, 20000, size=(9, 9))
        mask = rng.random((9, 9)) < 0.1
        mask[4, 4] = True
        sparse = _sparse(depth, mask)
        res = colorization_reconstruct(lab, sparse)
        lo, hi = sparse.depth[mask].min(), sparse.depth[mask].max()
        assert res.depth.depth.min() >= lo - 1e-6
        assert res.depth.depth.max() <= hi + 1e-6


def test_fully_constrained_image_is_returned_as_is():
    lab = _random_lab(4, 4, 6)
    depth = np.full((4, 4), 3000.0)
    res = colorization_reconstruct(lab, _sparse(depth, np.ones((4, 4), bool)))
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.depth.depth, depth)


def test_no_samples_is_an_error():
    lab = _uniform_lab(4, 4)
    with pytest.raises(ValueError):
        colorization_reconstruct(lab, _sparse(np.zeros((4, 4)), np.zeros((4, 4), bool)))


def test_convergence_flag_honest_when_starved():
    lab = _random_lab(12, 12, 8)
    rng = np.random.default_rng(12)
    depth = rng.uniform(500, 20000, size=(12, 12))
    mask = np.zeros((12, 12), dtype=bool)
    mask[0, 0] = mask[11, 11] = True
    res = colorization_reconstruct(lab, _sparse(depth, mask),
                                   SolverConfig(tol=1e-12, max_iters=2))
    assert not res.converged
    assert res.residual > 1e-12


@pytest.mark.parametrize("field, bad", [
    ("tol", float("nan")), ("tol", float("inf")), ("tol", 0.0), ("tol", -1.0),
    ("max_iters", -5), ("sigma_c", float("nan")),
])
def test_solver_config_rejects_a_bad_field_when_made(field, bad):
    """A NaN tolerance never stops CG, a negative cap reports negative
    iterations, and a fully sampled image never reaches the bandwidth check
    of build_affinity; all are refused where the config is made."""
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: bad})
    SolverConfig(max_iters=0)  # no iterations is a valid cap


@pytest.mark.parametrize("sigma_c", [1.0, 2.0])
def test_pixels_whose_affinities_underflow_take_the_nearest_sample(sigma_c):
    """With a narrow color bandwidth on iid colors, every affinity of some
    pixels underflows; the data term alone is then their equation, so they
    keep the nearest sample's depth, and the rest of the solve stays finite."""
    lab = _random_lab(12, 16, 3)
    rng = np.random.default_rng(4)
    depth = rng.uniform(500, 20000, size=(12, 16))
    mask = rng.random((12, 16)) < 0.2
    sparse = _sparse(depth, mask)
    graph = build_affinity(lab, sigma_c)
    assert np.isfinite(graph.laplacian.data).all()
    isolated = (graph.laplacian.diagonal() < np.finfo(np.float64).tiny).reshape(12, 16) & ~mask
    assert isolated.any()

    res = colorization_reconstruct(lab, sparse, SolverConfig(sigma_c=sigma_c))
    assert np.isfinite(res.depth.depth).all()
    assert np.array_equal(res.depth.depth[mask], depth[mask])
    nearest = nn_reconstruct(sparse).depth
    assert np.array_equal(res.depth.depth[isolated], nearest[isolated])


@pytest.mark.parametrize("sigma_c", [2.0, 10.0])
def test_a_shared_graph_solves_bit_identically(sigma_c):
    """A graph built once for an image and passed in gives the solve that
    builds its own, bit for bit; at sigma_c 2 some rows underflow."""
    lab = rgb_to_lab(gen_scene("textured", 24, 32, 5).rgb)
    rng = np.random.default_rng(6)
    depth = rng.uniform(500, 20000, size=(24, 32))
    sparse = _sparse(depth, rng.random((24, 32)) < 0.05)
    cfg = SolverConfig(sigma_c=sigma_c)
    graph = build_affinity(lab, sigma_c)
    assert graph.sigma_c == sigma_c
    alone = colorization_reconstruct(lab, sparse, cfg)
    shared = colorization_reconstruct(lab, sparse, cfg, graph=graph)
    assert alone.iterations > 0
    assert np.array_equal(shared.depth.depth, alone.depth.depth)
    assert (shared.converged, shared.iterations, shared.residual) == \
        (alone.converged, alone.iterations, alone.residual)


@pytest.mark.parametrize("graph_shape, graph_sigma", [((16, 12), 10.0), ((12, 15), 10.0),
                                                      ((12, 16), 5.0)])
def test_a_graph_that_does_not_fit_is_rejected(graph_shape, graph_sigma):
    lab = _random_lab(12, 16, 3)
    sparse = _sparse(np.full((12, 16), 1000.0), np.eye(12, 16, dtype=bool))
    graph = build_affinity(_random_lab(*graph_shape, 3), graph_sigma)
    with pytest.raises(ValueError, match="does not fit"):
        colorization_reconstruct(lab, sparse, SolverConfig(sigma_c=10.0), graph=graph)


# ---------------------------------------------------------------- nearest

def test_nn_single_sample_floods():
    mask = np.zeros((5, 7), dtype=bool)
    mask[2, 3] = True
    out = nn_reconstruct(_sparse(np.full((5, 7), 1234.0), mask))
    assert (out.depth == 1234.0).all()


def test_nn_idempotent_at_samples():
    rng = np.random.default_rng(5)
    depth = rng.uniform(100, 9000, size=(6, 6))
    mask = rng.random((6, 6)) < 0.3
    mask[0, 0] = True
    sparse = _sparse(depth, mask)
    out = nn_reconstruct(sparse)
    assert np.array_equal(out.depth[mask], sparse.depth[mask])


def test_nn_row_splits_at_midpoint():
    mask = np.zeros((1, 10), dtype=bool)
    mask[0, 0] = mask[0, 9] = True
    depth = np.zeros((1, 10))
    depth[0, 0], depth[0, 9] = 100.0, 900.0
    out = nn_reconstruct(_sparse(depth, mask))
    assert list(out.depth[0]) == [100.0] * 5 + [900.0] * 5


def test_nn_tie_goes_to_earlier_sample():
    # pixel (0, 1) is exactly 1px from both samples; the row-major earlier
    # sample (0, 0) must win
    mask = np.zeros((1, 3), dtype=bool)
    mask[0, 0] = mask[0, 2] = True
    depth = np.array([[111.0, 0.0, 222.0]])
    out = nn_reconstruct(_sparse(depth, mask))
    assert out.depth[0, 1] == 111.0
    # the centre of a 3x3 image ties between (x=2, y=0) and (x=0, y=2); the
    # first comes earlier in row-major order but later in column-major order
    depth = np.zeros((3, 3))
    depth[0, 2], depth[2, 0] = 111.0, 222.0
    out = nn_reconstruct(_sparse(depth, depth > 0))
    assert out.depth[1, 1] == 111.0


def _reference_nn(sparse_depth):
    """Brute-force nearest sample: every pixel against every sample, in chunks."""
    ys, xs = np.nonzero(sparse_depth.valid)
    values = sparse_depth.depth[ys, xs]
    h, w = sparse_depth.height, sparse_depth.width
    out = np.empty(h * w)
    px, py = np.meshgrid(np.arange(w, dtype=np.int64), np.arange(h, dtype=np.int64))
    px, py = px.ravel(), py.ravel()
    chunk = max(1, 2_000_000 // max(1, len(ys)))
    for start in range(0, h * w, chunk):
        end = min(start + chunk, h * w)
        d2 = (px[start:end, None] - xs) ** 2 + (py[start:end, None] - ys) ** 2
        out[start:end] = values[np.argmin(d2, axis=1)]
    return out.reshape(h, w)


def _random_depth_sparse(mask, seed=0):
    """Distinct random depths at the samples, so any wrong pick shows."""
    depth = np.random.default_rng(seed).uniform(100, 9000, size=mask.shape)
    return _sparse(depth, mask)


def _lattice_mask(h, w, spacing, oy=0, ox=0):
    mask = np.zeros((h, w), dtype=bool)
    mask[oy::spacing, ox::spacing] = True
    return mask


def _random_mask(h, w, n, seed):
    mask = np.zeros(h * w, dtype=bool)
    mask[np.random.default_rng(seed).choice(h * w, n, replace=False)] = True
    return mask.reshape(h, w)


def _corner_mask():
    """2,304 samples filling one 48x48 corner of a 240x960 image, so most
    pixels lie far from every sample."""
    mask = np.zeros((240, 960), dtype=bool)
    mask[:48, :48] = True
    return mask


def _two_symmetric_masks():
    """Two samples mirrored about a pixel row, then about a pixel column, so
    every pixel on that row or column is an exact tie."""
    about_row = np.zeros((17, 13), dtype=bool)
    about_row[8 - 5, 6] = about_row[8 + 5, 6] = True
    about_col = np.zeros((13, 23), dtype=bool)
    about_col[6, 11 - 7] = about_col[6, 11 + 7] = True
    return [about_row, about_col]


def _single_sample_masks():
    masks = []
    for h, w, y, x in ((1, 1, 0, 0), (9, 9, 4, 4), (20, 33, 19, 0), (31, 17, 0, 16)):
        mask = np.zeros((h, w), dtype=bool)
        mask[y, x] = True
        masks.append(mask)
    return masks


def _strip_masks():
    return [_random_mask(1, 97, 5, 1), _random_mask(83, 1, 4, 2),
            _lattice_mask(1, 40, 3), _lattice_mask(45, 1, 6, oy=2)]


def _ragged_masks():
    """Non-square images with sides of assorted lengths."""
    return [_random_mask(h, w, n, seed) for seed, (h, w, n) in
            enumerate(((13, 21, 4), (7, 9, 2), (29, 11, 6), (57, 59, 17), (15, 100, 9)))]


@pytest.mark.parametrize("masks", [
    pytest.param([_lattice_mask(37, 53, s, oy, ox) for s in range(2, 8)
                  for oy, ox in ((0, 0), (s // 2, s - 1))], id="lattices"),
    pytest.param(_two_symmetric_masks(), id="two-symmetric"),
    pytest.param(_single_sample_masks(), id="single-sample"),
    pytest.param(_strip_masks(), id="strips"),
    pytest.param(_ragged_masks(), id="ragged-sides"),
])
def test_nn_matches_brute_force_on_ties_and_edges(masks):
    for mask in masks:
        sparse = _random_depth_sparse(mask)
        assert np.array_equal(nn_reconstruct(sparse).depth, _reference_nn(sparse))


@pytest.mark.parametrize("mask", [
    pytest.param(_random_mask(120, 160, 48, 1), id="120x160-n48"),
    pytest.param(_random_mask(240, 320, 192, 2), id="240x320-n192"),
    pytest.param(_random_mask(480, 640, 768, 3), id="480x640-n768"),
    pytest.param(_random_mask(240, 960, 2304, 4), id="240x960-n2304"),
    pytest.param(_corner_mask(), id="240x960-corner"),
])
def test_nn_matches_brute_force_at_sensor_sizes(mask):
    sparse = _random_depth_sparse(mask)
    assert np.array_equal(nn_reconstruct(sparse).depth, _reference_nn(sparse))


@pytest.mark.parametrize("mask", [
    pytest.param(_random_mask(480, 640, 768, 3), id="480x640-n768"),
    pytest.param(_random_mask(240, 960, 2304, 4), id="240x960-n2304"),
    pytest.param(_corner_mask(), id="240x960-corner"),
])
def test_nn_peak_memory_stays_bounded(mask):
    """The brute force peaks at 51-53 MiB here and the feature transform at
    6-8 MiB; a full pixel x sample distance table would take 1.8-4.0 GiB."""
    sparse = _random_depth_sparse(mask)
    tracemalloc.start()
    try:
        nn_reconstruct(sparse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


# ---------------------------------------------------------------- bilateral

def test_bilateral_constant_samples_stay_constant():
    lab = _random_lab(8, 8, 14)
    rng = np.random.default_rng(15)
    mask = rng.random((8, 8)) < 0.2
    mask[3, 3] = True
    out = bilateral_reconstruct(lab, _sparse(np.full((8, 8), 2500.0), mask))
    assert np.abs(out.depth - 2500.0).max() < 1e-9


def test_bilateral_lone_sample_reproduces_itself():
    lab = _random_lab(9, 9, 16)
    mask = np.zeros((9, 9), dtype=bool)
    mask[4, 4] = True
    out = bilateral_reconstruct(lab, _sparse(np.full((9, 9), 3210.0), mask), radius=2.0)
    assert out.depth[4, 4] == pytest.approx(3210.0)


def test_bilateral_respects_a_color_step_edge():
    # color flips at x=4|5; samples deep inside each half, and a tight color
    # bandwidth keeps each boundary pixel glued to its own side's depth
    pix = np.zeros((5, 10, 3), dtype=np.uint8)
    pix[:, 5:] = 255
    lab = rgb_to_lab(RgbImage(pix))
    mask = np.zeros((5, 10), dtype=bool)
    mask[2, 1] = mask[2, 8] = True
    depth = np.zeros((5, 10))
    depth[2, 1], depth[2, 8] = 100.0, 900.0
    out = bilateral_reconstruct(lab, _sparse(depth, mask), sigma_s=6.0,
                                sigma_c=0.5, radius=12.0)
    assert abs(out.depth[2, 4] - 100.0) < 1.0
    assert abs(out.depth[2, 5] - 900.0) < 1.0


def test_bilateral_far_pixels_fall_back_to_nearest():
    lab = _uniform_lab(9, 9)
    mask = np.zeros((9, 9), dtype=bool)
    mask[0, 0] = True
    out = bilateral_reconstruct(lab, _sparse(np.full((9, 9), 4321.0), mask), radius=1.5)
    assert (out.depth == 4321.0).all()  # uncovered corner served by fallback


# ---------------------------------------------------------------- shared

def test_reconstructors_ignore_sample_enumeration_order():
    """Sparse depth is a raster, so any enumeration of the same samples
    must reconstruct identically; this pins the reductions to content."""
    lab = _random_lab(7, 7, 18)
    rng = np.random.default_rng(19)
    depth = rng.uniform(500, 9000, size=(7, 7))
    mask = rng.random((7, 7)) < 0.25
    mask[3, 3] = True
    a = _sparse(depth, mask)
    b = _sparse(depth.copy(), mask.copy())
    assert np.array_equal(nn_reconstruct(a).depth, nn_reconstruct(b).depth)
    assert np.array_equal(bilateral_reconstruct(lab, a).depth,
                          bilateral_reconstruct(lab, b).depth)
    assert np.array_equal(colorization_reconstruct(lab, a).depth.depth,
                          colorization_reconstruct(lab, b).depth.depth)
