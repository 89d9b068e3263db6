"""Localized k-means clustering, soft association, loss, and sps placement."""
import hashlib
import math

import numpy as np
import pytest

from depthsample import superpixel
from depthsample.imagedata import RgbImage, nearest_pixel
from depthsample.scenes import SCENE_KINDS, gen_scene
from depthsample.superpixel import (
    Segmentation,
    SoftAssociation,
    centers,
    slic_init,
    slic_iterate,
    slic_loss,
    soft_association,
    sps_sample,
)


def _uniform(h, w, value=128):
    return RgbImage(np.full((h, w, 3), value, dtype=np.uint8))


def _random_img(h, w, seed):
    rng = np.random.default_rng(seed)
    return RgbImage(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


def _two_tone():
    # left half black, right half white, 16 wide x 8 tall
    pix = np.zeros((8, 16, 3), dtype=np.uint8)
    pix[:, 8:] = 255
    return RgbImage(pix)


# ---------------------------------------------------------------- init

def test_init_seed_lattice_16x16():
    seg = slic_init(_uniform(16, 16).to_lab(), 4)
    assert seg.step == 8.0
    assert seg.grid_shape == (2, 2)
    got = sorted(map(tuple, seg.seeds[:, 3:5]))
    # block centers of the four 8x8 cells; the uniform gradient keeps the
    # seed at its original lattice position (+-1px allowed by contract)
    for (x, y), (ex, ey) in zip(got, [(4, 4), (4, 12), (12, 4), (12, 12)]):
        assert abs(x - ex) <= 1 and abs(y - ey) <= 1


def test_init_single_seed_sits_at_center():
    seg = slic_init(_uniform(15, 15).to_lab(), 1)
    assert tuple(seg.seeds[0, 3:5]) == (7.0, 7.0)


def test_init_seed_count_and_bounds():
    lab = _random_img(13, 21, 0).to_lab()
    for n in (1, 2, 5, 12):
        seg = slic_init(lab, n)
        assert seg.seeds.shape == (n, 5)
        assert (seg.seeds[:, 3] >= 0).all() and (seg.seeds[:, 3] <= 20).all()
        assert (seg.seeds[:, 4] >= 0).all() and (seg.seeds[:, 4] <= 12).all()


def test_init_seeds_avoid_edges():
    # an image with one strong vertical edge: seeds next to the edge slide
    # off it because the 3x3 relocation picks the lowest-gradient pixel
    pix = np.zeros((9, 9, 3), dtype=np.uint8)
    pix[:, 4:] = 255
    lab = RgbImage(pix).to_lab()
    seg = slic_init(lab, 4)
    dx = np.zeros((9, 9))
    dx[:, :-1] = np.sum((lab.values[:, 1:] - lab.values[:, :-1]) ** 2, axis=-1)
    grad = np.sqrt(dx)
    for x, y in seg.seeds[:, 3:5]:
        assert grad[int(y), int(x)] == 0.0  # never on the gradient ridge


def test_init_rejects_oversubscription():
    with pytest.raises(ValueError):
        slic_init(_uniform(4, 4).to_lab(), 17)


@pytest.mark.parametrize("m", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-9])
def test_init_rejects_a_non_finite_or_negative_compactness(m):
    with pytest.raises(ValueError, match="compactness m must be finite and non-negative"):
        slic_init(_uniform(8, 8).to_lab(), 4, m=m)


# ---------------------------------------------------------------- iterate

def test_uniform_image_settles_on_the_lattice():
    """On a uniform image clustering must reproduce the init lattice cells.

    All color distances vanish, so the spatial term alone decides and the
    optimal partition is the lattice blocks themselves.  Boundary columns
    are decided by ties so we assert the block interiors plus stability
    under further iteration rather than exact tie outcomes.
    """
    lab = _uniform(16, 16).to_lab()
    seg = slic_iterate(slic_init(lab, 4), lab, iters=10)
    again = slic_iterate(seg, lab, iters=1)
    assert np.array_equal(seg.labels, again.labels)  # fixed point
    interior_labels = set()
    for by in (0, 8):
        for bx in (0, 8):
            block = seg.labels[by + 1:by + 7, bx + 1:bx + 7]
            assert len(np.unique(block)) == 1
            interior_labels.add(int(block[0, 0]))
    assert len(interior_labels) == 4


def test_two_tone_boundary_lands_on_the_color_edge():
    lab = _two_tone().to_lab()
    seg = slic_iterate(slic_init(lab, 2), lab, iters=10)
    for row in seg.labels:
        flips = np.nonzero(np.diff(row))[0]
        assert len(flips) == 1
        assert abs((flips[0] + 0.5) - 7.5) <= 1.0  # transition within 1px of the edge


def test_partition_labels_dense_and_complete():
    lab = _random_img(24, 18, 3).to_lab()
    seg = slic_iterate(slic_init(lab, 7), lab, iters=5)
    assert seg.labels.shape == (24, 18)
    assert seg.labels.min() >= 0
    present = np.unique(seg.labels)
    assert list(present) == list(range(7))  # every id non-empty


def test_connected_components_single_per_label_on_coherent_images():
    """Orphan merging yields one component per label on coherent images.

    The enforcement is a single merge sweep, so pathological inputs (iid
    color noise) can stay fragmented; on images with contiguous color
    regions every label must come out 4-connected.
    """
    from scipy import ndimage

    x = np.linspace(0, 255, 26)[None, :].repeat(20, 0)
    smooth = RgbImage(np.stack([x, x[::-1], np.full_like(x, 80)], axis=2).astype(np.uint8))
    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    for img, n in ((smooth, 6), (_two_tone(), 2), (_uniform(18, 18), 4)):
        lab = img.to_lab()
        seg = slic_iterate(slic_init(lab, n), lab, iters=10)
        for s in range(n):
            _, ncomp = ndimage.label(seg.labels == s, structure=four)
            assert ncomp == 1


def _unrestricted_j(seeds, lab, m, step):
    """Sum over pixels of the combined distance to the globally best seed."""
    h, w = lab.height, lab.width
    xs, ys = np.meshgrid(np.arange(w), np.arange(h))
    best = np.full((h, w), np.inf)
    for row in seeds:
        dc = np.sqrt(np.sum((lab.values - row[:3]) ** 2, axis=-1))
        ds = np.sqrt((xs - row[3]) ** 2 + (ys - row[4]) ** 2)
        best = np.minimum(best, dc + m * ds / step)
    return float(best.sum())


def test_iterations_descend_the_clustering_objective():
    """J under unrestricted assignment never ends above its starting value.

    The windowed sweeps are not guaranteed monotone step by step (a drifted
    seed's window can exclude its own pixels for one sweep), but across a
    full run the final seed state always scores at or below the init state.
    """
    for seed in range(20):
        lab = _random_img(16, 16, 100 + seed).to_lab()
        init = slic_init(lab, 4)
        final = slic_iterate(init, lab, iters=10)
        j0 = _unrestricted_j(init.seeds, lab, 1.0, init.step)
        j1 = _unrestricted_j(final.seeds, lab, 1.0, init.step)
        assert j1 <= j0 + 1e-9


def test_iterate_deterministic():
    lab = _random_img(19, 14, 5).to_lab()
    a = slic_iterate(slic_init(lab, 6), lab, iters=8)
    b = slic_iterate(slic_init(lab, 6), lab, iters=8)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.seeds, b.seeds)


# ---------------------------------------------------------------- per-seed reference

def _reference_seeds(lab, n):
    """The per-seed placement loop: each lattice point scans its 3x3
    neighborhood in row-major order and moves on a strictly lower gradient."""
    h, w = lab.height, lab.width
    rows, cols = superpixel._lattice_dims(n, h, w)
    sy = nearest_pixel((np.arange(rows) + 0.5) * h / rows)
    sx = nearest_pixel((np.arange(cols) + 0.5) * w / cols)
    dx = np.zeros((h, w))
    dy = np.zeros((h, w))
    dx[:, :-1] = np.sum((lab.values[:, 1:] - lab.values[:, :-1]) ** 2, axis=-1)
    dy[:-1, :] = np.sum((lab.values[1:, :] - lab.values[:-1, :]) ** 2, axis=-1)
    grad = np.sqrt(dx + dy)
    seeds = np.empty((n, 5))
    idx = 0
    for y in sy:
        for x in sx:
            if idx == n:
                break
            cx, cy = int(x), int(y)
            bx, by, best = cx, cy, grad[cy, cx]
            for ny in range(max(0, cy - 1), min(h, cy + 2)):
                for nx in range(max(0, cx - 1), min(w, cx + 2)):
                    if grad[ny, nx] < best:
                        bx, by, best = nx, ny, grad[ny, nx]
            seeds[idx] = (*lab.values[by, bx], bx, by)
            idx += 1
    return seeds


def _reference_assign(lab, seeds, step, m, prev_labels):
    """The per-seed assignment sweep: one window and one distance computation
    per seed.  The sweep over all windows at once must match it bit for bit."""
    h, w = lab.height, lab.width
    values = lab.values
    best = np.full((h, w), np.inf)
    labels = np.full((h, w), -1, dtype=np.int32) if prev_labels is None else prev_labels.copy()
    half = max(1, int(math.ceil(step)))
    for s, row in enumerate(seeds):
        cx, cy = int(nearest_pixel(row[3])), int(nearest_pixel(row[4]))
        x0, x1 = max(0, cx - half), min(w - 1, cx + half)
        y0, y1 = max(0, cy - half), min(h - 1, cy + half)
        if x1 < x0 or y1 < y0:
            continue
        xs, ys = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
        d = superpixel._combined_distance(np.moveaxis(values[y0:y1 + 1, x0:x1 + 1], 2, 0),
                                          xs, ys, row, m, step)
        win_best = best[y0:y1 + 1, x0:x1 + 1]
        better = d < win_best
        win_best[better] = d[better]
        labels[y0:y1 + 1, x0:x1 + 1][better] = s

    missed = labels < 0
    if np.any(missed):
        ys, xs = np.nonzero(missed)
        pix = values[ys, xs]
        d_all = np.empty((len(ys), len(seeds)))
        for s, row in enumerate(seeds):
            d_all[:, s] = superpixel._combined_distance(pix.T, xs, ys, row, m, step)
        labels[ys, xs] = np.argmin(d_all, axis=1)
    return labels


def _outside_every_window(seeds, step, h, w):
    """Pixels that no seed's search window covers."""
    half = max(1, int(math.ceil(step)))
    covered = np.zeros((h, w), dtype=bool)
    for cx, cy in nearest_pixel(seeds[:, 3:5]):
        covered[max(0, cy - half):cy + half + 1, max(0, cx - half):cx + half + 1] = True
    return int((~covered).sum())


def _assert_slic_matches_reference(lab, n, m, monkeypatch):
    seg = slic_init(lab, n, m=m)
    assert np.array_equal(seg.seeds, _reference_seeds(lab, n))
    first = _reference_assign(lab, seg.seeds, seg.step, m, None)
    assert seg.labels.dtype == np.int32 and np.array_equal(seg.labels, first)

    moved = superpixel._label_means(seg.labels, lab, seg.seeds)[0]
    got = superpixel._assign(lab, moved, seg.step, m, seg.labels)
    assert got.dtype == np.int32
    assert np.array_equal(got, _reference_assign(lab, moved, seg.step, m, seg.labels))

    final = slic_iterate(seg, lab, m)
    monkeypatch.setattr(superpixel, "_assign", _reference_assign)
    want = slic_iterate(seg, lab, m)
    monkeypatch.undo()
    assert np.array_equal(final.labels, want.labels)
    assert np.array_equal(final.seeds, want.seeds)


@pytest.mark.parametrize("m", [0.0, 0.37, 1.0, 10.0])
def test_assign_matches_the_reference_for_seeds_on_and_off_the_image(m):
    """Both sweeps, bit for bit, for seeds anywhere on (and just off) a
    random image and a non-integer spacing, so that windows are clipped."""
    rng = np.random.default_rng(12)
    lab = _random_img(23, 31, 4).to_lab()
    step = 4.3
    seeds = np.column_stack([rng.uniform(-60, 60, size=(40, 3)),
                             rng.uniform(-2, 32, size=40), rng.uniform(-2, 24, size=40)])
    prev = rng.integers(0, 40, size=(23, 31)).astype(np.int32)
    for prev_labels in (None, prev):
        got = superpixel._assign(lab, seeds, step, m, prev_labels)
        assert np.array_equal(got, _reference_assign(lab, seeds, step, m, prev_labels))


@pytest.mark.parametrize("m", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("height, width, n", [(120, 160, 48), (240, 320, 192)])
@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_slic_matches_the_per_seed_reference_on_scenes(kind, height, width, n, m, monkeypatch):
    lab = gen_scene(kind, height, width, 1).rgb.to_lab()
    _assert_slic_matches_reference(lab, n, m, monkeypatch)


@pytest.mark.parametrize("m", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("height, width, n, fallback", [
    (6, 90, 3, True),     # strips: the first sweep leaves pixels to the fallback
    (4, 200, 2, True),
    (8, 8, 64, False),    # every pixel a seed, window half-width 1
    (16, 16, 1, False),
])
def test_slic_matches_the_per_seed_reference_on_edge_cases(height, width, n, fallback, m,
                                                           monkeypatch):
    for lab in (_random_img(height, width, 8).to_lab(),
                gen_scene("textured", height, width, 1).rgb.to_lab()):
        seg = slic_init(lab, n, m=m)
        assert (_outside_every_window(seg.seeds, seg.step, height, width) > 0) == fallback
        _assert_slic_matches_reference(lab, n, m, monkeypatch)


# ---------------------------------------------------------------- connectivity

def _reference_enforce_connectivity(labels, n):
    """The per-label connectivity pass: one whole-image labelling per label
    and one whole-image scan per orphan.  The one-pass version must match it."""
    from scipy import ndimage

    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    labels = labels.copy()
    h, w = labels.shape
    orphans = []
    for s in range(n):
        mask = labels == s
        if not mask.any():
            continue
        comps, ncomp = ndimage.label(mask, structure=four)
        if ncomp <= 1:
            continue
        sizes = np.bincount(comps.ravel())
        main = int(np.argmax(sizes[1:])) + 1
        for c in range(1, ncomp + 1):
            if c != main:
                orphans.append(np.nonzero(comps == c))

    if not orphans:
        return labels
    counts = np.bincount(labels.ravel(), minlength=n)
    for ys, xs in orphans:
        neigh = set()
        own = labels[ys[0], xs[0]]
        for dy, dx in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            ny, nx = ys + dy, xs + dx
            ok = (ny >= 0) & (ny < h) & (nx >= 0) & (nx < w)
            neigh.update(np.unique(labels[ny[ok], nx[ok]]).tolist())
        neigh.discard(int(own))
        if not neigh:
            continue
        target = max(neigh, key=lambda t: (counts[t], -t))
        counts[own] -= len(ys)
        counts[target] += len(ys)
        labels[ys, xs] = target
    return labels


def _assert_matches_reference(labels, n):
    got = superpixel._enforce_connectivity(labels, n)
    want = _reference_enforce_connectivity(labels, n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("height, width, n", [(120, 160, 48), (240, 320, 192)])
@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_connectivity_matches_reference_on_slic_maps(kind, height, width, n, monkeypatch):
    captured = []
    enforce = superpixel._enforce_connectivity

    def capture(labels, n_labels):
        captured.append((labels.copy(), n_labels))
        return enforce(labels, n_labels)

    monkeypatch.setattr(superpixel, "_enforce_connectivity", capture)
    sps_sample(gen_scene(kind, height, width, 1).rgb, n)
    monkeypatch.undo()
    assert len(captured) == 1
    _assert_matches_reference(*captured[0])


def test_connectivity_matches_reference_on_random_and_blocky_maps():
    rng = np.random.default_rng(5)
    for case in range(240):
        h, w = (int(v) for v in rng.integers(1, 14, size=2))
        if case % 6 == 0:
            h = 1
        elif case % 6 == 1:
            w = 1
        n = int(rng.integers(1, 9))
        if case % 2:  # blocks of a coarse map, some pixels flipped
            by, bx = (int(v) for v in rng.integers(1, 4, size=2))
            coarse = rng.integers(0, n, size=(-(-h // by), -(-w // bx)))
            labels = np.repeat(np.repeat(coarse, by, axis=0), bx, axis=1)[:h, :w]
            flip = rng.random((h, w)) < 0.1
            labels = np.where(flip, rng.integers(0, n, size=(h, w)), labels)
        else:
            labels = rng.integers(0, n, size=(h, w))
        dtype = np.int32 if case % 3 else np.int64
        _assert_matches_reference(np.ascontiguousarray(labels, dtype=dtype), n)


def test_connectivity_single_label_image_is_unchanged():
    labels = np.zeros((7, 9), dtype=np.int32)
    _assert_matches_reference(labels, 1)
    assert np.array_equal(superpixel._enforce_connectivity(labels, 1), labels)


def test_connectivity_orphan_left_without_a_neighbor_keeps_its_label():
    # the label-0 orphan at x=6 merges into label 1 first; the label-1 orphan
    # at x=7 then touches only label 1, so it has nothing to merge into
    labels = np.array([[0, 0, 0, 1, 1, 1, 0, 1]], dtype=np.int32)
    _assert_matches_reference(labels, 2)
    got = superpixel._enforce_connectivity(labels, 2)
    assert got.tolist() == [[0, 0, 0, 1, 1, 1, 1, 1]]


# SHA-256 of the int32 labels and the float64 locations of
# sps_sample(gen_scene(kind, h, w, 1).rgb, n, return_segmentation=True),
# recorded with the per-label connectivity pass
_SPS_GOLDEN = [
    ("piecewise-constant", 120, 160, 48,
     "eba9fa2de99fd839619283212956d0739492e8e18208f1f008e5e7195c7f6b90",
     "2ac0c3c0733c1c963487b71b89d790d0e18bd9cbcc9c9e368de33e69c9d77530"),
    ("planar-ramp", 120, 160, 48,
     "c28017f749f0185079dde609e84056609584cf1eb67f44201818220c6bb245f2",
     "ba28ca0818cb7231cbca1029554e38760c200caa0fb0acbbf25168bd3978df41"),
    ("step-edge", 120, 160, 48,
     "bae600c676ded12491c75e59c8df4b341f6d89fc6c4552778d95b33c498ad409",
     "90b8649ec53710b1bd26f38826253cbaa2a23f36fe2989796569747353d723fe"),
    ("textured", 120, 160, 48,
     "20f96bfff36aab490642aaf4f2d1fb696a5cc9d14ce8b8d7c53624d1ea9d9367",
     "98f8e436a8787e68293387a90f90a3345e354929d72165820f0285fc147850ab"),
    ("piecewise-constant", 240, 320, 192,
     "368a60f7d00384d7d8a6fd75560906d7079897b7784f9feb7c7da9881fe22554",
     "55820fc4d13e064b29af1077c7b8638675aae6905ecc2f4903a37ca8b49fcfd3"),
    ("planar-ramp", 240, 320, 192,
     "77d8b2a077c0e033749f271ec6c8093a854b4b3852363b06afede26a5b0dc924",
     "20960c79cefee52caf36ee72e53eb9f8b09fbc3ff4d1d78a8911583645331480"),
    ("step-edge", 240, 320, 192,
     "3419e3848ca1e655bf4e4abf425817b56c824b857b19e9828a224c633792e7e2",
     "d97671deeebe0d1951991ed3d5723e84a4c9adea64e765c4858408b4c3b0f4ac"),
    ("textured", 240, 320, 192,
     "d92357e187269d9dbc25ffd4bb0fa80ab8edfdef6821309421e5fecf0ca7ac48",
     "e9acefcdfebcfcced1c413fe38d6d0eec729785a371e88df3690854655cb17da"),
    ("textured", 240, 320, 768,
     "f00825bb0b6256fc88bc82616381e8a8ecd7f73ad10e2657166f9d451876652d",
     "e9d58e4138c55e0f693b9e901bbe9f00251cae3c1f30b084bd85012fd7d5c787"),
]


@pytest.mark.parametrize("kind, height, width, n, labels_sha, locations_sha", _SPS_GOLDEN,
                         ids=[f"{k}-{h}x{w}-n{n}" for k, h, w, n, _, _ in _SPS_GOLDEN])
def test_sps_sample_matches_golden_digests(kind, height, width, n, labels_sha, locations_sha):
    samples, seg = sps_sample(gen_scene(kind, height, width, 1).rgb, n, return_segmentation=True)
    assert seg.labels.dtype == np.int32 and samples.locations.dtype == np.float64
    assert hashlib.sha256(np.ascontiguousarray(seg.labels).tobytes()).hexdigest() == labels_sha
    assert hashlib.sha256(np.ascontiguousarray(samples.locations).tobytes()).hexdigest() == locations_sha


# ---------------------------------------------------------------- soft association

def _small_case(seed=11, h=12, w=12, n=9, iters=5):
    lab = _random_img(h, w, seed).to_lab()
    seg = slic_iterate(slic_init(lab, n), lab, iters=iters)
    return seg, lab


def test_soft_association_cold_limit_is_one_hot():
    seg, lab = _small_case()
    assoc = soft_association(seg, lab, tau=1e-4)
    assert assoc.weights.max(axis=2).min() > 0.999


def test_soft_association_hot_limit_is_uniform():
    seg, lab = _small_case()
    assoc = soft_association(seg, lab, tau=1e6)
    # interior pixels see all nine lattice neighbors
    present = (assoc.seed_ids >= 0).sum(axis=2)
    full = present == 9
    assert full.any()
    dev = np.abs(assoc.weights[full] - 1 / 9).max()
    assert dev < 1e-3


def test_soft_association_rows_normalized():
    seg, lab = _small_case()
    for tau in (1e-4, 0.3, 1.0, 50.0, 1e6):
        assoc = soft_association(seg, lab, tau=tau)
        sums = assoc.weights.sum(axis=2)
        assert np.abs(sums - 1).max() < 1e-12
        assert assoc.weights.min() >= 0
        # absent lattice slots carry no weight
        assert assoc.weights[assoc.seed_ids < 0].max() == 0.0


def test_soft_association_rejects_bad_tau():
    seg, lab = _small_case()
    with pytest.raises(ValueError):
        soft_association(seg, lab, tau=0.0)


# ---------------------------------------------------------------- loss

def _brute_force_loss(assoc, lab, m):
    """Plain-loop evaluation of the association loss, kept deliberately dumb."""
    h, w = lab.height, lab.width
    n = assoc.n_superpixels
    mass = np.zeros(n)
    usum = np.zeros((n, 3))
    lsum = np.zeros((n, 2))
    for y in range(h):
        for x in range(w):
            for k in range(9):
                s = assoc.seed_ids[y, x, k]
                if s < 0:
                    continue
                q = assoc.weights[y, x, k]
                mass[s] += q
                usum[s] += q * lab.values[y, x]
                lsum[s] += q * np.array([x, y])
    u = usum / mass[:, None]
    l = lsum / mass[:, None]
    total = 0.0
    for y in range(h):
        for x in range(w):
            f_rec = np.zeros(3)
            c_rec = np.zeros(2)
            for k in range(9):
                s = assoc.seed_ids[y, x, k]
                if s < 0:
                    continue
                q = assoc.weights[y, x, k]
                f_rec += q * u[s]
                c_rec += q * l[s]
            total += np.linalg.norm(lab.values[y, x] - f_rec)
            total += m * np.linalg.norm(np.array([x, y]) - c_rec)
    return total


def test_loss_zero_when_every_pixel_is_its_own_superpixel():
    lab = _uniform(4, 4).to_lab()
    # hand-built hard segmentation: pixel (x, y) is superpixel y*4+x
    labels = np.arange(16, dtype=np.int32).reshape(4, 4)
    xs, ys = np.meshgrid(np.arange(4), np.arange(4))
    seeds = np.column_stack([
        lab.values.reshape(-1, 3),
        xs.ravel().astype(float),
        ys.ravel().astype(float),
    ])
    seg = Segmentation(labels, seeds)
    assoc = soft_association(seg, lab, tau=1e-4)
    # every pixel matches its own seed exactly, all rivals underflow to 0,
    # so the reconstruction is exact and the loss vanishes identically
    assert slic_loss(assoc, lab) == 0.0


def test_loss_matches_brute_force_4x4():
    lab = _random_img(4, 4, 21).to_lab()
    seg = slic_iterate(slic_init(lab, 4), lab, iters=3)
    assoc = soft_association(seg, lab, tau=1.0)
    got = slic_loss(assoc, lab)
    want = _brute_force_loss(assoc, lab, 1.0)
    assert got >= 0
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_loss_matches_brute_force_on_random_8x8():
    for seed in range(5):
        lab = _random_img(8, 8, 30 + seed).to_lab()
        seg = slic_iterate(slic_init(lab, 4), lab, iters=4)
        for tau in (0.5, 2.0):
            assoc = soft_association(seg, lab, tau=tau)
            got = slic_loss(assoc, lab)
            want = _brute_force_loss(assoc, lab, 1.0)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


# ---------------------------------------------------------------- centers

def test_hard_centers_of_quadrant_blocks():
    lab = _random_img(4, 4, 2).to_lab()
    labels = np.array([
        [0, 0, 1, 1],
        [0, 0, 1, 1],
        [2, 2, 3, 3],
        [2, 2, 3, 3],
    ], dtype=np.int32)
    seeds = np.zeros((4, 5))
    seg = Segmentation(labels, seeds)
    summary = centers(seg, lab)
    want = [(0.5, 0.5), (2.5, 0.5), (0.5, 2.5), (2.5, 2.5)]
    assert np.allclose(summary.centers, want)
    assert np.allclose(summary.counts, 4)


def test_hard_centers_report_an_empty_labels_seed_and_zero_count():
    lab = _random_img(4, 4, 3).to_lab()
    labels = np.array([[0, 0, 2, 2]] * 4, dtype=np.int32)   # label 1 owns no pixel
    seeds = np.arange(15, dtype=np.float64).reshape(3, 5)
    summary = centers(Segmentation(labels, seeds), lab)
    assert summary.counts.tolist() == [8.0, 0.0, 8.0]
    assert np.array_equal(summary.mean_lab[1], seeds[1, :3])
    assert np.array_equal(summary.centers[1], seeds[1, 3:5])
    assert np.array_equal(summary.centers[[0, 2]], [(0.5, 1.5), (2.5, 1.5)])


def test_hard_centers_match_direct_summation():
    lab = _random_img(10, 9, 6).to_lab()
    seg = slic_iterate(slic_init(lab, 5), lab, iters=4)
    summary = centers(seg, lab)
    for s in range(5):
        ys, xs = np.nonzero(seg.labels == s)
        assert np.allclose(summary.centers[s], [xs.mean(), ys.mean()])
        assert np.allclose(summary.mean_lab[s], lab.values[ys, xs].mean(axis=0))


def test_weighted_center_pulls_toward_heavy_pixel():
    # 1x11 strip, two superpixels; only pixels x=0 and x=10 put mass on
    # superpixel 0 (0.1 and 0.9), so its center is 0.1*0 + 0.9*10 = 9
    lab = _uniform(1, 11).to_lab()
    ids = np.full((1, 11, 9), -1, dtype=np.int32)
    wts = np.zeros((1, 11, 9))
    # slot layout follows the (dr, dc) raster: 3=W, 4=own cell, 5=E
    for x in range(11):
        own = 0 if x <= 5 else 1
        ids[0, x, 4] = own
        if own == 0:
            ids[0, x, 5] = 1
        else:
            ids[0, x, 3] = 0
    wts[0, 0, 4], wts[0, 0, 5] = 0.1, 0.9
    wts[0, 10, 3], wts[0, 10, 4] = 0.9, 0.1
    for x in range(1, 10):
        own_slot = 4
        wts[0, x, own_slot] = 0.0 if ids[0, x, 4] == 0 else 1.0
        if ids[0, x, 4] == 0:  # push all mass to superpixel 1 instead
            wts[0, x, 5] = 1.0
    assoc = SoftAssociation(wts, ids, 2)
    summary = centers(assoc, lab)
    assert np.allclose(summary.centers[0], [9.0, 0.0])


def test_uniform_weights_over_row_give_mean_x():
    lab = _uniform(1, 3).to_lab()
    ids = np.full((1, 3, 9), -1, dtype=np.int32)
    wts = np.zeros((1, 3, 9))
    ids[0, :, 4] = 0
    wts[0, :, 4] = 1.0
    summary = centers(SoftAssociation(wts, ids, 1), lab)
    assert np.allclose(summary.centers[0], [1.0, 0.0])


# ---------------------------------------------------------------- sps

def test_sps_uniform_image_gives_cell_centroids():
    samples = sps_sample(_uniform(16, 16), 4)
    got = sorted(map(tuple, samples.locations))
    assert got == [(3.5, 3.5), (3.5, 11.5), (11.5, 3.5), (11.5, 11.5)]


def test_sps_sample_count():
    img = _random_img(24, 32, 9)
    for n in (1, 3, 10, 25):
        assert len(sps_sample(img, n).locations) == n


def test_sps_two_tone_one_sample_per_half():
    samples = sps_sample(_two_tone(), 2)
    xs = sorted(samples.locations[:, 0])
    assert xs[0] < 7.5 < xs[1]


def test_sps_samples_sit_inside_their_superpixel():
    img = _random_img(20, 26, 14)
    samples, seg = sps_sample(img, 8, return_segmentation=True)
    for s, (x, y) in enumerate(samples.locations):
        px, py = nearest_pixel(np.array([x, y]))
        assert seg.labels[int(py), int(px)] == s


def test_sps_deterministic():
    img = _random_img(18, 18, 4)
    a = sps_sample(img, 6)
    b = sps_sample(img, 6)
    assert np.array_equal(a.locations, b.locations)
