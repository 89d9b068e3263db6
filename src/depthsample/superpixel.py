"""SLIC superpixels, soft pixel-superpixel association, and adaptive sampling.

Superpixels are grown by localized k-means over (L, a, b, x, y) with the
combined distance

    d(p, s) = ||lab(p) - lab(s)||_2 + m * ||xy(p) - xy(s)||_2 / S

where S = sqrt(H * W / N) is the expected superpixel spacing and m trades
color fidelity against compactness.  On top of the hard segmentation this
module provides a softmax relaxation of the pixel-to-superpixel assignment,
the reconstruction loss that scores a soft assignment, and the adaptive
sampler that places one depth sample at the weighted center of every
superpixel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .imagedata import LabImage, RgbImage, SampleSet, nearest_pixel, rgb_to_lab
from .samplers import _lattice_dims, _lattice_points

__all__ = [
    "DEFAULT_M",
    "DEFAULT_ITERS",
    "Segmentation",
    "SoftAssociation",
    "SuperpixelSummary",
    "slic_init",
    "slic_iterate",
    "soft_association",
    "slic_loss",
    "centers",
    "sps_sample",
]

# default compactness weight on the spatial term of the combined distance,
# and the default number of localized k-means sweeps
DEFAULT_M = 1.0
DEFAULT_ITERS = 10

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])

# the 3x3 neighborhood in row-major order, as (row, column) offsets
_NEIGHBOR_OFFSETS = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]

# window cells per block of seeds in an assignment sweep: 512 KB per float64
# array, so a sweep's temporaries stay in cache at any image size
_WINDOW_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class Segmentation:
    """Hard pixel labeling plus the seed state that produced it.

    ``seeds`` rows are (L, a, b, x, y); seed id s occupies slot
    (s // grid_cols, s % grid_cols) of the initialization lattice, which is
    what defines each pixel's 3x3 seed neighborhood for soft association.
    """

    labels: np.ndarray   # (H, W) int32
    seeds: np.ndarray    # (N, 5) float64

    @property
    def n_superpixels(self) -> int:
        return self.seeds.shape[0]

    @property
    def step(self) -> float:
        """Expected superpixel spacing S = sqrt(H * W / N)."""
        return math.sqrt(self.height * self.width / self.n_superpixels)

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Seed lattice (rows, cols)."""
        return _lattice_dims(self.n_superpixels, self.height, self.width)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True, eq=False)
class SoftAssociation:
    """Per-pixel softmax weights over the 3x3 seed neighborhood.

    ``seed_ids`` holds -1 in slots that fall off the seed lattice; the
    matching weight is zero and each pixel's remaining weights sum to 1.
    """

    weights: np.ndarray    # (H, W, 9) float64
    seed_ids: np.ndarray   # (H, W, 9) int32
    n_superpixels: int


@dataclass(frozen=True, eq=False)
class SuperpixelSummary:
    """Weighted per-superpixel statistics: mean color, mass center, mass."""

    mean_lab: np.ndarray   # (N, 3)
    centers: np.ndarray    # (N, 2) (x, y)
    counts: np.ndarray     # (N,) member count or soft mass


def _combined_distance(planes, xs: np.ndarray, ys: np.ndarray, seed: np.ndarray,
                       m: float, step: float) -> np.ndarray:
    """d = color norm + m * spatial norm / S against seed rows of any leading shape;
    ``planes`` yields the L, a and b channels in turn, as a (3, ...) array does."""
    sq = [np.square(plane - seed[..., c]) for c, plane in enumerate(planes)]
    dc = np.sqrt((sq[0] + sq[1]) + sq[2])
    ds = np.sqrt(np.square(xs - seed[..., 3]) + np.square(ys - seed[..., 4]))
    return dc + m * ds / step


def _assign(lab: LabImage, seeds: np.ndarray, step: float, m: float,
            prev_labels: np.ndarray | None) -> np.ndarray:
    """One localized assignment sweep: each seed claims pixels in its window.

    Seeds search a 2S x 2S window around their current position; a pixel
    takes the seed with the strictly smallest combined distance, so on ties
    the lower seed id wins.  Pixels outside every window keep their previous
    label (or fall back to a global nearest-seed pass on the first sweep).

    The windows' distances are computed a block of seeds and one channel
    gather at a time (cells off the image read the nearest pixel); the merge
    then walks the block's seeds in id order and only compares and copies.
    """
    h, w = lab.height, lab.width
    best = np.full((h, w), np.inf)
    labels = np.full((h, w), -1, dtype=np.int32) if prev_labels is None else prev_labels.copy()
    half = max(1, int(math.ceil(step)))
    offsets = np.arange(-half, half + 1)
    xs = nearest_pixel(seeds[:, 3])[:, None] + offsets   # (k, 2h+1) window columns
    ys = nearest_pixel(seeds[:, 4])[:, None] + offsets   # (k, 2h+1) window rows
    x0, x1 = np.maximum(xs[:, 0], 0).tolist(), np.minimum(xs[:, -1], w - 1).tolist()
    y0, y1 = np.maximum(ys[:, 0], 0).tolist(), np.minimum(ys[:, -1], h - 1).tolist()
    ox, oy = xs[:, 0].tolist(), ys[:, 0].tolist()
    planes = np.moveaxis(lab.values, 2, 0).reshape(3, -1)
    cols, rows = np.clip(xs, 0, w - 1), np.clip(ys, 0, h - 1) * w
    block = max(1, _WINDOW_BLOCK // len(offsets) ** 2)
    for lo in range(0, len(seeds), block):
        hi = min(lo + block, len(seeds))
        flat = rows[lo:hi, :, None] + cols[lo:hi, None, :]
        d = _combined_distance((p[flat] for p in planes), xs[lo:hi, None, :],
                               ys[lo:hi, :, None], seeds[lo:hi, None, None], m, step)
        for s in range(lo, hi):
            if x1[s] < x0[s] or y1[s] < y0[s]:
                continue
            win = (slice(y0[s], y1[s] + 1), slice(x0[s], x1[s] + 1))
            d_win = d[s - lo, y0[s] - oy[s]:y1[s] - oy[s] + 1, x0[s] - ox[s]:x1[s] - ox[s] + 1]
            better = d_win < best[win]
            np.copyto(best[win], d_win, where=better)
            np.copyto(labels[win], s, where=better)

    missed = labels < 0
    if np.any(missed):
        ys, xs = np.nonzero(missed)
        d = _combined_distance(planes[:, missed.ravel(), None], xs[:, None], ys[:, None],
                               seeds, m, step)
        labels[missed] = np.argmin(d, axis=1)
    return labels


def _label_means(labels: np.ndarray, lab: LabImage,
                 seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean (L, a, b, x, y) of every label's members, and the member counts.

    A label with no members keeps its row of ``seeds``.
    """
    n = seeds.shape[0]
    flat = labels.ravel()
    counts = np.bincount(flat, minlength=n).astype(np.float64)
    ys, xs = np.indices(labels.shape)
    means = seeds.copy()
    cols = [lab.values[:, :, 0], lab.values[:, :, 1], lab.values[:, :, 2], xs, ys]
    filled = counts > 0
    for k, channel in enumerate(cols):
        sums = np.bincount(flat, weights=channel.ravel(), minlength=n)
        means[filled, k] = sums[filled] / counts[filled]
    return means, counts


def _enforce_connectivity(labels: np.ndarray, n: int) -> np.ndarray:
    """Keep only the largest 4-connected component of every label.

    Each orphan component is relabeled to whichever adjacent label currently
    owns the most pixels (ties to the smaller label id); orphans are processed
    in (label, component) order so the result is deterministic.

    One labelling pass finds the components of every label at once: pixels
    sit at the even nodes of a (2H-1) x (2W-1) grid, and the node between
    two 4-neighbors is set when their labels agree.  Components come out
    numbered in pixel scan order, as a per-label labelling would number
    them.  The merge then runs over a component adjacency list, which is
    exact because a component only ever changes label as a whole: the
    labels next to an orphan are the current labels of its adjacent
    components.
    """
    h, w = labels.shape
    grid = np.zeros((2 * h - 1, 2 * w - 1), dtype=bool)
    grid[::2, ::2] = True
    grid[::2, 1::2] = labels[:, 1:] == labels[:, :-1]
    grid[1::2, ::2] = labels[1:] == labels[:-1]
    comps, ncomp = ndimage.label(grid, structure=_FOUR_CONNECTED)
    comps = comps[::2, ::2]
    comp_label = np.zeros(ncomp + 1, dtype=labels.dtype)
    comp_label[comps.ravel()] = labels.ravel()
    sizes = np.bincount(comps.ravel(), minlength=ncomp + 1)

    # the main component of a label is its largest; lexsort is stable, so
    # ties go to the earliest in scan order
    order = np.lexsort((-sizes[1:], comp_label[1:])) + 1
    main = np.ones(ncomp, dtype=bool)
    main[1:] = comp_label[order[1:]] != comp_label[order[:-1]]
    is_orphan = np.zeros(ncomp + 1, dtype=bool)
    is_orphan[order[~main]] = True
    orphans = np.nonzero(is_orphan)[0]
    if len(orphans) == 0:
        return labels.copy()
    orphans = orphans[np.argsort(comp_label[orphans], kind="stable")]

    # (orphan, neighbor component) pairs, sorted by orphan
    a = np.concatenate([comps[:, :-1].ravel(), comps[:-1].ravel()])
    b = np.concatenate([comps[:, 1:].ravel(), comps[1:].ravel()])
    cut = a != b
    a, b = np.concatenate([a[cut], b[cut]]), np.concatenate([b[cut], a[cut]])
    keep = is_orphan[a]
    src, dst = np.divmod(np.unique(a[keep].astype(np.int64) * (ncomp + 1) + b[keep]), ncomp + 1)
    starts = np.searchsorted(src, orphans).tolist()
    ends = np.searchsorted(src, orphans, side="right").tolist()

    owner = comp_label.tolist()
    counts = np.bincount(labels.ravel(), minlength=n).tolist()
    sizes, dst = sizes.tolist(), dst.tolist()
    for c, lo, hi in zip(orphans.tolist(), starts, ends):
        own = owner[c]
        neigh = {owner[d] for d in dst[lo:hi]}
        neigh.discard(own)
        if not neigh:  # no other label touches it; nothing to merge into
            continue
        target = max(neigh, key=lambda t: (counts[t], -t))
        counts[own] -= sizes[c]
        counts[target] += sizes[c]
        owner[c] = target
    return np.asarray(owner, dtype=labels.dtype)[comps]


def _fill_empty(labels: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Guarantee every label id owns at least one pixel.

    An empty superpixel steals the pixel nearest its seed from any label
    that can spare one.  This can split the donor, which is tolerated: the
    partition and non-emptiness invariants are the ones that matter downstream.
    """
    n = seeds.shape[0]
    counts = np.bincount(labels.ravel(), minlength=n)
    empty = np.nonzero(counts == 0)[0]
    if len(empty) == 0:
        return labels
    labels = labels.copy()
    h, w = labels.shape
    xs, ys = np.meshgrid(np.arange(w), np.arange(h))
    for s in empty:
        donors = counts[labels] >= 2
        d2 = (xs - seeds[s, 3]) ** 2 + (ys - seeds[s, 4]) ** 2
        d2 = np.where(donors, d2, np.inf)
        flat = int(np.argmin(d2))
        py, px = divmod(flat, w)
        counts[labels[py, px]] -= 1
        labels[py, px] = s
        counts[s] += 1
    return labels


def slic_init(lab: LabImage, n_superpixels: int, m: float = DEFAULT_M) -> Segmentation:
    """Seed a segmentation on a regular lattice and assign initial labels.

    Seeds sit at the centers of an approximately square lattice (trailing
    lattice points are dropped in scan order when it overshoots), then each
    seed moves to the lowest-gradient pixel of its 3x3 neighborhood so seeds
    avoid edges; gradient ties keep the original position.  Initial labels
    come from one localized assignment sweep.  Initialization is
    deterministic.
    """
    h, w = lab.height, lab.width
    if n_superpixels < 1 or n_superpixels > h * w:
        raise ValueError(f"cannot place {n_superpixels} superpixels in a {h}x{w} image")
    if not (math.isfinite(m) and m >= 0):
        raise ValueError(f"compactness m must be finite and non-negative, got {m}")

    # forward-difference gradient magnitude in Lab space
    dx = np.zeros((h, w))
    dy = np.zeros((h, w))
    dx[:, :-1] = np.sum((lab.values[:, 1:] - lab.values[:, :-1]) ** 2, axis=-1)
    dy[:-1, :] = np.sum((lab.values[1:, :] - lab.values[:-1, :]) ** 2, axis=-1)
    grad = np.sqrt(dx + dy)

    # a lattice point moves to the first pixel of its 3x3 neighborhood, in
    # row-major order, that holds a gradient strictly below its own and
    # equal to the neighborhood minimum; off-image neighbors never win
    cy, cx = _lattice_points(n_superpixels, h, w)
    near = np.array(_NEIGHBOR_OFFSETS)
    around = np.pad(grad, 1, constant_values=np.inf)[cy[:, None] + 1 + near[:, 0],
                                                     cx[:, None] + 1 + near[:, 1]]
    lower = np.where(around < grad[cy, cx][:, None], around, np.inf)
    pick = np.argmin(lower, axis=1)
    moved = lower[np.arange(n_superpixels), pick] < np.inf
    by = np.where(moved, cy + near[pick, 0], cy)
    bx = np.where(moved, cx + near[pick, 1], cx)
    seeds = np.column_stack([lab.values[by, bx], bx, by])

    labels = _assign(lab, seeds, math.sqrt(h * w / n_superpixels), m, prev_labels=None)
    return Segmentation(labels.astype(np.int32), seeds)


def slic_iterate(seg: Segmentation, lab: LabImage, m: float = DEFAULT_M,
                 iters: int = DEFAULT_ITERS) -> Segmentation:
    """Run localized k-means sweeps, then enforce connectivity.

    Each sweep reassigns pixels within every seed's 2S x 2S window and moves
    seeds to their member means.  Afterwards every label is reduced to its
    largest 4-connected component (orphans merge into their dominant
    neighbor) and empty labels are repopulated, so the result is a partition
    with every superpixel id non-empty.
    """
    if iters < 0:
        raise ValueError(f"iters must be non-negative, got {iters}")
    labels, seeds = seg.labels, seg.seeds
    for _ in range(iters):
        labels = _assign(lab, seeds, seg.step, m, prev_labels=labels)
        seeds = _label_means(labels, lab, seeds)[0]
    labels = _enforce_connectivity(labels, seg.n_superpixels)
    labels = _fill_empty(labels, seeds)
    return Segmentation(labels.astype(np.int32), seeds)


def soft_association(seg: Segmentation, lab: LabImage, m: float = DEFAULT_M,
                     tau: float = 1.0) -> SoftAssociation:
    """Softmax relaxation of the hard assignment over 3x3 seed neighborhoods.

    Every pixel belongs to a cell of the initialization lattice; its
    candidate superpixels are the (up to) nine seeds of the surrounding 3x3
    cells and the weights are softmax(-d(p, s) / tau) over those candidates.
    The maximum exponent is subtracted before exponentiation so small ``tau``
    concentrates weight without overflow.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    h, w = lab.height, lab.width
    rows, cols = seg.grid_shape
    n = seg.n_superpixels
    cell_h, cell_w = h / rows, w / cols
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    cr = np.clip((ys / cell_h).astype(np.int64), 0, rows - 1)
    cc = np.clip((xs / cell_w).astype(np.int64), 0, cols - 1)

    ids = np.full((h, w, 9), -1, dtype=np.int32)
    score = np.full((h, w, 9), -np.inf)
    for slot, (dr, dc) in enumerate(_NEIGHBOR_OFFSETS):
        r, c = cr + dr, cc + dc
        inside = (r >= 0) & (r < rows) & (c >= 0) & (c < cols)
        sid = np.where(inside, r * cols + c, 0)
        present = inside & (sid < n)
        sid = np.where(present, sid, 0)
        d = _combined_distance(np.moveaxis(lab.values, 2, 0), xs, ys, seg.seeds[sid], m, seg.step)
        ids[:, :, slot] = np.where(present, sid, -1)
        score[:, :, slot] = np.where(present, -d / tau, -np.inf)

    score -= score.max(axis=2, keepdims=True)
    weights = np.where(ids >= 0, np.exp(score), 0.0)
    weights /= weights.sum(axis=2, keepdims=True)
    return SoftAssociation(weights, ids, n)


def centers(assoc_or_seg, lab: LabImage) -> SuperpixelSummary:
    """Weighted mean color and mass center of every superpixel.

    Accepts either a hard :class:`Segmentation` (weights are 0/1 and an empty
    superpixel reports its seed state) or a :class:`SoftAssociation` (weights
    are the soft assignment; every id must carry positive mass).
    """
    if isinstance(assoc_or_seg, Segmentation):
        out, mass = _label_means(assoc_or_seg.labels, lab, assoc_or_seg.seeds)
        return SuperpixelSummary(out[:, :3], out[:, 3:5], mass)

    h, w = lab.height, lab.width
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    channels = [lab.values[:, :, 0], lab.values[:, :, 1], lab.values[:, :, 2], xs, ys]
    assoc: SoftAssociation = assoc_or_seg
    n = assoc.n_superpixels
    ids = assoc.seed_ids.reshape(-1, 9)
    wts = assoc.weights.reshape(-1, 9)
    keep = ids.ravel() >= 0
    flat_ids = ids.ravel()[keep]
    flat_wts = wts.ravel()[keep]
    mass = np.bincount(flat_ids, weights=flat_wts, minlength=n)
    if np.any(mass <= 0):
        raise ValueError("soft association leaves a superpixel with zero mass")
    stats = []
    for ch in channels:
        contrib = (wts * ch.reshape(-1, 1)).ravel()[keep]
        stats.append(np.bincount(flat_ids, weights=contrib, minlength=n) / mass)
    out = np.column_stack(stats)
    return SuperpixelSummary(out[:, :3], out[:, 3:5], mass)


def slic_loss(assoc: SoftAssociation, lab: LabImage, m: float = DEFAULT_M) -> float:
    """Reconstruction loss of a soft assignment.

    Superpixel statistics (mean color u_s and mass center l_s) are formed
    from the soft weights, every pixel is then reconstructed as the weighted
    blend of its neighborhood's statistics, and the loss accumulates

        sum_p ||lab(p) - lab'(p)||_2 + m * ||xy(p) - xy'(p)||_2.

    A segmentation that respects color and spatial coherence scores low.
    """
    h, w = lab.height, lab.width
    summary = centers(assoc, lab)
    ids = assoc.seed_ids
    wts = assoc.weights
    safe_ids = np.where(ids >= 0, ids, 0)

    u = summary.mean_lab[safe_ids]            # (H, W, 9, 3)
    c = summary.centers[safe_ids]             # (H, W, 9, 2)
    lab_recon = np.sum(wts[..., None] * u, axis=2)
    xy_recon = np.sum(wts[..., None] * c, axis=2)

    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    color_err = np.sqrt(np.sum((lab.values - lab_recon) ** 2, axis=-1))
    spatial_err = np.sqrt((xs - xy_recon[:, :, 0]) ** 2 + (ys - xy_recon[:, :, 1]) ** 2)
    return float(np.sum(color_err + m * spatial_err))


def sps_sample(img: RgbImage, n_samples: int, m: float = DEFAULT_M,
               iters: int = DEFAULT_ITERS, return_segmentation: bool = False):
    """Adaptive sampling: one depth sample per superpixel, at its mass center.

    Runs SLIC on the image, takes each superpixel's member mass center, and
    snaps any center that falls outside its own (possibly non-convex) region
    to the nearest member pixel.  Locations are ordered by superpixel id.
    With ``return_segmentation`` the result is a ``(samples, segmentation)``
    pair so callers can inspect or dump the labeling that drove placement.
    """
    lab = rgb_to_lab(img)
    seg = slic_iterate(slic_init(lab, n_samples, m), lab, m, iters)
    summary = centers(seg, lab)
    locs = summary.centers.copy()
    at = seg.labels[nearest_pixel(locs[:, 1]), nearest_pixel(locs[:, 0])]
    # each label's pixels in scan order, from one stable sort (none is empty)
    order = np.argsort(seg.labels, axis=None, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(summary.counts)]).astype(np.int64)
    for s in np.flatnonzero(at != np.arange(n_samples)).tolist():
        ys, xs = np.divmod(order[bounds[s]:bounds[s + 1]], seg.width)
        d2 = (xs - locs[s, 0]) ** 2 + (ys - locs[s, 1]) ** 2
        best = int(np.argmin(d2))
        locs[s] = (xs[best], ys[best])
    samples = SampleSet(locs)
    if return_segmentation:
        return samples, seg
    return samples
