"""Dense depth reconstruction from sparse samples, guided by the RGB image.

The flagship reconstructor follows the classic colorization approach: every
unknown pixel should equal the affinity-weighted average of its 8-neighbors,
with affinities from color similarity, and sampled pixels act as hard
constraints.  Multiplied by each pixel's degree, those equations are the
graph Laplacian L = diag(degrees) - K of the symmetric Gaussian kernel K,
reduced to the unknown pixels.  A small data term toward the nearest sample
(Barron and Poole, "The fast bilateral solver", ECCV 2016) bounds that
system's smallest eigenvalue from below, so it is well conditioned and its
answer is determined; a Jacobi-preconditioned conjugate gradient solves it.

Two simpler baselines round out the module: exact nearest-valid-sample
lookup and a radius-limited joint bilateral filter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy import sparse as sp

from .imagedata import DepthMap, LabImage

__all__ = [
    "AffinityGraph",
    "SolverConfig",
    "ColorizationResult",
    "build_affinity",
    "colorization_reconstruct",
    "nn_reconstruct",
    "bilateral_reconstruct",
]

_OFFSETS_8 = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]

# weight of the data term that pulls each unknown pixel toward its nearest
# sample; the reduced system's smallest eigenvalue is at least this
_LAMBDA = 1e-4


@dataclass(frozen=True, eq=False)
class AffinityGraph:
    """Graph Laplacian of the color affinities over the 8-neighbor pixel graph.

    ``laplacian`` is the (H*W, H*W) CSR matrix L = diag(degrees) - K of the
    Gaussian kernel K, with degrees the row sums of K; it is exactly
    symmetric and its rows sum to 0 up to rounding.  ``sigma_c`` is the
    color bandwidth the graph was built with.
    """

    laplacian: sp.csr_matrix
    height: int
    width: int
    sigma_c: float


@dataclass(frozen=True)
class SolverConfig:
    """Color bandwidth and conjugate-gradient stopping rule."""

    sigma_c: float = 10.0
    tol: float = 1e-6
    max_iters: int = 20000

    def __post_init__(self) -> None:
        _check_positive("sigma_c", self.sigma_c)
        _check_positive("tol", self.tol)
        if not self.max_iters >= 0:
            raise ValueError(f"max_iters must be at least 0, got {self.max_iters}")


@dataclass(frozen=True, eq=False)
class ColorizationResult:
    """Dense reconstruction plus the solver's convergence report.

    ``residual`` is the true relative residual ||b - A x|| / ||b|| of the
    returned solve.  ``error_bound_mm`` bounds the RMS distance over the
    solved pixels from the system's exact answer: ||b - A x|| / (lambda
    sqrt(N)), since A's smallest eigenvalue is at least lambda.
    """

    depth: DepthMap
    converged: bool
    iterations: int
    residual: float
    error_bound_mm: float


def _check_positive(name: str, value: float) -> None:
    """Reject a bandwidth, radius or tolerance that is not finite and positive
    (NaN included)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def build_affinity(lab: LabImage, sigma_c: float = SolverConfig.sigma_c) -> AffinityGraph:
    """Graph Laplacian of the Gaussian color affinities between 8-neighbors.

    K_ij = exp(-||lab_i - lab_j||^2 / (2 sigma_c^2)) for neighboring pixels.
    Both directions of a link square the same differences, so K is exactly
    symmetric, and so is L = diag(degrees) - K, with degrees the row sums
    of K.
    """
    _check_positive("sigma_c", sigma_c)
    h, w = lab.height, lab.width
    n = h * w
    idx = np.arange(n).reshape(h, w)
    rows, cols, vals = [], [], []
    for dy, dx in _OFFSETS_8:
        ys0, ys1 = max(0, -dy), min(h, h - dy)
        xs0, xs1 = max(0, -dx), min(w, w - dx)
        src = idx[ys0:ys1, xs0:xs1]
        dst = idx[ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx]
        diff = lab.values[ys0:ys1, xs0:xs1] - lab.values[ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx]
        wgt = np.exp(-np.sum(diff * diff, axis=-1) / (2.0 * sigma_c * sigma_c))
        rows.append(src.ravel())
        cols.append(dst.ravel())
        vals.append(wgt.ravel())
    kernel = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    degrees = np.asarray(kernel.sum(axis=1)).ravel()
    return AffinityGraph((sp.diags(degrees) - kernel).tocsr(), h, w, sigma_c)


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v summed in a fixed order, without BLAS, whose order depends on
    its thread count."""
    return float(np.einsum("i,i", u, v))


def _norm(u: np.ndarray) -> float:
    return math.sqrt(_dot(u, u))


def _jacobi_cg(A: sp.csr_matrix, b: np.ndarray, x0: np.ndarray,
               tol: float, max_iters: int) -> tuple[np.ndarray, bool, int]:
    """Preconditioned conjugate gradient for an SPD sparse system.

    Stops when the recurred residual ||r|| <= tol * ||b||, before the first
    iteration if the start x0 already meets it, or after max_iters.
    """
    diag = A.diagonal()
    b_norm = _norm(b)
    if b_norm == 0.0:
        return np.zeros_like(b), True, 0
    x = x0.copy()
    r = b - A @ x
    if _norm(r) <= tol * b_norm:
        return x, True, 0
    z = r / diag
    p = z.copy()
    rz = _dot(r, z)
    for it in range(1, max_iters + 1):
        Ap = A @ p
        alpha = rz / _dot(p, Ap)
        x += alpha * p
        r -= alpha * Ap
        if _norm(r) <= tol * b_norm:
            return x, True, it
        z = r / diag
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, False, max_iters


def nn_reconstruct(sparse_depth: DepthMap) -> DepthMap:
    """Assign every pixel the depth of its nearest valid sample, exactly.

    Distances are Euclidean between pixel centers; ties go to the sample
    with the smaller index in row-major scan order.  One exact Euclidean
    feature transform (Maurer, Qi and Raghavan, TPAMI 2003) gives each
    pixel's nearest sample.  scipy's breaks a tie toward the smaller
    column-major index, so it runs on the transposed mask; the tests pin
    the rule against a brute force, also where the two orders disagree.
    """
    if not sparse_depth.valid.any():
        raise ValueError("cannot reconstruct from a depth map with no valid samples")
    xs, ys = ndimage.distance_transform_edt(~sparse_depth.valid.T, return_distances=False,
                                            return_indices=True)
    out = sparse_depth.depth[ys.T, xs.T]
    return DepthMap(out, np.ones(out.shape, dtype=bool))


def colorization_reconstruct(lab: LabImage, sparse_depth: DepthMap,
                             cfg: SolverConfig = SolverConfig(),
                             graph: AffinityGraph | None = None) -> ColorizationResult:
    """Propagate sparse depth through color affinities to a dense map.

    Every unknown pixel is held to the affinity-weighted average of its
    neighbors, sum_j L_ij d_j = 0, with the rest fixed, and weakly, with
    weight lambda = _LAMBDA, to its nearest sample x_nn.  The unknown rows
    of the graph's Laplacian give the reduced system
    (L_UU + lambda I) x = -L_UF d_F + lambda x_nn, which is exactly
    symmetric with every eigenvalue at least lambda; a Jacobi-preconditioned
    CG warm-started from x_nn solves it to ``cfg.tol`` relative residual.
    ``error_bound_mm`` then bounds the RMS distance of the solved pixels
    from the exact answer.  Sampled pixels pass through bit-exactly, and
    since the exact answer is a convex combination of the samples, clipping
    to their min/max only moves the result closer to it.

    ``graph``, when given, is ``build_affinity(lab, cfg.sigma_c)``, so that
    solves on one image can share it; the result is bit-identical to that
    of ``graph=None``, which builds it here.  A graph of another size or
    ``sigma_c`` raises ValueError.
    """
    if (lab.height, lab.width) != (sparse_depth.height, sparse_depth.width):
        raise ValueError("image and depth dimensions differ")
    if graph is not None and ((graph.height, graph.width, graph.sigma_c)
                              != (lab.height, lab.width, cfg.sigma_c)):
        raise ValueError(f"affinity graph of {graph.height}x{graph.width} at sigma_c "
                         f"{graph.sigma_c} does not fit a {lab.height}x{lab.width} image "
                         f"at sigma_c {cfg.sigma_c}")
    constrained = sparse_depth.valid.ravel()
    if not constrained.any():
        raise ValueError("cannot reconstruct from a depth map with no valid samples")
    h, w = lab.height, lab.width
    if constrained.all():
        return ColorizationResult(sparse_depth, True, 0, 0.0, 0.0)

    if graph is None:
        graph = build_affinity(lab, cfg.sigma_c)
    full = nn_reconstruct(sparse_depth).depth.flatten()
    unknown = ~constrained
    d_f = sparse_depth.depth.ravel()
    A = graph.laplacian[unknown][:, unknown]
    A.setdiag(A.diagonal() + _LAMBDA)
    start = full[unknown]
    b = _LAMBDA * start - (graph.laplacian @ d_f)[unknown]

    x, converged, iters = _jacobi_cg(A, b, start, cfg.tol, cfg.max_iters)
    # one true residual gives both reports; ||x - x*|| <= ||b - A x|| / lambda
    res, b_norm = _norm(b - A @ x), _norm(b)
    residual = res / b_norm if b_norm else 0.0
    bound = res / (_LAMBDA * math.sqrt(x.size))

    # The exact solution is a convex combination of the samples, so clipping
    # the approximate one to their range only ever moves it closer to exact.
    d_c = d_f[constrained]
    full[unknown] = np.clip(x, d_c.min(), d_c.max())
    dense = DepthMap(full.reshape(h, w), np.ones((h, w), dtype=bool))
    return ColorizationResult(dense, converged, iters, residual, bound)


def bilateral_reconstruct(lab: LabImage, sparse_depth: DepthMap,
                          sigma_s: float | None = None, sigma_c: float = SolverConfig.sigma_c,
                          radius: float | None = None) -> DepthMap:
    """Joint bilateral splat of the samples: spatial times color Gaussian.

    Every sample spreads its depth to pixels within ``radius`` (default three
    spatial sigmas; sigma_s defaults to half the expected sample spacing).
    Pixels no sample reaches fall back to the nearest-sample value.
    """
    if (lab.height, lab.width) != (sparse_depth.height, sparse_depth.width):
        raise ValueError("image and depth dimensions differ")
    ys, xs = np.nonzero(sparse_depth.valid)
    if len(ys) == 0:
        raise ValueError("cannot reconstruct from a depth map with no valid samples")
    h, w = lab.height, lab.width
    if sigma_s is None:
        sigma_s = 0.5 * math.sqrt(h * w / len(ys))
    if radius is None:
        radius = 3.0 * sigma_s
    for name, value in (("sigma_s", sigma_s), ("sigma_c", sigma_c), ("radius", radius)):
        _check_positive(name, value)
    r_int = max(1, int(math.ceil(radius)))

    num = np.zeros((h, w))
    den = np.zeros((h, w))
    values = sparse_depth.depth[ys, xs]
    inv_2ss = 1.0 / (2.0 * sigma_s * sigma_s)
    inv_2sc = 1.0 / (2.0 * sigma_c * sigma_c)
    for sy, sx, val in zip(ys, xs, values):
        y0, y1 = max(0, sy - r_int), min(h - 1, sy + r_int)
        x0, x1 = max(0, sx - r_int), min(w - 1, sx + r_int)
        wy, wx = np.meshgrid(np.arange(y0, y1 + 1), np.arange(x0, x1 + 1), indexing="ij")
        d2 = (wy - sy) ** 2 + (wx - sx) ** 2
        disk = d2 <= radius * radius
        cdiff = lab.values[y0:y1 + 1, x0:x1 + 1] - lab.values[sy, sx]
        wgt = np.exp(-d2 * inv_2ss - np.sum(cdiff * cdiff, axis=-1) * inv_2sc)
        wgt = np.where(disk, wgt, 0.0)
        num[y0:y1 + 1, x0:x1 + 1] += wgt * val
        den[y0:y1 + 1, x0:x1 + 1] += wgt

    covered = den > 0
    out = np.zeros((h, w))
    out[covered] = num[covered] / den[covered]
    if not covered.all():
        fallback = nn_reconstruct(sparse_depth).depth
        out[~covered] = fallback[~covered]
    return DepthMap(out, np.ones((h, w), dtype=bool))
