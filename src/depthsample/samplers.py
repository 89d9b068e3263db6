"""Baseline sampling-mask generators and location rasterization.

Three RGB-independent baselines (uniform random, regular grid, Poisson disk)
plus the bridge from continuous sample locations to a binary pixel mask.
Every generator returns exactly the requested number of samples and is
deterministic for a given seed.
"""
from __future__ import annotations

import math

import numpy as np

from .imagedata import SampleSet, SamplingMask, nearest_pixel

__all__ = [
    "CapacityError",
    "target_count",
    "random_mask",
    "grid_mask",
    "poisson_mask",
    "locations_to_mask",
]


class CapacityError(ValueError):
    """More samples requested than the image has room for: more than it has
    pixels, or more than Poisson-disk sampling can place at radius 1."""


def _check_capacity(n_samples: int, height: int, width: int) -> None:
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    if n_samples > height * width:
        raise CapacityError(f"{n_samples} samples do not fit in a {height}x{width} image")


def target_count(rate: float, height: int, width: int) -> int:
    """Number of samples for a sampling rate: round(rate * H * W), at least 1.

    ``rate`` is the fraction of pixels that receive a depth measurement,
    e.g. 0.0025 for 0.25%, so it lies in (0, 1].  Halves round up.
    """
    if not 0 < rate <= 1:
        raise ValueError(f"sampling rate must be in (0, 1], got {rate}")
    if height < 1 or width < 1:
        raise ValueError("image dimensions must be positive")
    return max(1, int(math.floor(rate * height * width + 0.5)))


def random_mask(height: int, width: int, n_samples: int, seed: int) -> SamplingMask:
    """Uniform random mask: ``n_samples`` distinct pixels, no replacement."""
    _check_capacity(n_samples, height, width)
    rng = np.random.default_rng(seed)
    flat = rng.choice(height * width, size=n_samples, replace=False)
    bits = np.zeros(height * width, dtype=bool)
    bits[flat] = True
    return SamplingMask(bits.reshape(height, width))


def _lattice_dims(n: int, height: int, width: int) -> tuple[int, int]:
    """Rows and cols of an approximately square lattice holding >= n points.

    rows = round(sqrt(n * H / W)) matches the image aspect ratio; cols then
    covers the remainder.  Both are clamped so cells are at least one pixel.
    """
    rows = int(math.floor(math.sqrt(n * height / width) + 0.5))
    rows = min(max(rows, 1), height)
    cols = math.ceil(n / rows)
    if cols > width:
        cols = width
        rows = math.ceil(n / cols)
    return rows, cols


def _lattice_points(n: int, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the first ``n`` points of ``grid_mask``'s lattice, in scan order."""
    rows, cols = _lattice_dims(n, height, width)
    ys = nearest_pixel((np.arange(rows) + 0.5) * height / rows)
    xs = nearest_pixel((np.arange(cols) + 0.5) * width / cols)
    return np.repeat(ys, cols)[:n], np.tile(xs, rows)[:n]


def grid_mask(height: int, width: int, n_samples: int) -> SamplingMask:
    """Regular grid mask with approximately square cells.

    The lattice has half-step margins so samples sit at cell centers.  When
    it holds more than ``n_samples`` points, trailing points in row-major
    scan order are dropped.
    """
    _check_capacity(n_samples, height, width)
    bits = np.zeros((height, width), dtype=bool)
    bits[_lattice_points(n_samples, height, width)] = True
    return SamplingMask(bits)


# ---------------------------------------------------------------------------
# Poisson disk (Bridson dart throwing plus bisection on the radius)
# ---------------------------------------------------------------------------

_BRIDSON_ATTEMPTS = 30


def _bridson(height: int, width: int, radius: float, rng: np.random.Generator,
             stop_at: int | None) -> np.ndarray:
    """Grow a Poisson-disk set of pixel locations with min spacing ``radius``.

    Standard Bridson dart throwing: keep an active list, propose up to 30
    candidates in the [r, 2r] annulus around a random active point, snap each
    candidate to its nearest pixel, and accept the first that no kept point
    lies closer to than ``radius``.  That test is one lookup in an exclusion
    raster: each kept point stamps the disc of pixels with d^2 < r^2 around
    it, and the raster is padded by the disc's reach so stamps need no
    clipping.  Generation halts early once ``stop_at`` points exist (the
    bisection probes only need feasibility).

    The 30 candidates are drawn and tested at once, the same numbers as
    drawing (rho, theta) per attempt with ``rng.uniform``.  After a hit at
    attempt k the generator is rewound to the 2 (k + 1) doubles that
    attempt-by-attempt drawing consumes, so the stream, and with it every
    set, matches one candidate at a time.  ``math.ceil(v - 0.5)`` is
    ``nearest_pixel`` on a scalar.
    """
    pad = math.ceil(radius)
    reach = np.arange(-pad, pad + 1)
    disc = reach[:, None] ** 2 + reach[None, :] ** 2 < radius * radius
    blocked = np.zeros((height + 2 * pad, width + 2 * pad), dtype=bool)
    points: list[tuple[int, int]] = []

    def push(px: int, py: int) -> None:
        points.append((px, py))
        blocked[py:py + 2 * pad + 1, px:px + 2 * pad + 1] |= disc

    x0 = math.ceil(rng.uniform(0, width - 1) - 0.5)
    y0 = math.ceil(rng.uniform(0, height - 1) - 0.5)
    push(x0, y0)
    active = [0]

    while active and (stop_at is None or len(points) < stop_at):
        slot = int(rng.integers(len(active)))
        ax, ay = points[active[slot]]
        state = rng.bit_generator.state
        u = rng.random(2 * _BRIDSON_ATTEMPTS)
        rho = radius + (2 * radius - radius) * u[0::2]   # rng.uniform(radius, 2 * radius)
        theta = 2.0 * math.pi * u[1::2]                  # rng.uniform(0.0, 2.0 * math.pi)
        px = np.ceil(ax + rho * np.cos(theta) - 0.5).astype(np.int64)
        py = np.ceil(ay + rho * np.sin(theta) - 0.5).astype(np.int64)
        free = (0 <= px) & (px < width) & (0 <= py) & (py < height)
        free[free] = ~blocked[py[free] + pad, px[free] + pad]
        if free.any():
            k = int(np.argmax(free))
            rng.bit_generator.state = state
            rng.random(2 * (k + 1))  # doubles leave the 32-bit buffer of rng.integers alone
            push(int(px[k]), int(py[k]))
            active.append(len(points) - 1)
        else:
            # swap-pop keeps removal O(1) and fully deterministic
            active[slot] = active[-1]
            active.pop()

    return np.array(points, dtype=np.int64).reshape(-1, 2)


def poisson_mask(height: int, width: int, n_samples: int, seed: int,
                 return_radius: bool = False):
    """Poisson-disk mask with exactly ``n_samples`` pixels.

    Bisects on the disk radius to find the largest spacing at which Bridson
    dart throwing still yields at least ``n_samples`` points, regenerates the
    full saturated set at that radius, and trims it uniformly at random down
    to the requested count.  With ``return_radius`` the achieved minimum
    spacing is returned alongside the mask; no two sampled pixels lie closer
    than that radius.
    """
    _check_capacity(n_samples, height, width)
    lo, hi = 1.0, 2.0 * math.sqrt(height * width / n_samples) + 1.0
    best_r = None
    best_iter = None
    for it in range(20):
        mid = 0.5 * (lo + hi)
        rng = np.random.default_rng([seed, it])
        pts = _bridson(height, width, mid, rng, stop_at=n_samples)
        if len(pts) >= n_samples:
            lo = mid
            best_r, best_iter = mid, it
        else:
            hi = mid

    if best_r is None:
        # radius 1 only excludes duplicate pixels; it is always feasible at
        # the sparse densities this sampler is meant for
        best_r, best_iter = 1.0, 20
    rng = np.random.default_rng([seed, best_iter])
    pts = _bridson(height, width, best_r, rng, stop_at=None)
    if len(pts) < n_samples:
        raise CapacityError(
            f"poisson sampling saturated at {len(pts)} < {n_samples} points; "
            "the image is too small for this budget")
    if len(pts) > n_samples:
        keep = np.sort(rng.choice(len(pts), size=n_samples, replace=False))
        pts = pts[keep]

    bits = np.zeros((height, width), dtype=bool)
    bits[pts[:, 1], pts[:, 0]] = True
    mask = SamplingMask(bits)
    return (mask, best_r) if return_radius else mask


# ---------------------------------------------------------------------------
# continuous locations -> pixel mask
# ---------------------------------------------------------------------------


def _ring_offsets(rho: int) -> list[tuple[int, int]]:
    """Offsets of the Chebyshev ring at distance ``rho``, nearest first.

    The ring is listed axis cells first (E, S, W, N), then the corner
    diagonals (NE, SE, SW, NW), then the remaining edge cells walking outward
    from the axes; a stable sort by Euclidean length then puts nearer cells
    first while ties keep that documented order.
    """
    seq = [(rho, 0), (0, rho), (-rho, 0), (0, -rho)]
    seq += [(rho, -rho), (rho, rho), (-rho, rho), (-rho, -rho)]
    for k in range(1, rho):
        seq += [(rho, -k), (rho, k), (k, rho), (-k, rho),
                (-rho, k), (-rho, -k), (-k, -rho), (k, -rho)]
    seq.sort(key=lambda o: o[0] * o[0] + o[1] * o[1])
    return seq


def locations_to_mask(samples: SampleSet, height: int, width: int) -> SamplingMask:
    """Rasterize continuous sample locations into a binary mask.

    Each location rounds to its nearest pixel (ties toward the smaller
    index).  When two locations land on the same pixel, the later one moves
    to the nearest free pixel found by searching Chebyshev rings of growing
    radius, so the mask always holds exactly ``len(samples)`` pixels.
    """
    loc = samples.locations
    n = len(loc)
    _check_capacity(n, height, width)
    if np.any(loc[:, 0] < 0) or np.any(loc[:, 0] > width - 1) \
            or np.any(loc[:, 1] < 0) or np.any(loc[:, 1] > height - 1):
        raise ValueError("sample locations fall outside the image bounds")

    bits = np.zeros((height, width), dtype=bool)
    px = nearest_pixel(loc[:, 0])
    py = nearest_pixel(loc[:, 1])
    for x, y in zip(px, py):
        if not bits[y, x]:
            bits[y, x] = True
            continue
        placed = False
        for rho in range(1, max(height, width)):
            for dx, dy in _ring_offsets(rho):
                cx, cy = x + dx, y + dy
                if 0 <= cx < width and 0 <= cy < height and not bits[cy, cx]:
                    bits[cy, cx] = True
                    placed = True
                    break
            if placed:
                break
        if not placed:  # pragma: no cover - capacity check rules this out
            raise CapacityError("no free pixel left for a colliding sample")
    return SamplingMask(bits)
