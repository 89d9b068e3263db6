"""Differentiable soft depth sampling at continuous locations.

A depth measurement at a continuous location is approximated as a softmax
blend of the depths in a small window around it.  The blend weights fall off
with squared distance and sharpen as the temperature drops, so the operator
interpolates between a wide average (high temperature) and nearest-neighbor
lookup (temperature near zero), and it carries an analytic gradient of the
sampled value with respect to the location.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .imagedata import DepthMap, SampleSet, nearest_pixel

__all__ = [
    "SamplingError",
    "TemperatureSchedule",
    "SsaConfig",
    "SoftSample",
    "ssa_weights",
    "SoftRead",
    "ssa_read",
    "ssa_sample",
    "bilinear_sample",
    "hard_sample",
    "RefineResult",
    "refine_locations",
    "finite_difference_gradient",
    "gradient_check",
]


class SamplingError(ValueError):
    """No valid depth available in the sampling window."""


def _check_temperature(t: float) -> None:
    if not 0 < t < np.inf:  # NaN fails too
        raise ValueError(f"temperature must be finite and positive, got {t}")


@dataclass(frozen=True)
class TemperatureSchedule:
    """Linear temperature ramp from ``t_start`` at step 0 to ``t_end`` at step ``steps``.

    A ramp of no steps stays at ``t_start``.
    """

    t_start: float = 1.0
    t_end: float = 0.1

    def __post_init__(self):
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)):
            raise ValueError(f"schedule temperatures must be finite, "
                             f"got t_start={self.t_start}, t_end={self.t_end}")
        if self.t_end <= 0 or self.t_start < self.t_end:
            raise ValueError(
                f"schedule must anneal downward through positive temperatures, "
                f"got t_start={self.t_start}, t_end={self.t_end}")

    def at(self, step: int, steps: int) -> float:
        if steps <= 0:
            return self.t_start
        frac = min(max(step, 0), steps) / steps
        return self.t_start + (self.t_end - self.t_start) * frac


@dataclass(frozen=True)
class SsaConfig:
    """Window size (odd), current temperature, and the annealing schedule."""

    window: int = 5
    temperature: float = 1.0
    schedule: TemperatureSchedule = field(default_factory=TemperatureSchedule)

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be an odd size of at least 3, got {self.window}")
        _check_temperature(self.temperature)


@dataclass(frozen=True, eq=False)
class SoftSample:
    """A soft depth read-out: value, location gradient, and the blend used."""

    value: float
    gradient: np.ndarray  # (2,) d value / d (x, y)
    weights: np.ndarray   # (k,) blend weights, sum to 1
    pixels: np.ndarray    # (k, 2) integer (x, y) of the contributing pixels


@dataclass(frozen=True, eq=False)
class SoftRead:
    """Soft read-outs at n locations, each over its full k-pixel window."""

    values: np.ndarray     # (n,)
    gradients: np.ndarray  # (n, 2) d value / d (x, y)
    weights: np.ndarray    # (n, k) blend weights, 0 off the valid pixels
    pixels: np.ndarray     # (n, k, 2) integer (x, y), row-major in each window
    valid: np.ndarray      # (n, k) pixel inside the image with a valid depth


def _softmax(rho2: np.ndarray, t: float) -> np.ndarray:
    """Weights proportional to exp(-rho2 / t^2) along the last axis."""
    a = -rho2 / (t * t)
    a -= a.max(axis=-1, keepdims=True)
    w = np.exp(a)
    return w / w.sum(axis=-1, keepdims=True)


def ssa_weights(location: np.ndarray, points: np.ndarray, t: float) -> np.ndarray:
    """Softmax blend weights for window pixels around continuous locations.

    ``points`` is (..., k, 2) pixel coordinates around ``location`` (..., 2);
    weight i is proportional to exp(-rho_i^2 / t^2) with rho_i the Euclidean
    distance from the location to pixel i.  The maximum exponent is
    subtracted before exponentiation so tiny temperatures stay finite.
    """
    _check_temperature(t)
    loc = np.asarray(location, dtype=np.float64)[..., None, :]
    return _softmax(np.sum((loc - np.asarray(points, dtype=np.float64)) ** 2, axis=-1), t)


def _offsets(window: int) -> np.ndarray:
    """The (k, 2) (dx, dy) offsets of a window's pixels from its center, row-major."""
    half = window // 2
    dy, dx = np.mgrid[-half:half + 1, -half:half + 1]
    return np.column_stack([dx.ravel(), dy.ravel()])


def _windows(d: DepthMap, locs: np.ndarray, offsets: np.ndarray):
    """The window of pixels centered on each location's nearest pixel.

    ``offsets`` is the window's :func:`_offsets`.  Returns the (n, k) x and y
    of the pixels in row-major order, their (n, k) depths and the (n, k) mask
    of those inside the image with a valid depth.  Depths are read at flat
    indices, which need no clipping when every location lies at least half a
    window inside the image.  The first location outside the image raises
    ValueError; the first whose window has no valid depth, SamplingError.
    """
    h, w = d.height, d.width
    half = int(offsets[-1, 0])
    inside = False
    if len(locs):  # NaN fails every test below
        (lx, ly), (hx, hy) = locs.min(axis=0), locs.max(axis=0)
        inside = half <= lx and half <= ly and hx <= w - 1 - half and hy <= h - 1 - half
    if inside:
        outside = np.zeros(len(locs), dtype=bool)
        center = nearest_pixel(locs)
    else:
        x, y = locs[:, 0], locs[:, 1]
        outside = ~((0 <= x) & (x <= w - 1) & (0 <= y) & (y <= h - 1))
        center = nearest_pixel(np.where(outside[:, None], 0.0, locs))
    px, py = center[:, :1] + offsets[:, 0], center[:, 1:] + offsets[:, 1]
    if inside:
        flat = py * w + px
        ok = d.valid.ravel()[flat]
    else:
        ok = (0 <= px) & (px < w) & (0 <= py) & (py < h)
        flat = np.where(ok, py * w + px, 0)
        ok &= d.valid.ravel()[flat]
    depths = d.depth.ravel()[flat]
    if ok.all():
        return px, py, depths, ok
    bad = outside | ~ok.any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        if outside[i]:
            raise ValueError(f"location ({locs[i, 0]}, {locs[i, 1]}) outside a {h}x{w} image")
        window = 2 * half + 1
        raise SamplingError(f"no valid depth in the {window}x{window} window at {locs[i]}")
    return px, py, np.where(ok, depths, 0.0), ok


def _blend(locs: np.ndarray, px: np.ndarray, py: np.ndarray, depths: np.ndarray, t: float):
    """Soft values, gradients and weights at m locations, each over its k pixels.

    ``px``, ``py`` and ``depths`` are (m, k).  The gradient is the exact
    derivative of the blended value with respect to the location, from
    differentiating the softmax of -rho^2 / t^2:

        dk_i/dl = k_i * (-2 (l - w_i) / t^2 + 2 sum_j k_j (l - w_j) / t^2)
    """
    dx, dy = locs[:, :1] - px, locs[:, 1:] - py           # l - w_i, per axis
    w = _softmax(dx * dx + dy * dy, t)
    row = w[:, None, :]                                    # (m, 1, k)
    values = (row @ depths[..., None])[:, 0, 0]
    c = 2.0 / (t * t)
    dxc, dyc = dx * c, dy * c                              # 2 (l - w_i) / t^2
    # sum_j k_j * 2 (l - w_j) / t^2, as (m, 1) per axis
    mx, my = (row @ np.stack((dxc, dyc), axis=-1)).transpose(2, 0, 1)
    dw = np.stack((w * (mx - dxc), w * (my - dyc)), axis=-1)
    gradients = (depths[:, None, :] @ dw)[:, 0]
    return values, gradients, w


def _soft_read(d: DepthMap, locs: np.ndarray, offsets: np.ndarray, t: float,
               weights: np.ndarray | None = None):
    """Values and gradients at (n, 2) locations, plus their windows from :func:`_windows`.

    When every window is inside the image and fully valid, all locations are
    blended together as they are.  Otherwise locations with equally many
    valid window pixels are blended together over just those pixels, so every
    sum is reduced as for a single location.  A given (n, k) ``weights``
    array receives the blend weights at the valid pixels.
    """
    px, py, depths, ok = _windows(d, locs, offsets)
    if ok.all():
        values, gradients, w = _blend(locs, px, py, depths, t)
        if weights is not None:
            weights[...] = w
        return values, gradients, px, py, ok
    values, gradients = np.empty(len(ok)), np.empty((len(ok), 2))
    counts = ok.sum(axis=1)
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        keep = ok[rows]
        values[rows], gradients[rows], w = _blend(
            locs[rows], *(a[rows][keep].reshape(-1, k) for a in (px, py, depths)), t)
        if weights is not None:
            i, j = np.nonzero(keep)
            weights[rows[i], j] = w.ravel()
    return values, gradients, px, py, ok


def ssa_read(d: DepthMap, locations: np.ndarray, cfg: SsaConfig = SsaConfig()) -> SoftRead:
    """Softly sample depth at n continuous (x, y) locations, given as (n, 2).

    Each window (cfg.window, clipped at image borders) is centered on the
    nearest pixel; weights are renormalized over the valid pixels inside it.
    The gradient is the exact derivative of the blended value with respect to
    the location (see :func:`_blend`).
    """
    locs = np.asarray(locations, dtype=np.float64).reshape(-1, 2)
    weights = np.zeros((len(locs), cfg.window * cfg.window))
    values, gradients, px, py, ok = _soft_read(d, locs, _offsets(cfg.window),
                                               cfg.temperature, weights)
    return SoftRead(values, gradients, weights, np.stack((px, py), axis=-1), ok)


def ssa_sample(d: DepthMap, location: np.ndarray, cfg: SsaConfig = SsaConfig()) -> SoftSample:
    """:func:`ssa_read` at one location, keeping the valid window pixels only."""
    r = ssa_read(d, location, cfg)
    ok = r.valid[0]
    return SoftSample(float(r.values[0]), r.gradients[0], r.weights[0, ok], r.pixels[0, ok])


def bilinear_sample(d: DepthMap, location: np.ndarray) -> SoftSample:
    """Bilinear depth interpolation over the 2x2 cell containing the location.

    The comparison baseline: same read-out shape as :func:`ssa_sample` but
    supported on at most four pixels.  Invalid pixels are dropped and the
    remaining weights renormalized; the gradient applies the quotient rule to
    that renormalization.
    """
    loc = np.asarray(location, dtype=np.float64)
    x, y = float(loc[0]), float(loc[1])
    if not (0 <= x <= d.width - 1 and 0 <= y <= d.height - 1):
        raise ValueError(f"location ({x}, {y}) outside a {d.height}x{d.width} image")
    x0 = 0 if d.width == 1 else min(max(int(np.floor(x)), 0), d.width - 2)
    y0 = 0 if d.height == 1 else min(max(int(np.floor(y)), 0), d.height - 2)
    x1, y1 = min(x0 + 1, d.width - 1), min(y0 + 1, d.height - 1)
    fx, fy = x - x0, y - y0

    pixels = np.array([[x0, y0], [x1, y0], [x0, y1], [x1, y1]])
    w = np.array([(1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy])
    # d w_i / d (x, y)
    dw = np.array([
        [-(1 - fy), -(1 - fx)],
        [(1 - fy), -fx],
        [-fy, (1 - fx)],
        [fy, fx],
    ])
    ok = d.valid[pixels[:, 1], pixels[:, 0]]
    if not ok.any():
        raise SamplingError(f"no valid depth in the 2x2 cell at {location}")
    depths = d.depth[pixels[:, 1], pixels[:, 0]]
    w, dw = np.where(ok, w, 0.0), np.where(ok[:, None], dw, 0.0)
    z = w.sum()
    if z == 0.0:
        raise SamplingError(f"valid pixels carry zero bilinear weight at {location}")
    num, dnum = w @ depths, depths @ dw
    dz = dw.sum(axis=0)
    value = num / z
    grad = (dnum * z - num * dz) / (z * z)
    return SoftSample(float(value), grad, w[ok] / z, pixels[ok])


def hard_sample(d: DepthMap, location: np.ndarray, window: int = SsaConfig.window):
    """Nearest-pixel depth lookup, the test-time stand-in for soft sampling.

    Returns ``((px, py), depth)``.  Rounding ties go toward the smaller
    index.  If the nearest pixel is invalid, the nearest valid pixel inside
    the window is used instead; with none valid a SamplingError is raised.
    ``window`` must be odd and at least 1, so that its center is the nearest
    pixel; ValueError otherwise.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be an odd size of at least 1, got {window}")
    loc = np.asarray(location, dtype=np.float64)
    px, py, depths, ok = (a[0] for a in _windows(d, loc[None], _offsets(window)))
    best = window * window // 2  # the window center is the nearest pixel
    if not ok[best]:
        # argmin keeps the first of equal distances, the smallest (y, x) in row-major order
        best = int(np.argmin(np.where(ok, (px - loc[0]) ** 2 + (py - loc[1]) ** 2, np.inf)))
    return (int(px[best]), int(py[best])), float(depths[best])


def finite_difference_gradient(d: DepthMap, location: np.ndarray,
                               cfg: SsaConfig, h: float = 1e-4) -> np.ndarray:
    """Central-difference estimate of the soft-sample location gradient."""
    stencil = h * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    v = ssa_read(d, np.asarray(location, dtype=np.float64) + stencil, cfg).values
    return (v[0::2] - v[1::2]) / (2.0 * h)


def gradient_check(cases: int = 1000, window: int = SsaConfig.window, seed: int = 0,
                   t_range: tuple[float, float] = (0.2, 2.0),
                   h: float = 1e-4) -> float:
    """Max relative error of analytic vs finite-difference gradients.

    Each case draws a random depth patch (with some invalid pixels), a random
    location, and a random temperature.  Locations keep their fractional part
    at least 0.05 away from .5 because the window center flips there and the
    soft sample is only piecewise smooth; the finite-difference stencil must
    stay inside one smooth piece.

    The error is ||analytic - numeric|| / max(||analytic||, ||numeric||, 0.01):
    the 0.01 mm/px floor keeps the ratio meaningful when cold temperatures
    drive the true gradient below the cancellation noise of the differences.
    """
    if not 0 < t_range[0] <= t_range[1] < np.inf:  # NaN fails too
        raise ValueError(f"temperature range must satisfy 0 < low <= high < inf, got {t_range}")
    rng = np.random.default_rng(seed)
    size = 2 * window + 3
    worst = 0.0
    done = 0
    while done < cases:
        patch = rng.uniform(500.0, 20000.0, size=(size, size))
        valid = rng.random((size, size)) < 0.9
        d = DepthMap(np.where(valid, patch, 0.0), valid)
        base = rng.integers(1, size - 1, size=2).astype(np.float64)
        sign = rng.integers(0, 2, size=2) * 2 - 1
        loc = base + sign * rng.uniform(0.05, 0.45, size=2)
        t = float(rng.uniform(*t_range))
        cfg = SsaConfig(window=window, temperature=t)
        try:
            analytic = ssa_sample(d, loc, cfg).gradient
        except SamplingError:
            continue
        numeric = finite_difference_gradient(d, loc, cfg, h)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-2)
        worst = max(worst, float(np.linalg.norm(analytic - numeric) / denom))
        done += 1
    return worst


@dataclass(frozen=True, eq=False)
class RefineResult:
    """Outcome of gradient-based location refinement."""

    locations: SampleSet
    losses: np.ndarray
    diverged: bool


def refine_locations(d: DepthMap, samples: SampleSet, targets: np.ndarray,
                     cfg: SsaConfig = SsaConfig(), lr: float = 1e-5,
                     steps: int = 200) -> RefineResult:
    """Steer sample locations by descending the soft-sampling loss.

    Minimizes sum_s (soft_depth(l_s) - target_s)^2 by gradient descent on the
    locations, annealing the temperature linearly from the schedule's start
    at the first step to its end at the last.  This is a demonstration of
    the gradient flow, not a production optimizer: if the loss rises for ten
    consecutive steps the run stops and the best locations seen are returned
    with ``diverged`` set.
    """
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if len(targets) != len(samples):
        raise ValueError(f"{len(targets)} targets for {len(samples)} samples")
    offsets, bounds = _offsets(cfg.window), (d.width - 1, d.height - 1)
    locs = samples.locations.copy()
    losses = []
    best_loss, best_locs = np.inf, locs.copy()
    streak = 0  # consecutive steps on which the loss rose
    for step in range(steps):
        t = cfg.schedule.at(step, steps - 1)
        _check_temperature(t)
        values, gradients = _soft_read(d, locs, offsets, t)[:2]
        err = values - targets
        total = np.cumsum(np.append(0.0, err * err))[-1]  # a running total in sample order
        losses.append(total)
        if total < best_loss:
            best_loss, best_locs = total, locs.copy()
        streak = streak + 1 if len(losses) >= 2 and total > losses[-2] else 0
        if streak >= 10:
            break
        locs -= lr * (2.0 * err[:, None] * gradients)
        np.clip(locs, 0, bounds, out=locs)
    diverged = streak >= 10
    final = best_locs if diverged else locs
    return RefineResult(SampleSet(final), np.array(losses), diverged)
