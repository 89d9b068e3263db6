"""Differentiable soft depth sampling at continuous locations.

A depth measurement at a continuous location is approximated as a softmax
blend of the depths in a small window around it.  The blend weights fall off
with squared distance and sharpen as the temperature drops, so the operator
interpolates between a wide average (high temperature) and nearest-neighbor
lookup (temperature near zero), and it carries an analytic gradient of the
sampled value with respect to the location.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .imagedata import DepthMap, SampleSet, nearest_pixel

__all__ = [
    "SamplingError",
    "TemperatureSchedule",
    "SsaConfig",
    "SoftSample",
    "ssa_weights",
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


@dataclass(frozen=True)
class TemperatureSchedule:
    """Linear temperature ramp from ``t_start`` at step 0 to ``t_end`` at ``steps``.

    A ramp of no steps stays at ``t_start``.
    """

    t_start: float = 1.0
    t_end: float = 0.1
    steps: int = 100

    def __post_init__(self):
        if self.t_end <= 0 or self.t_start < self.t_end:
            raise ValueError(
                f"schedule must anneal downward through positive temperatures, "
                f"got t_start={self.t_start}, t_end={self.t_end}")

    def at(self, step: int) -> float:
        if self.steps <= 0:
            return self.t_start
        frac = min(max(step, 0), self.steps) / self.steps
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
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


@dataclass(frozen=True, eq=False)
class SoftSample:
    """A soft depth read-out: value, location gradient, and the blend used."""

    value: float
    gradient: np.ndarray  # (2,) d value / d (x, y)
    weights: np.ndarray   # (k,) blend weights, sum to 1
    pixels: np.ndarray    # (k, 2) integer (x, y) of the contributing pixels


def ssa_weights(location: np.ndarray, points: np.ndarray, t: float) -> np.ndarray:
    """Softmax blend weights for window pixels around a continuous location.

    ``points`` is (k, 2) pixel coordinates; weight i is proportional to
    exp(-rho_i^2 / t^2) with rho_i the Euclidean distance from ``location``
    to pixel i.  The maximum exponent is subtracted before exponentiation so
    tiny temperatures stay finite.
    """
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    loc = np.asarray(location, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    rho2 = np.sum((loc - pts) ** 2, axis=1)
    a = -rho2 / (t * t)
    a -= a.max()
    w = np.exp(a)
    return w / w.sum()


def _window_points(d: DepthMap, location: np.ndarray, window: int):
    """Valid pixels of the window centered on the rounded location."""
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


def ssa_sample(d: DepthMap, location: np.ndarray, cfg: SsaConfig = SsaConfig()) -> SoftSample:
    """Softly sample depth at a continuous location.

    The window (cfg.window, clipped at image borders) is centered on the
    nearest pixel; weights are renormalized over the valid pixels inside it.
    The returned gradient is the exact derivative of the blended value with
    respect to the location:

        dk_i/dl = k_i * (-2 (l - w_i) / t^2 + 2 sum_j k_j (l - w_j) / t^2)

    which follows from differentiating the softmax of -rho^2 / t^2.
    """
    pts, depths = _window_points(d, np.asarray(location, dtype=np.float64), cfg.window)
    if len(pts) == 0:
        raise SamplingError(f"no valid depth in the {cfg.window}x{cfg.window} window at {location}")
    t = cfg.temperature
    loc = np.asarray(location, dtype=np.float64)
    w = ssa_weights(loc, pts, t)
    value = float(w @ depths)

    diff = (loc - pts) * (2.0 / (t * t))       # (k, 2) rows: 2 (l - w_i) / t^2
    mean_diff = w @ diff                        # sum_j k_j * 2 (l - w_j) / t^2
    dw = w[:, None] * (mean_diff - diff)        # (k, 2)
    grad = depths @ dw
    return SoftSample(value, grad, w, pts)


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


def hard_sample(d: DepthMap, location: np.ndarray, window: int = 5):
    """Nearest-pixel depth lookup, the test-time stand-in for soft sampling.

    Returns ``((px, py), depth)``.  Rounding ties go toward the smaller
    index.  If the nearest pixel is invalid, the nearest valid pixel inside
    the window is used instead; with none valid a SamplingError is raised.
    """
    loc = np.asarray(location, dtype=np.float64)
    pts, depths = _window_points(d, loc, window)
    if len(pts) == 0:
        raise SamplingError(f"no valid depth in the {window}x{window} window at {location}")
    cx, cy = int(nearest_pixel(loc[0])), int(nearest_pixel(loc[1]))
    if d.valid[cy, cx]:
        return (cx, cy), float(d.depth[cy, cx])
    rho2 = np.sum((pts - loc) ** 2, axis=1)
    # lexicographic (distance, y, x) keeps the fallback deterministic
    order = np.lexsort((pts[:, 0], pts[:, 1], rho2))
    best = order[0]
    return (int(pts[best, 0]), int(pts[best, 1])), float(depths[best])


def finite_difference_gradient(d: DepthMap, location: np.ndarray,
                               cfg: SsaConfig, h: float = 1e-4) -> np.ndarray:
    """Central-difference estimate of the soft-sample location gradient."""
    loc = np.asarray(location, dtype=np.float64)
    g = np.zeros(2)
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        g[axis] = (ssa_sample(d, loc + e, cfg).value
                   - ssa_sample(d, loc - e, cfg).value) / (2.0 * h)
    return g


def gradient_check(cases: int = 1000, window: int = 5, seed: int = 0,
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
    at the first step to its end at the last (the schedule's own ``steps`` is
    replaced by the given number of steps).  This is a demonstration of
    the gradient flow, not a production optimizer: if the loss rises for ten
    consecutive steps the run stops and the best locations seen are returned
    with ``diverged`` set.
    """
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if len(targets) != len(samples):
        raise ValueError(f"{len(targets)} targets for {len(samples)} samples")
    locs = samples.locations.copy()
    losses = []
    best_loss, best_locs = np.inf, locs.copy()
    streak = 0
    diverged = False
    schedule = replace(cfg.schedule, steps=steps - 1)
    for step in range(steps):
        step_cfg = replace(cfg, temperature=schedule.at(step))
        total = 0.0
        grads = np.zeros_like(locs)
        for i in range(len(locs)):
            s = ssa_sample(d, locs[i], step_cfg)
            err = s.value - targets[i]
            total += err * err
            grads[i] = 2.0 * err * s.gradient
        losses.append(total)
        if total < best_loss:
            best_loss, best_locs = total, locs.copy()
        if losses and len(losses) >= 2 and total > losses[-2]:
            streak += 1
            if streak >= 10:
                diverged = True
                break
        else:
            streak = 0
        locs -= lr * grads
        locs[:, 0] = np.clip(locs[:, 0], 0, d.width - 1)
        locs[:, 1] = np.clip(locs[:, 1], 0, d.height - 1)
    final = best_locs if diverged else locs
    return RefineResult(SampleSet(final), np.array(losses), diverged)
