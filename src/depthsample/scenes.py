"""Deterministic synthetic RGB-D scenes for desk-scale evaluation.

Four scene kinds stress different aspects of adaptive sampling:

* ``piecewise-constant``: Voronoi cells with distinct colors and constant
  depths, so color edges coincide with depth edges (the adaptive sampler's
  best case);
* ``planar-ramp``: smoothly varying color over an exact affine depth plane;
* ``step-edge``: a single co-located color and depth discontinuity;
* ``textured``: high-frequency color texture over a smooth depth ramp,
  color edges with no depth behind them (the adversarial case).

Depths stay in [500, 20000] mm so every scene survives the 16-bit format.
"""
from __future__ import annotations

import colorsys
from dataclasses import dataclass, field

import numpy as np

from .imagedata import DepthMap, RgbImage

__all__ = ["SyntheticScene", "SCENE_KINDS", "gen_scene", "gen_translating_sequence"]

SCENE_KINDS = ("piecewise-constant", "planar-ramp", "step-edge", "textured")

_DEPTH_LO, _DEPTH_HI = 500, 20000


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    """A paired RGB image and dense ground-truth depth, plus generator facts."""

    rgb: RgbImage
    depth: DepthMap
    kind: str
    params: dict = field(default_factory=dict)


def _palette(k: int, rng: np.random.Generator) -> np.ndarray:
    """k clearly distinct colors: evenly spaced hues at a random rotation."""
    base = rng.uniform(0.0, 1.0)
    colors = []
    for i in range(k):
        r, g, b = colorsys.hsv_to_rgb((base + i / k) % 1.0, 0.85, 0.95)
        colors.append((round(r * 255), round(g * 255), round(b * 255)))
    return np.array(colors, dtype=np.uint8)


def _piecewise_constant(height: int, width: int, rng: np.random.Generator):
    # region count tracks image area so coverage stays a real challenge at
    # every scale instead of saturating once a handful of samples land
    k = int(np.clip(round(np.sqrt(height * width) / 8), 3, 48))
    cx = rng.uniform(0, width - 1, size=k)
    cy = rng.uniform(0, height - 1, size=k)
    xs, ys = np.meshgrid(np.arange(width), np.arange(height))
    d2 = (xs[:, :, None] - cx) ** 2 + (ys[:, :, None] - cy) ** 2
    region = np.argmin(d2, axis=2)

    colors = _palette(k, rng)
    depths = rng.choice(np.arange(_DEPTH_LO, _DEPTH_HI + 1), size=k, replace=False)
    rgb = colors[region]
    depth = depths[region].astype(np.float64)
    params = {"regions": k, "depths_mm": depths.tolist(),
              "centers": np.column_stack([cx, cy]).tolist()}
    return rgb, depth, params


def _ramp_coefficients(height: int, width: int, rng: np.random.Generator):
    d0 = float(rng.uniform(_DEPTH_LO, 2000))
    span = _DEPTH_HI - d0
    gx = float(rng.uniform(0.1, 1.0)) * span / (2 * max(width - 1, 1))
    gy = float(rng.uniform(0.1, 1.0)) * span / (2 * max(height - 1, 1))
    return d0, gx, gy


def _planar_ramp(height: int, width: int, rng: np.random.Generator):
    d0, gx, gy = _ramp_coefficients(height, width, rng)
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64))
    depth = d0 + gx * xs + gy * ys
    rgb = np.empty((height, width, 3), dtype=np.uint8)
    rgb[:, :, 0] = np.round(55 + 150 * xs / max(width - 1, 1))
    rgb[:, :, 1] = np.round(55 + 150 * ys / max(height - 1, 1))
    rgb[:, :, 2] = 128
    return rgb, depth, {"d0_mm": d0, "gx_mm_per_px": gx, "gy_mm_per_px": gy}


def _step_edge(height: int, width: int, rng: np.random.Generator):
    vertical = bool(rng.integers(2))
    extent = width if vertical else height
    pos = int(rng.integers(extent // 3, 2 * extent // 3 + 1))
    colors = _palette(2, rng)
    depths = rng.choice(np.arange(_DEPTH_LO, _DEPTH_HI + 1), size=2, replace=False)
    xs, ys = np.meshgrid(np.arange(width), np.arange(height))
    side = (xs >= pos).astype(int) if vertical else (ys >= pos).astype(int)
    rgb = colors[side]
    depth = depths[side].astype(np.float64)
    params = {"orientation": "vertical" if vertical else "horizontal",
              "position": pos, "depths_mm": depths.tolist()}
    return rgb, depth, params


def _textured(height: int, width: int, rng: np.random.Generator):
    d0, gx, gy = _ramp_coefficients(height, width, rng)
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64))
    depth = d0 + gx * xs + gy * ys
    cell = int(rng.integers(2, 5))
    gh, gw = height // cell + 1, width // cell + 1
    tiles = rng.integers(0, 256, size=(gh, gw, 3), dtype=np.uint8)
    rgb = tiles[(ys / cell).astype(int), (xs / cell).astype(int)]
    return rgb, depth, {"d0_mm": d0, "gx_mm_per_px": gx, "gy_mm_per_px": gy,
                        "cell_px": cell}


_GENERATORS = {
    "piecewise-constant": _piecewise_constant,
    "planar-ramp": _planar_ramp,
    "step-edge": _step_edge,
    "textured": _textured,
}


def gen_scene(kind: str, height: int, width: int, seed: int) -> SyntheticScene:
    """Generate one synthetic scene; identical (kind, dims, seed) reproduce it."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown scene kind {kind!r}, expected one of {SCENE_KINDS}")
    if height < 4 or width < 4:
        raise ValueError("scenes need at least 4x4 pixels")
    rng = np.random.default_rng([SCENE_KINDS.index(kind), height, width, seed])
    rgb, depth, params = _GENERATORS[kind](height, width, rng)
    return SyntheticScene(RgbImage(rgb), DepthMap.from_depth(depth), kind,
                          dict(params, seed=seed))


def gen_translating_sequence(height: int, width: int, n_frames: int,
                             shift_px: int = 2, seed: int = 0,
                             kind: str = "piecewise-constant") -> list[SyntheticScene]:
    """A rigidly translating scene: frame t is a window slid t*shift_px right.

    With ``shift_px`` 0 every frame is identical, the static case.  Generated
    by cropping one wide canvas so content is consistent across frames.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if shift_px < 0:
        raise ValueError("shift_px must be non-negative")
    canvas_w = width + shift_px * (n_frames - 1)
    canvas = gen_scene(kind, height, canvas_w, seed)
    frames = []
    for t in range(n_frames):
        x0 = t * shift_px
        rgb = RgbImage(canvas.rgb.pixels[:, x0:x0 + width])
        depth = DepthMap(canvas.depth.depth[:, x0:x0 + width],
                         canvas.depth.valid[:, x0:x0 + width])
        frames.append(SyntheticScene(rgb, depth, kind,
                                     dict(canvas.params, frame=t, shift_px=shift_px)))
    return frames
