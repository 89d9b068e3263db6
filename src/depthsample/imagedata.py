"""Core raster types and bit-exact Netpbm file I/O.

Rasters are thin frozen wrappers around numpy arrays: an 8-bit sRGB image,
its CIELAB view, a depth map in millimeters with a validity mask, a binary
sampling mask, and an ordered set of continuous sample locations.

Conventions used throughout the package:

* pixel coordinates are (x, y) = (column, row), origin at the center of the
  top-left pixel, so x runs over [0, W-1] and y over [0, H-1];
* depth is stored in millimeters, 16 bits on disk, value 0 meaning
  "no measurement";
* RGB images are PPM (P6, 8-bit), depth maps are PGM (P5, 16-bit big-endian),
  masks are PGM (P5, 8-bit, 255 = sampled), sample locations are CSV.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

__all__ = [
    "RgbImage", "LabImage", "DepthMap", "SamplingMask", "SampleSet",
    "NetpbmError", "FormatError", "TruncationError",
    "nearest_pixel", "rgb_to_lab", "apply_mask",
    "load_ppm", "save_ppm", "load_pgm16", "save_pgm16", "write_pgm16",
    "load_mask", "save_mask", "load_samples", "save_samples",
]

_WHITESPACE = b" \t\n\r\x0b\x0c"


class NetpbmError(ValueError):
    """Malformed Netpbm file. ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class FormatError(NetpbmError):
    """Header or payload does not match the expected Netpbm format."""


class TruncationError(NetpbmError):
    """File ends before the declared payload is complete."""


# ---------------------------------------------------------------------------
# raster types
# ---------------------------------------------------------------------------


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class RgbImage:
    """An (H, W, 3) array of 8-bit sRGB pixels, immutable after construction."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 3 or px.shape[2] != 3:
            raise ValueError(f"expected an (H, W, 3) pixel array, got shape {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("image must be at least 1x1")
        if px.dtype != np.uint8 and np.any((px < 0) | (px > 255)):
            raise ValueError("pixel values outside [0, 255]")
        object.__setattr__(self, "pixels", _freeze(px.astype(np.uint8, copy=True)))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def to_lab(self) -> "LabImage":
        return rgb_to_lab(self)


@dataclass(frozen=True, eq=False)
class LabImage:
    """An (H, W, 3) float array of CIELAB values (L in [0, 100])."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[2] != 3:
            raise ValueError(f"expected an (H, W, 3) Lab array, got shape {v.shape}")
        L = v[:, :, 0]
        # the published sRGB->XYZ matrix rows don't sum to the white point
        # exactly, so pure white lands a few 1e-6 above L=100; allow that
        if np.any(L < -1e-3) or np.any(L > 100 + 1e-3):
            raise ValueError("L channel outside [0, 100]")
        object.__setattr__(self, "values", _freeze(v.copy()))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class DepthMap:
    """Depth in millimeters with a per-pixel validity mask.

    Invalid pixels always carry depth 0, mirroring the on-disk encoding
    where a stored sample of 0 means "no measurement".
    """

    depth: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.depth, dtype=np.float64)
        v = np.asarray(self.valid, dtype=bool)
        if d.ndim != 2:
            raise ValueError(f"expected a 2-D depth array, got shape {d.shape}")
        if v.shape != d.shape:
            raise ValueError(f"valid mask shape {v.shape} != depth shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("depth values must be finite")
        if np.any(d < 0):
            raise ValueError("depth values must be non-negative")
        d = np.where(v, d, 0.0)
        object.__setattr__(self, "depth", _freeze(d))
        object.__setattr__(self, "valid", _freeze(v.copy()))

    @classmethod
    def from_depth(cls, depth: np.ndarray) -> "DepthMap":
        """Build a map where every strictly positive pixel is valid."""
        d = np.asarray(depth, dtype=np.float64)
        return cls(d, d > 0)

    @property
    def height(self) -> int:
        return self.depth.shape[0]

    @property
    def width(self) -> int:
        return self.depth.shape[1]


@dataclass(frozen=True, eq=False)
class SamplingMask:
    """Binary per-pixel mask marking which pixels get a depth measurement."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2:
            raise ValueError(f"expected a 2-D mask, got shape {b.shape}")
        if b.dtype != bool and np.any((b != 0) & (b != 1)):
            raise ValueError("mask entries must be 0/1")
        object.__setattr__(self, "bits", _freeze(b.astype(bool, copy=True)))

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def count(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Ordered list of continuous sample locations, one (x, y) row each."""

    locations: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=np.float64)
        if loc.size == 0:
            loc = loc.reshape(0, 2)
        if loc.ndim != 2 or loc.shape[1] != 2:
            raise ValueError(f"expected an (N, 2) location array, got shape {loc.shape}")
        if not np.all(np.isfinite(loc)):
            raise ValueError("sample locations must be finite")
        object.__setattr__(self, "locations", _freeze(loc.copy()))

    def __len__(self) -> int:
        return self.locations.shape[0]


def nearest_pixel(coords: np.ndarray) -> np.ndarray:
    """Round continuous coordinates to the nearest pixel index.

    Exact .5 ties go toward the smaller index, the convention used by every
    rounding site in this package (masks, hard sampling, window centers).
    """
    return np.ceil(np.asarray(coords, dtype=np.float64) - 0.5).astype(np.int64)


# ---------------------------------------------------------------------------
# sRGB -> CIELAB
# ---------------------------------------------------------------------------

# sRGB linear-light to XYZ matrix and the D65 reference white.
_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_WHITE_D65 = np.array([0.95047, 1.0, 1.08883])


def rgb_to_lab(img: RgbImage) -> LabImage:
    """Convert 8-bit sRGB to CIELAB (D65 white point).

    Follows the standard pipeline: inverse sRGB gamma, linear RGB -> XYZ,
    then the CIE f() cube-root compression against the D65 white.
    """
    rgb = img.pixels.astype(np.float64) / 255.0
    linear = np.where(rgb > 0.04045, ((rgb + 0.055) / 1.055) ** 2.4, rgb / 12.92)
    xyz = linear @ _RGB_TO_XYZ.T
    ratio = xyz / _WHITE_D65

    eps = (6.0 / 29.0) ** 3
    f = np.where(ratio > eps, np.cbrt(ratio), ratio / (3 * (6.0 / 29.0) ** 2) + 4.0 / 29.0)
    fx, fy, fz = f[:, :, 0], f[:, :, 1], f[:, :, 2]

    lab = np.empty_like(f)
    lab[:, :, 0] = 116.0 * fy - 16.0
    lab[:, :, 1] = 500.0 * (fx - fy)
    lab[:, :, 2] = 200.0 * (fy - fz)
    return LabImage(lab)


# ---------------------------------------------------------------------------
# Netpbm parsing helpers
# ---------------------------------------------------------------------------

PathLike = Union[str, Path]


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next header token and the position just past it."""
    n = len(buf)
    # skip whitespace and comment lines
    while pos < n:
        c = buf[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:  # '#'
            while pos < n and buf[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise TruncationError("file ends inside the header", pos)
    start = pos
    while pos < n and buf[pos] not in _WHITESPACE and buf[pos] != 0x23:
        pos += 1
    return buf[start:pos], pos


def _read_netpbm(path: PathLike, dtype: str, channels: tuple[int, ...],
                 maxval_error: str) -> tuple[np.ndarray, int]:
    """Read a binary Netpbm file of ``dtype`` samples: P6 with ``channels``
    (3,), P5 with (), and maxval the largest value of ``dtype``.  Returns the
    (H, W, *channels) samples and the payload's byte offset; a header that
    names another maxval raises FormatError(``maxval_error``)."""
    buf, name = Path(path).read_bytes(), str(path)
    magic = b"P6" if channels else b"P5"
    tok, pos = _next_token(buf, 0)
    if tok != magic:
        raise FormatError(f"{name}: expected magic {magic.decode()}, found {tok.decode(errors='replace')!r}", 0)
    fields = []
    for field in ("width", "height", "maxval"):
        tok, pos = _next_token(buf, pos)
        if not tok.isdigit():  # reported where the token starts
            raise FormatError(f"{name}: non-numeric {field} field {tok.decode(errors='replace')!r}",
                              pos - len(tok))
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{name}: image dimensions must be positive, got {width}x{height}", 0)
    # exactly one whitespace byte separates the header from the payload
    if pos >= len(buf):
        raise TruncationError(f"{name}: file ends before the payload", pos)
    if buf[pos] not in _WHITESPACE:
        raise FormatError(f"{name}: expected a single whitespace byte before the payload", pos)
    if maxval != np.iinfo(dtype).max:
        raise FormatError(f"{name}: {maxval_error}, got {maxval}", 0)
    start, shape = pos + 1, (height, width, *channels)
    nbytes = np.dtype(dtype).itemsize * math.prod(shape)
    if len(buf) - start < nbytes:
        raise TruncationError(
            f"{name}: payload needs {nbytes} bytes from byte {start} but the file ends",
            len(buf),
        )
    return np.frombuffer(buf[start:start + nbytes], dtype).reshape(shape), start


def _write_netpbm(samples: np.ndarray, path: PathLike) -> None:
    """Write (H, W, 3) samples as P6 and (H, W) samples as P5, with a canonical
    header whose maxval is the largest value of the samples' dtype."""
    h, w = samples.shape[:2]
    magic = "P6" if samples.ndim == 3 else "P5"
    header = f"{magic}\n{w} {h}\n{np.iinfo(samples.dtype).max}\n".encode("ascii")
    Path(path).write_bytes(header + samples.tobytes())


# ---------------------------------------------------------------------------
# Netpbm readers and writers
# ---------------------------------------------------------------------------


def load_ppm(path: PathLike) -> RgbImage:
    """Read an 8-bit binary PPM (P6) image."""
    return RgbImage(_read_netpbm(path, "u1", (3,), "only maxval 255 is supported")[0])


def save_ppm(img: RgbImage, path: PathLike) -> None:
    """Write an 8-bit binary PPM (P6) with a canonical header."""
    _write_netpbm(img.pixels, path)


def load_pgm16(path: PathLike) -> DepthMap:
    """Read a 16-bit big-endian PGM (P5) depth map; sample 0 means invalid."""
    samples = _read_netpbm(path, ">u2", (), "expected 16-bit depth (maxval 65535)")[0].astype(np.float64)
    return DepthMap(samples, samples > 0)


def save_pgm16(d: DepthMap, path: PathLike) -> None:
    """Write a depth map as 16-bit big-endian PGM (P5); invalid pixels store 0."""
    rounded = np.rint(d.depth)
    if np.any(rounded[d.valid] > 65535):
        raise ValueError("depth exceeds the 16-bit range (65535 mm)")
    samples = np.where(d.valid, rounded, 0.0).astype(">u2")
    write_pgm16(samples, path)


def write_pgm16(values: np.ndarray, path: PathLike) -> None:
    """Write a raw (H, W) array of 16-bit values as big-endian PGM (P5)."""
    v = np.asarray(values)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {v.shape}")
    if np.any(v < 0) or np.any(v > 65535):
        raise ValueError("values outside the 16-bit range")
    _write_netpbm(v.astype(">u2"), path)


def load_mask(path: PathLike) -> SamplingMask:
    """Read an 8-bit PGM (P5) mask where 255 marks sampled pixels."""
    samples, start = _read_netpbm(path, "u1", (), "expected an 8-bit mask (maxval 255)")
    bad = (samples != 0) & (samples != 255)
    if np.any(bad):
        raise FormatError(f"{path}: mask samples must be 0 or 255", start + int(np.flatnonzero(bad.ravel())[0]))
    return SamplingMask(samples == 255)


def save_mask(mask: SamplingMask, path: PathLike) -> None:
    """Write a sampling mask as 8-bit PGM (P5), 255 = sampled."""
    _write_netpbm(np.where(mask.bits, 255, 0).astype(np.uint8), path)


def save_samples(samples: SampleSet, path: PathLike) -> None:
    """Write sample locations as CSV with header ``x,y``, six decimal places."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in samples.locations:
            writer.writerow([f"{x:.6f}", f"{y:.6f}"])


def load_samples(path: PathLike) -> SampleSet:
    """Read a CSV sample-location file written by :func:`save_samples`."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["x", "y"]:
        raise ValueError(f"{path}: expected a CSV with header 'x,y'")
    locs = np.array([[float(x), float(y)] for x, y in rows[1:]], dtype=np.float64)
    return SampleSet(locs.reshape(-1, 2))


def apply_mask(d: DepthMap, mask: SamplingMask) -> DepthMap:
    """Keep depth only at sampled pixels: the simulated sparse measurement."""
    if mask.bits.shape != d.depth.shape:
        raise ValueError(f"mask shape {mask.bits.shape} != depth shape {d.depth.shape}")
    keep = mask.bits & d.valid
    return DepthMap(np.where(keep, d.depth, 0.0), keep)
