"""Evaluation harness: error metrics, the sampler x reconstructor matrix,
and the temporal-staleness and pointing-jitter experiments.

All experiment outputs are deterministic for a given configuration: cells
are enumerated in a canonical order, every random draw comes from a seed
derived stably from the cell's identity, and the CSV/JSON writers use fixed
float formats.  Wall-clock timings are measured but excluded from reports
unless explicitly requested, since they would break byte-reproducibility.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .imagedata import DepthMap, LabImage, RgbImage, SampleSet, SamplingMask, apply_mask, rgb_to_lab
from .reconstruct import (AffinityGraph, SolverConfig, bilateral_reconstruct, build_affinity,
                          colorization_reconstruct, nn_reconstruct)
from .samplers import grid_mask, locations_to_mask, poisson_mask, random_mask, target_count
from .scenes import SyntheticScene
from .superpixel import DEFAULT_ITERS, DEFAULT_M, Segmentation, sps_sample

__all__ = [
    "mae",
    "rmse",
    "SAMPLERS",
    "Sampling",
    "sample",
    "RECONSTRUCTORS",
    "ExperimentConfig",
    "CellResult",
    "EvalReport",
    "run_matrix",
    "temporal_experiment",
    "jitter_experiment",
    "write_rows_csv",
    "write_rows_json",
]

SAMPLERS = ("random", "grid", "poisson", "sps")
RECONSTRUCTORS = ("colorization", "nearest", "bilateral")


def _error_arrays(est: DepthMap, gt: DepthMap) -> np.ndarray:
    if est.depth.shape != gt.depth.shape:
        raise ValueError("estimate and ground truth dimensions differ")
    mask = gt.valid
    if not mask.any():
        raise ValueError("ground truth has no valid pixels to evaluate")
    return est.depth[mask] - gt.depth[mask]


def mae(est: DepthMap, gt: DepthMap) -> float:
    """Mean absolute depth error in millimeters over valid ground truth."""
    return float(np.mean(np.abs(_error_arrays(est, gt))))


def rmse(est: DepthMap, gt: DepthMap) -> float:
    """Root mean squared depth error in millimeters over valid ground truth."""
    return float(np.sqrt(np.mean(_error_arrays(est, gt) ** 2)))


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: samplers, reconstructors, rates, seeds, and solver knobs."""

    samplers: tuple[str, ...] = ("random", "grid", "poisson", "sps")
    reconstructors: tuple[str, ...] = ("colorization",)
    rates: tuple[float, ...] = (0.0025,)
    seeds: tuple[int, ...] = (0,)
    m: float = DEFAULT_M
    slic_iters: int = DEFAULT_ITERS
    sigma_c: float = SolverConfig.sigma_c
    tol: float = SolverConfig.tol
    max_iters: int = SolverConfig.max_iters
    workers: int = 1

    def __post_init__(self) -> None:
        self.solver()  # rejects a bad solver field now, not in every cell
        for name, known in (("samplers", SAMPLERS), ("reconstructors", RECONSTRUCTORS)):
            for value in getattr(self, name):
                if value not in known:
                    raise ValueError(f"{name}: unknown name {value!r}, expected one of {known}")
        for rate in self.rates:
            if not 0 < rate <= 1:
                raise ValueError(f"rates: sampling rate must be in (0, 1], got {rate}")
        for name in ("samplers", "reconstructors", "rates", "seeds"):
            _check_distinct(name, getattr(self, name))

    def solver(self) -> SolverConfig:
        return SolverConfig(sigma_c=self.sigma_c, tol=self.tol, max_iters=self.max_iters)


@dataclass
class CellResult:
    """One (scene, sampler, reconstructor, rate, seed) evaluation."""

    scene: str
    sampler: str
    reconstructor: str
    rate: float
    seed: int
    mae_mm: float = float("nan")
    rmse_mm: float = float("nan")
    samples: int = 0
    time_ms: float = 0.0
    converged: bool = True
    error: str = ""


@dataclass
class EvalReport:
    """All cell results of a run plus aggregation and serialization."""

    rows: list[CellResult] = field(default_factory=list)

    def aggregate(self) -> list[dict]:
        """One row of ``AGGREGATE_COLUMNS`` per (sampler, reconstructor, rate,
        seed) with a cell that did not fail: the means of its scenes' errors
        and sample counts, and the sum of their times."""
        groups: dict[tuple, list[CellResult]] = {}
        for row in self.rows:
            if not row.error:
                groups.setdefault(tuple(getattr(row, c) for c in _GROUP_BY), []).append(row)
        return [{**dict(zip(_GROUP_BY, key)),
                 **{c: combine([getattr(row, c) for row in groups[key]])
                    for c, combine in _COMBINE.items()}}
                for key in sorted(groups)]

    def sorted_rows(self) -> list[CellResult]:
        return sorted(self.rows, key=lambda r: (r.scene, r.sampler, r.reconstructor, r.rate, r.seed))


_FORMATS = {
    "rate": lambda v: f"{v:.6f}",
    "mae_mm": lambda v: f"{v:.6f}",
    "rmse_mm": lambda v: f"{v:.6f}",
    "time_ms": lambda v: f"{v:.3f}",
}


def _format_cell(key: str, value) -> str:
    if key in _FORMATS:
        return _FORMATS[key](value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _scrub(obj, include_timing: bool, null_nonfinite: bool = False):
    """``obj``, a report row or payload, with each ``time_ms`` zeroed unless
    ``include_timing`` is set, keeping reports byte-identical across reruns
    of the same configuration; with ``null_nonfinite``, each NaN or infinite
    float is None."""
    if isinstance(obj, dict):
        return {k: 0.0 if k == "time_ms" and not include_timing
                else _scrub(v, include_timing, null_nonfinite) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_scrub(v, include_timing, null_nonfinite) for v in obj]
    if null_nonfinite and isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_rows_csv(rows: list[dict], path, columns: list[str],
                   include_timing: bool = False) -> None:
    """Write dict rows as CSV with fixed float formats, ``time_ms`` zeroed
    unless ``include_timing`` is set.  A field holding a comma, a quote or
    a line break is quoted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_format_cell(c, row[c]) for c in columns]
                         for row in _scrub(rows, include_timing))


def write_rows_json(payload: dict, path, include_timing: bool = False) -> None:
    """JSON mirror of a report: timings zeroed unless requested, and a NaN or
    infinite number (the errors of a failed cell) written as null."""
    with open(path, "w") as fh:
        json.dump(_scrub(payload, include_timing, null_nonfinite=True), fh, indent=2,
                  sort_keys=True, allow_nan=False)
        fh.write("\n")


CELL_COLUMNS = [f.name for f in fields(CellResult)]
_GROUP_BY = ("sampler", "reconstructor", "rate", "seed")
# how each aggregate column combines the values of a group's cells
_COMBINE = {
    "mae_mm": lambda v: float(np.mean(v)),
    "rmse_mm": lambda v: float(np.mean(v)),
    "samples": lambda v: int(round(float(np.mean(v)))),
    "time_ms": lambda v: float(np.sum(v)),
}
AGGREGATE_COLUMNS = [*_GROUP_BY, *_COMBINE]


def _check_distinct(name: str, values) -> None:
    """Reject an experiment axis that lists an entry twice: its cells would be
    evaluated and reported twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{name} lists {value!r} twice")


def _cell_seed(*parts: int) -> int:
    """Stable per-cell RNG seed from the experiment seed and cell identity."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


class Sampling:
    """What a sampler placed: its ``mask``, its continuous ``locations`` and,
    for ``sps``, the ``segmentation`` behind them (None for the baselines).

    An ``sps`` mask is rasterised from the locations on first use, so a
    caller that only moves the locations (jitter, refinement) does not pay
    for it.  Unpacks as ``(mask, locations, segmentation)``.
    """

    def __init__(self, locations: SampleSet, segmentation: Segmentation | None,
                 height: int, width: int, mask: SamplingMask | None = None):
        self.locations, self.segmentation = locations, segmentation
        self._size, self._mask = (height, width), mask

    @property
    def mask(self) -> SamplingMask:
        if self._mask is None:
            self._mask = locations_to_mask(self.locations, *self._size)
        return self._mask

    def __iter__(self):
        return iter((self.mask, self.locations, self.segmentation))


def sample(sampler: str, rgb: RgbImage, n: int, seed: int, m: float,
           iters: int) -> Sampling:
    """Run a sampler by name.

    Baselines report their mask pixels as locations.  Sampler functions are
    looked up by their module-global names at each call, so rebinding one of
    them (tracing, output checks) takes effect here.
    """
    h, w = rgb.height, rgb.width
    if sampler == "sps":
        return Sampling(*sps_sample(rgb, n, m, iters, return_segmentation=True), h, w)
    if sampler == "random":
        mask = random_mask(h, w, n, seed)
    elif sampler == "grid":
        mask = grid_mask(h, w, n)
    elif sampler == "poisson":
        mask = poisson_mask(h, w, n, seed)
    else:
        raise ValueError(f"unknown sampler {sampler!r}, expected one of {SAMPLERS}")
    ys, xs = np.nonzero(mask.bits)
    return Sampling(SampleSet(np.column_stack([xs, ys]).astype(np.float64)), None, h, w, mask)


def _cells(outer, cfg: ExperimentConfig):
    """Every (outer, sampler, reconstructor, rate, seed) cell in canonical order."""
    return itertools.product(outer, cfg.samplers, cfg.reconstructors, cfg.rates, cfg.seeds)


def _mask_key(sampler: str, image: int, n: int, seed: int) -> tuple:
    """What ``sample`` reads for a cell, so that cells with equal keys share
    one mask: the index of the image it samples, ``n``, and the seed for the
    samplers that use one (``grid`` and ``sps`` ignore it)."""
    return sampler, image, n, seed if sampler in ("random", "poisson") else None


def _attempt(fn, *args) -> tuple[object, Exception | None, float]:
    """``fn(*args)`` as (result, error, seconds).  The error is None on
    success, else the exception raised, and the result None: one cell must
    not stop the others."""
    t0 = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # handed to the caller
        result, error = None, exc
    return result, error, time.perf_counter() - t0


@contextlib.contextmanager
def _mapper(workers: int):
    """An order-keeping ``map``: over a thread pool when ``workers`` > 1."""
    if workers <= 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def _reconstruct(recon: str, lab: LabImage, sparse: DepthMap, cfg: ExperimentConfig,
                 graph: AffinityGraph | None = None) -> tuple[DepthMap, bool]:
    if recon == "colorization":
        result = colorization_reconstruct(lab, sparse, cfg.solver(), graph=graph)
        return result.depth, result.converged
    if recon == "nearest":
        return nn_reconstruct(sparse), True
    if recon == "bilateral":
        return bilateral_reconstruct(lab, sparse, sigma_c=cfg.sigma_c), True
    raise ValueError(f"unknown reconstructor {recon!r}, expected one of {RECONSTRUCTORS}")


def _evaluate_mask(mask: SamplingMask, scene: SyntheticScene, lab: LabImage, recon: str,
                   cfg: ExperimentConfig,
                   graph: AffinityGraph | None = None) -> tuple[float, float, bool]:
    """(MAE, RMSE, converged) of one reconstructor on one mask.  ``graph``, if
    given, is the scene's ``build_affinity(lab, cfg.sigma_c)``."""
    sparse = apply_mask(scene.depth, mask)
    dense, converged = _reconstruct(recon, lab, sparse, cfg, graph)
    return mae(dense, scene.depth), rmse(dense, scene.depth), converged


def _evaluation_key(recon: str, mask: SamplingMask) -> tuple[str, bytes]:
    """What ``_evaluate_mask`` reads of a cell besides its scene: cells of
    one scene with equal keys share one evaluation."""
    return recon, mask.bits.tobytes()


def _scene_graph(lab: LabImage, recons, cfg: ExperimentConfig) -> AffinityGraph | None:
    """The affinity graph that a scene's colorization solves share, or None
    when none of ``recons`` solves colorization."""
    return build_affinity(lab, cfg.sigma_c) if "colorization" in recons else None


_OWN_MASK = operator.attrgetter("mask")  # a cell's move that keeps the sampler's own mask


def _run_cells(scenes: list[SyntheticScene], cells: list[tuple], cfg: ExperimentConfig):
    """Run ``cells``, each (scene, reconstructor, sample arguments, move): the
    index in ``scenes`` of the scene it scores, ``sample``'s (sampler, index
    of the image it samples, n, seed), and a function that turns that
    ``Sampling`` into the cell's mask.  Returns (mask, scores, error,
    seconds) per cell: ``_evaluate_mask``'s scores, or the exception that
    failed the cell.

    Each distinct sampling (``_mask_key``) is made once, in a first pass,
    and moved for each cell that uses it.  Then, scene by scene, each
    distinct evaluation (``_evaluation_key``) runs once, and the scene's
    colorization solves share one affinity graph, dropped when the scene's
    pass ends.  A sampling's time goes to the first cell that uses it, and
    an evaluation's time, the graph's build included, to the first cell that
    uses the evaluation, so the cells' seconds add up to the work.  With
    ``cfg.workers`` > 1 the samplings, and each scene's graph and
    evaluations, run in a thread pool; results are in cell order.
    """
    uses = {}  # mask key -> the cells that use it, in order
    for i, (_, _, args, _) in enumerate(cells):
        uses.setdefault(_mask_key(*args), []).append(i)

    def make(group):  # one sampling, moved for each of its cells
        sampler, image, n, seed = cells[group[0]][2]
        sampling, error, seconds = _attempt(sample, sampler, scenes[image].rgb, n, seed,
                                            cfg.m, cfg.slic_iters)
        moved = [(None, error, 0.0) if error is not None else _attempt(cells[i][3], sampling)
                 for i in group]
        mask, error, move_s = moved[0]
        return [(mask, error, seconds + move_s), *moved[1:]]

    def score_scene(si, todo):
        """Scores of the scene's distinct evaluations, by first cell."""
        lab = rgb_to_lab(scenes[si].rgb)
        # Built on a pool thread like the solves: built on this one, it added
        # 4-6 MB to a two-worker run's peak RSS (allocator arenas).  A graph
        # that fails to build is None, and each solve then fails on its own.
        (graph, _, build_s), = each(lambda recons: _attempt(_scene_graph, lab, recons, cfg),
                                    [{cells[i][1] for i in todo}])
        scores = dict(zip(todo, each(lambda i: _attempt(
            _evaluate_mask, made[i][0], scenes[si], lab, cells[i][1], cfg, graph), todo)))
        builder = next((i for i in todo if cells[i][1] == "colorization"), None)
        if builder is not None:
            result, error, seconds = scores[builder]
            scores[builder] = result, error, seconds + build_s
        return scores

    made = {}  # cell -> (mask, error, seconds)
    with _mapper(cfg.workers) as each:
        for group, results in zip(uses.values(), each(make, uses.values())):
            made.update(zip(group, results))
        owner = {}  # scene -> {evaluation key: the first cell that uses it}
        for i, (si, recon, _, _) in enumerate(cells):
            if made[i][1] is None:
                owner.setdefault(si, {}).setdefault(_evaluation_key(recon, made[i][0]), i)
        scores = {}
        for si, todo in owner.items():
            scores.update(score_scene(si, list(todo.values())))

    out = []
    for i, (si, recon, _, _) in enumerate(cells):
        mask, error, seconds = made[i]
        result = None
        if error is None:
            first = owner[si][_evaluation_key(recon, mask)]
            result, error, score_s = scores[first]
            seconds += score_s if first == i else 0.0
        out.append((mask, result, error, seconds))
    return out


def run_matrix(scenes: list[SyntheticScene], cfg: ExperimentConfig,
               scene_names: list[str] | None = None) -> EvalReport:
    """Evaluate every sampler x reconstructor x rate x seed on every scene.

    The cells run through ``_run_cells``: each distinct mask is computed
    once, and each distinct evaluation (the scene, the reconstructor and the
    mask's bits) runs once, so the seeds of ``grid`` and ``sps`` share one
    mask and one solve.  A cell whose mask or evaluation failed records the
    error as "Type: message" and the run continues.  A cell's ``time_ms`` is
    the mask's sampling time and the evaluation's time (the graph's build
    included), each charged to the first cell in canonical order that uses
    it, so the cells' times add up to the run's work.  Rows are ordered by
    cell identity, not completion, so reports do not depend on
    ``cfg.workers``.
    """
    if scene_names is None:
        scene_names = [f"{i:03d}" for i in range(len(scenes))]
    cells = list(_cells(range(len(scenes)), cfg))
    results = _run_cells(scenes, [
        (si, recon, (sampler, si, target_count(rate, scenes[si].depth.height, scenes[si].depth.width),
                     _cell_seed(seed, si)), _OWN_MASK)
        for si, sampler, recon, rate, seed in cells], cfg)
    rows = []
    for (si, sampler, recon, rate, seed), (mask, result, error, seconds) in zip(cells, results):
        row = CellResult(scene_names[si], sampler, recon, rate, seed, time_ms=seconds * 1000.0)
        if mask is not None:
            row.samples = mask.count
        if error is not None:
            row.error, row.converged = f"{type(error).__name__}: {error}", False
        else:
            row.mae_mm, row.rmse_mm, row.converged = result
        rows.append(row)
    return EvalReport(rows)


def report_payload(report: EvalReport) -> dict:
    """JSON-ready payload: per-cell rows plus the scene-averaged aggregate."""
    return {"cells": [asdict(r) for r in report.sorted_rows()],
            "aggregate": report.aggregate()}


def _trend_rows(key: str, cells: list[tuple], results: list[tuple]) -> list[dict]:
    """One row per experiment cell (value, sampler, reconstructor, rate,
    seed), its errors averaged over its scenes or frames in order, from
    ``_run_cells``' results for every scene's cells in turn.  The first
    failure, in (scene, cell) order, is raised."""
    for _, _, error, _ in results:
        if error is not None:
            raise error
    rows = []
    for c, (value, sampler, recon, rate, seed) in enumerate(cells):
        scores = [result for _, result, _, _ in results[c::len(cells)]]
        rows.append({key: value, "sampler": sampler, "reconstructor": recon, "rate": rate,
                     "seed": seed, "mae_mm": float(np.mean([r[0] for r in scores])),
                     "rmse_mm": float(np.mean([r[1] for r in scores]))})
    return rows


def temporal_experiment(frames: list[SyntheticScene], delta_ts: tuple[int, ...],
                        cfg: ExperimentConfig) -> list[dict]:
    """Sampling-mask staleness: the mask is computed from frame t - dt.

    The adaptive sampler sees the reference (stale) RGB while depth is
    measured and evaluated on the current frame.  Baselines are content
    independent, so their masks are seeded by the current frame index and
    staleness cannot affect them.  Frames before max(delta_ts) are skipped so
    every delay is averaged over the same evaluation frames.  The delays must
    be distinct and at least 0.  The cells run through ``_run_cells`` at
    ``cfg.workers``: each distinct mask is sampled once per call, and each
    frame's distinct (reconstructor, mask) is evaluated once with one
    affinity graph.  Each row averages its frames in frame order.  Every
    evaluation runs before the first failure, in (frame, cell) order, is
    raised.
    """
    if not frames:
        raise ValueError("temporal experiment needs at least one frame")
    if not delta_ts:
        raise ValueError("temporal experiment needs at least one delay")
    for dt in delta_ts:
        if dt < 0:
            raise ValueError(f"mask delay must be non-negative, got {dt}")
    _check_distinct("delays", delta_ts)
    start = max(delta_ts)
    if start >= len(frames):
        raise ValueError(f"sequence of {len(frames)} frames is too short for delay {start}")
    h, w = frames[0].depth.height, frames[0].depth.width
    cells = list(_cells(delta_ts, cfg))
    results = _run_cells(frames, [
        (t, recon, (sampler, t - dt, target_count(rate, h, w), _cell_seed(seed, t)), _OWN_MASK)
        for t in range(start, len(frames)) for dt, sampler, recon, rate, seed in cells], cfg)
    return _trend_rows("delta_t", cells, results)


def _jitter(k: float, seed: int, si: int, n: int, h: int, w: int,
            sampling: Sampling) -> SamplingMask:
    """The mask of ``sampling``'s n locations after uniform noise in
    [-k, k]^2, drawn from (seed, si), clipped to the h x w image."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, si, 7]))
    moved = sampling.locations.locations + rng.uniform(-k, k, size=(n, 2))
    moved[:, 0] = np.clip(moved[:, 0], 0, w - 1)
    moved[:, 1] = np.clip(moved[:, 1], 0, h - 1)
    return locations_to_mask(SampleSet(moved), h, w)


def jitter_experiment(scenes: list[SyntheticScene], ranges: tuple[float, ...],
                      cfg: ExperimentConfig) -> list[dict]:
    """Projector pointing error: uniform noise in [-k, k]^2 on each location.

    Perturbed locations are clipped to the image and rasterized with
    collision resolution, so the sample budget is preserved.  Range 0 draws
    zero noise and reproduces the unperturbed result bit for bit.  The
    ranges must be distinct and at least 0.  The cells run through
    ``_run_cells`` at ``cfg.workers``: each distinct set of locations is
    sampled once per call and moved for every range, and each scene's
    distinct (reconstructor, mask) is evaluated once with one affinity
    graph, so range 0 solves an unseeded sampler's mask once for every seed.
    Each row averages its scenes in scene order.  Every evaluation runs
    before the first failure, in (scene, cell) order, is raised.
    """
    for k in ranges:
        if k < 0:
            raise ValueError(f"jitter range must be non-negative, got {k}")
    _check_distinct("jitter ranges", ranges)
    cells = list(_cells(ranges, cfg))
    runs = []
    for si, scene in enumerate(scenes):
        h, w = scene.depth.height, scene.depth.width
        for k, sampler, recon, rate, seed in cells:
            n = target_count(rate, h, w)
            runs.append((si, recon, (sampler, si, n, _cell_seed(seed, si)),
                         functools.partial(_jitter, k, seed, si, n, h, w)))
    return _trend_rows("jitter_px", cells, _run_cells(scenes, runs, cfg))
