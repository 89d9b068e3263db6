"""The four benchmark workloads.

Every workload is a closed loop with one evaluation in flight; an evaluation
is sample -> reconstruct -> score.  A workload makes its inputs from the
workload seed and a round number (``prepare``, not timed), then runs one
round of evaluations against depthsample's public API or its command line
(``run``, timed), then checks what the round produced (``check``, not timed).
A round is the smallest balanced unit of work: it visits every scene kind
the workload uses, so the mix of work is the same whatever the number of
rounds that fit in a run.  Every round makes fresh scenes.

Functions are always looked up through their module (``superpixel.sps_sample``)
at call time, so the tracer's rebinding sees every call.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from depthsample import cli, evaluate, imagedata, reconstruct, samplers, scenes, superpixel

RATE = 0.0025
KINDS = scenes.SCENE_KINDS


def derive_seed(*parts: int) -> int:
    """Stable 31-bit seed for one input, from the workload seed and its role."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0] & 0x7FFFFFFF)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@dataclass
class Evaluation:
    """One evaluation's outcome: its latency, its RMSE, and why it failed."""

    latency_ms: float
    rmse_mm: float
    failure: str = ""


@dataclass
class Round:
    evaluations: list[Evaluation] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def fail(self, count: int, reason: str) -> None:
        self.evaluations.extend(Evaluation(math.nan, math.nan, reason) for _ in range(count))


def dense_failure(dense: np.ndarray, sparse) -> str:
    """Why a colorization output is wrong, or "" when it is right."""
    if not np.all(np.isfinite(dense)):
        return "dense depth is not finite"
    if not np.array_equal(dense[sparse.valid], sparse.depth[sparse.valid]):
        return "sampled pixels changed in the colorization output"
    return ""


@contextlib.contextmanager
def checked_colorization(failures: list[str]):
    """Check every dense depth that colorization returns to the harness.

    The harness keeps its dense maps to itself, so while the block runs,
    ``evaluate``'s name for ``colorization_reconstruct`` is rebound to a
    wrapper that appends a failure to ``failures`` for each wrong output.
    It wraps whatever the name holds, the tracer's wrapper included.
    """
    original = evaluate.colorization_reconstruct

    def checked(lab, sparse, *args, **kwargs):
        result = original(lab, sparse, *args, **kwargs)
        failure = dense_failure(result.depth.depth, sparse)
        if failure:
            failures.append(failure)
        return result

    evaluate.colorization_reconstruct = checked
    try:
        yield
    finally:
        evaluate.colorization_reconstruct = original


def charge(rnd: Round, failures: list[str]) -> None:
    """Fail one passing evaluation of ``rnd`` per failure found inside the
    harness, which does not say which evaluation it came from."""
    passing = (e for e in rnd.evaluations if not e.failure)
    for failure, evaluation in zip(failures, passing):
        evaluation.failure = failure


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run the command line in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.cli(argv)
    return code, out.getvalue()


class Workload:
    name = ""
    height, width = 120, 160

    def __init__(self, seed: int, workdir: str, small: bool = False):
        self.seed = seed
        self.workdir = workdir
        if small:  # warm-up instance: same code paths, a fraction of the pixels
            self.height, self.width = 60, 80
        self.n = samplers.target_count(RATE, self.height, self.width)

    def prepare(self, r: int):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def check(self, inputs, output) -> Round:
        raise NotImplementedError

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)


class Matrix(Workload):
    """The reference matrix through ``depthsample pipeline``, one scene per kind.

    One round is one pipeline invocation over a fresh scene directory:
    4 scenes x random,grid,poisson,sps x colorization,nearest,bilateral x
    seeds 0,1 = 96 cells, with ``--workers`` equal to the usable CPUs.
    """

    name = "matrix"
    methods = "random,grid,poisson,sps"
    recons = "colorization,nearest,bilateral"
    scene_count = len(KINDS)
    seeds = "0,1"

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        if small:  # one scene, one seed: every sampler and reconstructor once
            self.scene_count, self.seeds = 1, "0"

    def prepare(self, r):
        out = self.path(f"matrix{r}-{self.height}")
        code, _ = _quiet_cli(["gen-scenes", "--out", out, "--count", str(self.scene_count),
                              "--height", str(self.height), "--width", str(self.width),
                              "--seed", str(derive_seed(self.seed, r, 1))])
        if code != 0:
            raise RuntimeError(f"gen-scenes failed with exit code {code}")
        return out

    def run(self, scene_dir):
        report, cells = scene_dir + "-report.csv", scene_dir + "-cells.csv"
        failures = []
        with checked_colorization(failures):
            code, _ = _quiet_cli(["pipeline", "--in", scene_dir, "--out", report,
                                  "--cells-out", cells, "--method", self.methods,
                                  "--recon", self.recons, "--rate", str(RATE),
                                  "--seeds", self.seeds, "--workers", str(nproc()),
                                  "--timing"])
        return code, cells, failures

    def check(self, scene_dir, output):
        code, cells, failures = output
        rnd = Round()
        expected = (self.scene_count * len(self.methods.split(",")) * len(self.recons.split(","))
                    * len(self.seeds.split(",")))
        if code != 0:
            rnd.fail(expected, f"pipeline exited with {code}")
            return rnd
        with open(cells, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            rmse_mm, mae_mm = float(row["rmse_mm"]), float(row["mae_mm"])
            failure = ""
            if row["error"]:
                failure = f"cell error: {row['error']}"
            elif int(row["samples"]) != self.n:
                failure = f"mask holds {row['samples']} samples, expected {self.n}"
            elif not (math.isfinite(rmse_mm) and math.isfinite(mae_mm)):
                failure = "non-finite error metric"
            rnd.evaluations.append(Evaluation(float(row["time_ms"]), rmse_mm, failure))
            rnd.digest.update(",".join(v for k, v in row.items() if k != "time_ms").encode())
        if len(rows) < expected:
            rnd.fail(expected - len(rows), "cell missing from the report")
        charge(rnd, failures)
        return rnd


class Frames(Workload):
    """A sensor loop: a fresh 240x320 scene per frame, kinds cycled.

    Each frame runs sps_sample -> locations_to_mask -> apply_mask ->
    colorization_reconstruct -> rmse.  Every frame is a fresh scene and every
    mask has one reconstructor, so caching inside the harness is bypassed.
    """

    name = "frames"
    height, width = 240, 320

    def prepare(self, r):
        return [scenes.gen_scene(kind, self.height, self.width, derive_seed(self.seed, r, i))
                for i, kind in enumerate(KINDS)]

    def run(self, frames):
        out = []
        for frame in frames:
            t0 = time.perf_counter()
            try:
                locs = superpixel.sps_sample(frame.rgb, self.n)
                mask = samplers.locations_to_mask(locs, self.height, self.width)
                sparse = imagedata.apply_mask(frame.depth, mask)
                result = reconstruct.colorization_reconstruct(
                    imagedata.rgb_to_lab(frame.rgb), sparse)
                err = evaluate.rmse(result.depth, frame.depth)
                done = (mask, sparse, result, err)
            except Exception as exc:  # a failed frame is counted, the loop goes on
                done = f"{type(exc).__name__}: {exc}"
            out.append(((time.perf_counter() - t0) * 1000.0, done))
        return out

    def check(self, frames, output):
        rnd = Round()
        for latency_ms, done in output:
            if isinstance(done, str):
                rnd.fail(1, done)
                continue
            mask, sparse, result, err = done
            dense = result.depth.depth
            if mask.count != self.n:
                failure = f"mask holds {mask.count} samples, expected {self.n}"
            else:
                failure = dense_failure(dense, sparse)
            rnd.evaluations.append(Evaluation(latency_ms, err, failure))
            rnd.digest.update(mask.bits.tobytes())
            rnd.digest.update(dense.tobytes())
        return rnd


class Trends(Workload):
    """The harness's stress experiments on piecewise-constant scenes.

    One round is a pointing-jitter run (sps,random x colorization, ranges
    0,3,7,15, seeds 0,1, on one scene: 16 evaluations, 8 sps_sample calls on
    one distinct image) and a mask-staleness run (sps x colorization, delays
    0..5, on a 9-frame translating sequence: 24 evaluations and sps_sample
    calls on 9 distinct frames).
    """

    name = "trends"
    kind = "piecewise-constant"
    jitter_scenes = 1
    ranges = (0.0, 3.0, 7.0, 15.0)
    delays = tuple(range(6))
    sequence_frames = 9

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        if small:  # one evaluation frame per delay
            self.sequence_frames = max(self.delays) + 1
        self.jitter_cfg = evaluate.ExperimentConfig(
            samplers=("sps", "random"), reconstructors=("colorization",),
            rates=(RATE,), seeds=(0, 1))
        self.temporal_cfg = evaluate.ExperimentConfig(
            samplers=("sps",), reconstructors=("colorization",),
            rates=(RATE,), seeds=(0,))

    def prepare(self, r):
        still = [scenes.gen_scene(self.kind, self.height, self.width, derive_seed(self.seed, r, i))
                 for i in range(self.jitter_scenes)]
        sequence = scenes.gen_translating_sequence(
            self.height, self.width, self.sequence_frames, shift_px=2,
            seed=derive_seed(self.seed, r, 99), kind=self.kind)
        return still, sequence

    def _sizes(self):
        j, t = self.jitter_cfg, self.temporal_cfg
        cells_j = len(self.ranges) * len(j.samplers) * len(j.seeds)
        cells_t = len(self.delays) * len(t.samplers) * len(t.seeds)
        evals_j = cells_j * self.jitter_scenes
        evals_t = cells_t * (self.sequence_frames - max(self.delays))
        return (cells_j, evals_j), (cells_t, evals_t)

    def run(self, inputs):
        still, sequence = inputs
        out, failures = [], []
        for experiment, args in ((evaluate.jitter_experiment, (still, self.ranges, self.jitter_cfg)),
                                 (evaluate.temporal_experiment,
                                  (sequence, self.delays, self.temporal_cfg))):
            t0 = time.perf_counter()
            try:
                with checked_colorization(failures):
                    rows = experiment(*args)
            except Exception as exc:  # a failed experiment is counted, the loop goes on
                rows = f"{type(exc).__name__}: {exc}"
            out.append((rows, time.perf_counter() - t0))
        return out, failures

    def check(self, inputs, output):
        # an experiment returns one row per cell, averaged over its scenes or
        # frames, so single evaluations are not visible: each row stands for
        # its evaluations, and the latency is the call's time per evaluation
        rnd = Round()
        output, failures = output
        for (rows, seconds), (cells, evals) in zip(output, self._sizes()):
            if isinstance(rows, str):
                rnd.fail(evals, rows)
                continue
            per_cell = evals // cells
            latency_ms = 1000.0 * seconds / evals
            for row in rows:
                failure = "" if math.isfinite(row["rmse_mm"]) and math.isfinite(row["mae_mm"]) \
                    else "non-finite error metric"
                rnd.evaluations.extend(Evaluation(latency_ms, row["rmse_mm"], failure)
                                       for _ in range(per_cell))
                rnd.digest.update(repr(sorted(row.items())).encode())
            if len(rows) != cells:
                rnd.fail(max(1, evals - per_cell * len(rows)), "experiment returned a wrong row count")
        charge(rnd, failures)
        return rnd


class Refine(Workload):
    """Soft-sampling refinement through the command line.

    Each evaluation runs ``sample --method ssa-refined`` (200 annealed steps),
    masks the ground truth, ``reconstruct --method nearest`` and ``eval``.  A
    round is four fresh step-edge scenes, on which refinement runs all 200
    steps.  On the other kinds it often stops early on divergence (within ~20
    steps on planar ramps, now and then on piecewise-constant scenes), which
    makes an evaluation cost either ~0.2 s or ~1 s, and textured scenes spend
    most of it in SLIC; both would hide the ``ssa`` layer behind the inputs.
    """

    name = "refine"
    kind = "step-edge"
    scenes_per_round = 4

    def prepare(self, r):
        out = []
        for i in range(self.scenes_per_round):
            s = derive_seed(self.seed, r, i)
            scene = scenes.gen_scene(self.kind, self.height, self.width, s)
            stem = self.path(f"refine{r}-{self.height}-{i}")
            imagedata.save_ppm(scene.rgb, stem + "-rgb.ppm")
            imagedata.save_pgm16(scene.depth, stem + "-gt.pgm")
            out.append((stem, s))
        return out

    def run(self, inputs):
        out = []
        for stem, s in inputs:
            t0 = time.perf_counter()
            try:
                codes, text = self._evaluate(stem, s)
            except Exception as exc:  # a failed evaluation is counted, the loop goes on
                codes, text = [-1], f"{type(exc).__name__}: {exc}"
            out.append(((time.perf_counter() - t0) * 1000.0, codes, text))
        return out

    def _evaluate(self, stem, s):
        """sample -> mask the ground truth -> reconstruct -> eval, all via files."""
        code, _ = _quiet_cli(["sample", "--method", "ssa-refined", "--rate", str(RATE),
                              "--in", stem + "-rgb.ppm", "--gt", stem + "-gt.pgm",
                              "--out", stem + "-mask.pgm", "--seed", str(s)])
        codes, text = [code], ""
        if code == 0:
            gt = imagedata.load_pgm16(stem + "-gt.pgm")
            sparse = imagedata.apply_mask(gt, imagedata.load_mask(stem + "-mask.pgm"))
            imagedata.save_pgm16(sparse, stem + "-sparse.pgm")
            code, _ = _quiet_cli(["reconstruct", "--method", "nearest",
                                  "--in", stem + "-sparse.pgm", "--out", stem + "-dense.pgm"])
            codes.append(code)
        if code == 0:
            code, text = _quiet_cli(["eval", "--est", stem + "-dense.pgm",
                                     "--gt", stem + "-gt.pgm"])
            codes.append(code)
        return codes, text

    def check(self, inputs, output):
        rnd = Round()
        for (stem, _), (latency_ms, codes, text) in zip(inputs, output):
            if any(codes) or len(codes) != 3:
                rnd.fail(1, text or f"command exited with {codes[-1]}")
                continue
            fields = dict(item.split("=", 1) for item in text.split())
            rmse_mm = float(fields.get("rmse_mm", "nan"))
            mask = imagedata.load_mask(stem + "-mask.pgm")
            sparse = imagedata.load_pgm16(stem + "-sparse.pgm")
            dense = imagedata.load_pgm16(stem + "-dense.pgm")
            failure = ""
            if mask.count != self.n:
                failure = f"mask holds {mask.count} samples, expected {self.n}"
            elif not (math.isfinite(rmse_mm) and dense.valid.all()):
                failure = "dense depth has holes or a non-finite error"
            elif not np.array_equal(dense.depth[sparse.valid], sparse.depth[sparse.valid]):
                failure = "sampled pixels changed in the nearest output"
            rnd.evaluations.append(Evaluation(latency_ms, rmse_mm, failure))
            rnd.digest.update(mask.bits.tobytes())
            rnd.digest.update(dense.depth.tobytes())
        return rnd


WORKLOADS = {w.name: w for w in (Matrix, Frames, Trends, Refine)}
