"""Error metrics and the experiment harness: the evaluation matrix, the
mask-staleness and pointing-jitter experiments, and report serialization."""
import collections
import csv
import dataclasses
import functools
import json
import threading
import time

import numpy as np
import pytest

from depthsample import evaluate, reconstruct
from depthsample.evaluate import (
    AGGREGATE_COLUMNS,
    CELL_COLUMNS,
    CellResult,
    EvalReport,
    ExperimentConfig,
    jitter_experiment,
    mae,
    report_payload,
    rmse,
    run_matrix,
    temporal_experiment,
    write_rows_csv,
    write_rows_json,
)
from depthsample.imagedata import DepthMap, rgb_to_lab
from depthsample.scenes import SyntheticScene, gen_scene, gen_translating_sequence


def _flat(value, shape=(3, 4)):
    return DepthMap.from_depth(np.full(shape, float(value)))


# ---------------------------------------------------------------- metrics


def test_metrics_zero_for_identical_maps():
    gt = gen_scene("textured", 8, 9, 0).depth
    assert mae(gt, gt) == 0.0
    assert rmse(gt, gt) == 0.0


def test_metrics_constant_offset():
    assert mae(_flat(1010.0), _flat(1000.0)) == pytest.approx(10.0)
    assert rmse(_flat(1010.0), _flat(1000.0)) == pytest.approx(10.0)


def test_metrics_worked_example():
    gt = DepthMap.from_depth(np.array([[1000.0, 1000.0, 1000.0]]))
    est = DepthMap.from_depth(np.array([[1000.0, 1000.0, 1030.0]]))
    assert mae(est, gt) == pytest.approx(10.0)
    assert rmse(est, gt) == pytest.approx(np.sqrt(300.0))


def test_rmse_never_below_mae():
    rng = np.random.default_rng(0)
    for _ in range(20):
        gt = DepthMap.from_depth(rng.uniform(500, 2000, size=(6, 7)))
        est = DepthMap.from_depth(rng.uniform(500, 2000, size=(6, 7)))
        assert rmse(est, gt) >= mae(est, gt)


def test_metrics_ignore_invalid_ground_truth():
    gt_depth = np.full((4, 4), 1000.0)
    gt_depth[0, 0] = 0.0  # no measurement here
    gt = DepthMap.from_depth(gt_depth)
    est_depth = np.full((4, 4), 1000.0)
    est_depth[0, 0] = 19999.0  # wild estimate where gt is silent
    est = DepthMap.from_depth(est_depth)
    assert mae(est, gt) == 0.0
    assert rmse(est, gt) == 0.0


def test_metrics_errors():
    with pytest.raises(ValueError):
        mae(_flat(1000.0, (3, 4)), _flat(1000.0, (4, 3)))
    empty = DepthMap(np.zeros((3, 3)), np.zeros((3, 3), dtype=bool))
    with pytest.raises(ValueError):
        rmse(_flat(1000.0, (3, 3)), empty)


# ------------------------------------------------------------- run_matrix


def test_matrix_enumerates_every_cell_in_canonical_order():
    scenes = [gen_scene("piecewise-constant", 16, 20, s) for s in (0, 1)]
    cfg = ExperimentConfig(samplers=("random", "grid"), reconstructors=("nearest",),
                           rates=(0.02, 0.05), seeds=(0, 1))
    report = run_matrix(scenes, cfg)
    assert len(report.rows) == 2 * 2 * 1 * 2 * 2
    keys = [(r.scene, r.sampler, r.reconstructor, r.rate, r.seed) for r in report.rows]
    assert keys[:4] == [
        ("000", "random", "nearest", 0.02, 0),
        ("000", "random", "nearest", 0.02, 1),
        ("000", "random", "nearest", 0.05, 0),
        ("000", "random", "nearest", 0.05, 1),
    ]
    assert keys[8][0] == "001"
    for row in report.rows:
        assert row.error == ""
        assert row.samples > 0
        assert np.isfinite(row.mae_mm) and np.isfinite(row.rmse_mm)
        assert row.rmse_mm >= row.mae_mm


def test_full_sampling_with_solver_reproduces_ground_truth():
    scene = gen_scene("planar-ramp", 10, 12, 4)
    cfg = ExperimentConfig(samplers=("grid",), reconstructors=("colorization",),
                           rates=(1.0,), seeds=(0,))
    (row,) = run_matrix([scene], cfg).rows
    assert row.samples == 120
    assert row.mae_mm == 0.0
    assert row.rmse_mm == 0.0
    assert row.converged


@pytest.mark.parametrize("field, bad", [("tol", -1.0), ("tol", float("nan")), ("max_iters", -5),
                                        ("sigma_c", 0.0),
                                        # axes: every cell would fail alike, so refuse them up front
                                        ("rates", (0.01, 0.0)), ("rates", (1.5,)),
                                        ("rates", (float("nan"),)), ("samplers", ("grid", "ssa")),
                                        ("reconstructors", ("cubic",))])
def test_experiment_config_rejects_a_bad_solver_field_when_made(field, bad):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: bad})


@pytest.mark.parametrize("field, values", [
    ("samplers", ("sps", "grid", "sps")), ("reconstructors", ("nearest", "nearest")),
    ("rates", (0.01, 0.0100)), ("seeds", (0, 1, 0)),
])
def test_experiment_config_rejects_a_repeated_axis_entry(field, values):
    # a repeated entry would evaluate and report the same cells twice
    with pytest.raises(ValueError, match=f"{field} lists .* twice"):
        ExperimentConfig(**{field: values})


def test_failed_cell_is_recorded_and_run_continues():
    good = gen_scene("planar-ramp", 8, 10, 0)
    hollow = SyntheticScene(good.rgb, DepthMap(np.zeros((8, 10)),
                                               np.zeros((8, 10), dtype=bool)),
                            kind="custom")
    cfg = ExperimentConfig(samplers=("grid",), reconstructors=("nearest",),
                           rates=(0.05,), seeds=(0,))
    report = run_matrix([hollow, good], cfg, scene_names=["hollow", "good"])
    assert len(report.rows) == 2
    bad_row = report.rows[0]
    assert bad_row.error != ""
    assert np.isnan(bad_row.mae_mm)
    good_row = report.rows[1]
    assert good_row.error == ""
    assert np.isfinite(good_row.mae_mm)


def test_a_failed_cell_is_not_converged():
    good = gen_scene("planar-ramp", 8, 10, 0)
    hollow = SyntheticScene(good.rgb, DepthMap.from_depth(np.zeros((8, 10))), kind="custom")
    cfg = ExperimentConfig(samplers=("grid",), reconstructors=("colorization", "nearest"),
                           rates=(0.05,), seeds=(0,))
    report = run_matrix([hollow, good], cfg, scene_names=["hollow", "good"])
    assert [(r.scene, bool(r.error), r.converged) for r in report.rows] == [
        ("hollow", True, False), ("hollow", True, False), ("good", False, True),
        ("good", False, True)]


def test_aggregate_averages_scenes_and_drops_failed_cells():
    report = EvalReport([
        CellResult("a", "grid", "nearest", 0.01, 0, mae_mm=10.0, rmse_mm=20.0,
                   samples=100, time_ms=5.0),
        CellResult("b", "grid", "nearest", 0.01, 0, mae_mm=20.0, rmse_mm=40.0,
                   samples=102, time_ms=7.0),
        CellResult("c", "grid", "nearest", 0.01, 0, error="boom"),
        CellResult("a", "random", "nearest", 0.01, 0, error="boom"),
    ])
    agg = report.aggregate()
    assert len(agg) == 1  # the all-failed (random, ...) group is dropped
    entry = agg[0]
    assert entry["sampler"] == "grid"
    assert entry["mae_mm"] == pytest.approx(15.0)
    assert entry["rmse_mm"] == pytest.approx(30.0)
    assert entry["samples"] == 101
    assert entry["time_ms"] == pytest.approx(12.0)


# ---------------------------------------------------------------- reports


def test_csv_writer_fixed_formats(tmp_path):
    rows = [{"sampler": "grid", "reconstructor": "nearest", "rate": 0.0025,
             "seed": 3, "mae_mm": 1.5, "rmse_mm": 2.25, "samples": 48,
             "time_ms": 123.456}]
    path = tmp_path / "agg.csv"
    write_rows_csv(rows, path, AGGREGATE_COLUMNS)
    assert path.read_text() == (
        "sampler,reconstructor,rate,seed,mae_mm,rmse_mm,samples,time_ms\n"
        "grid,nearest,0.002500,3,1.500000,2.250000,48,0.000\n"
    )
    write_rows_csv(rows, path, AGGREGATE_COLUMNS, include_timing=True)
    assert path.read_text().splitlines()[1].endswith(",123.456")


def test_csv_writer_booleans_and_errors(tmp_path):
    row = dataclasses.asdict(CellResult("s", "grid", "nearest", 0.01, 0,
                                        mae_mm=1.0, rmse_mm=2.0, samples=3))
    path = tmp_path / "cells.csv"
    write_rows_csv([row], path, CELL_COLUMNS)
    line = path.read_text().splitlines()[1]
    assert line == "s,grid,nearest,0.010000,0,1.000000,2.000000,3,0.000,true,"


def test_csv_writer_quotes_commas_quotes_and_line_breaks(tmp_path):
    row = dataclasses.asdict(CellResult("a,b", "grid", "nearest", 0.01, 0,
                                        error='ValueError: "x",\ny'))
    path = tmp_path / "cells.csv"
    write_rows_csv([row], path, CELL_COLUMNS)
    with path.open(newline="") as fh:
        header, line = csv.reader(fh)
    assert header == CELL_COLUMNS
    assert line == ["a,b", "grid", "nearest", "0.010000", "0", "nan", "nan", "0", "0.000",
                    "true", 'ValueError: "x",\ny']


def test_json_writer_writes_non_finite_numbers_as_null(tmp_path):
    payload = {"cells": [{"mae_mm": float("nan"), "rmse_mm": float("inf"), "samples": 0}]}
    path = tmp_path / "r.json"
    write_rows_json(payload, path)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    assert json.loads(path.read_text(), parse_constant=reject) == {
        "cells": [{"mae_mm": None, "rmse_mm": None, "samples": 0}]}


def test_report_columns_are_the_fields_the_report_holds():
    assert CELL_COLUMNS == [f.name for f in dataclasses.fields(CellResult)]
    report = EvalReport([CellResult("a", "grid", "nearest", 0.01, 0, mae_mm=1.0, rmse_mm=2.0)])
    assert list(report.aggregate()[0]) == AGGREGATE_COLUMNS


def test_reports_byte_identical_across_runs_and_worker_counts(tmp_path):
    scenes = [gen_scene("piecewise-constant", 16, 20, s) for s in (0, 1)]
    cfg = ExperimentConfig(samplers=("random", "grid", "poisson"),
                           reconstructors=("nearest",), rates=(0.02,), seeds=(0, 1))
    texts = []
    for i, workers in enumerate((1, 1, 4)):
        report = run_matrix(scenes, dataclasses.replace(cfg, workers=workers))
        payload = report_payload(report)
        csv_path = tmp_path / f"cells{i}.csv"
        json_path = tmp_path / f"report{i}.json"
        write_rows_csv(payload["cells"], csv_path, CELL_COLUMNS)
        write_rows_json(payload, json_path)
        texts.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert texts[0] == texts[1] == texts[2]


def test_json_writer_zeroes_timing_by_default(tmp_path):
    payload = {"aggregate": [{"sampler": "grid", "time_ms": 99.9}]}
    path = tmp_path / "r.json"
    write_rows_json(payload, path)
    assert json.loads(path.read_text())["aggregate"][0]["time_ms"] == 0.0
    write_rows_json(payload, path, include_timing=True)
    assert json.loads(path.read_text())["aggregate"][0]["time_ms"] == 99.9


# ------------------------------------------------------------ experiments


def test_temporal_static_sequence_is_delay_invariant():
    base = gen_scene("textured", 16, 20, 3)
    frames = [base] * 6
    cfg = ExperimentConfig(samplers=("random", "sps"), reconstructors=("nearest",),
                           rates=(0.02,), seeds=(0,))
    rows = temporal_experiment(frames, (0, 1, 3), cfg)
    assert len(rows) == 3 * 2
    for sampler in ("random", "sps"):
        errs = {(r["mae_mm"], r["rmse_mm"]) for r in rows if r["sampler"] == sampler}
        assert len(errs) == 1  # a frozen scene cannot be hurt by a stale mask


def test_temporal_rejects_sequences_shorter_than_the_delay():
    frames = [gen_scene("textured", 8, 8, 0)] * 3
    cfg = ExperimentConfig(samplers=("random",), reconstructors=("nearest",),
                           rates=(0.05,), seeds=(0,))
    with pytest.raises(ValueError):
        temporal_experiment(frames, (0, 3), cfg)
    with pytest.raises(ValueError):
        temporal_experiment([], (0,), cfg)


@pytest.mark.parametrize("delays, reason", [
    ((-1, 0), "mask delay must be non-negative, got -1"),
    ((), "needs at least one delay"),
    ((0, 2, 2), "delays lists 2 twice"),
])
def test_temporal_rejects_a_bad_delay_list_before_evaluating(monkeypatch, delays, reason):
    frames = [gen_scene("textured", 8, 8, 0)] * 3
    cfg = ExperimentConfig(samplers=("random",), reconstructors=("nearest",),
                           rates=(0.05,), seeds=(0,))
    calls = _count_sampling(monkeypatch)
    with pytest.raises(ValueError, match=reason):
        temporal_experiment(frames, delays, cfg)
    assert calls == []


def test_jitter_zero_reproduces_the_unjittered_matrix():
    scenes = [gen_scene("piecewise-constant", 16, 20, s) for s in (0, 1, 2)]
    cfg = ExperimentConfig(samplers=("grid", "sps"), reconstructors=("nearest",),
                           rates=(0.02,), seeds=(0,))
    jrows = jitter_experiment(scenes, (0.0,), cfg)
    matrix = run_matrix(scenes, cfg)
    for sampler in cfg.samplers:
        per_scene = [r.mae_mm for r in matrix.rows if r.sampler == sampler]
        (jrow,) = [r for r in jrows if r["sampler"] == sampler]
        assert jrow["mae_mm"] == float(np.mean(per_scene))


def test_jitter_perturbs_results_and_rejects_negative_ranges():
    scenes = [gen_scene("piecewise-constant", 16, 20, 0)]
    cfg = ExperimentConfig(samplers=("grid",), reconstructors=("nearest",),
                           rates=(0.05,), seeds=(0,))
    calm, rough = jitter_experiment(scenes, (0.0, 6.0), cfg)
    assert np.isfinite(rough["mae_mm"])
    assert rough["mae_mm"] != calm["mae_mm"]
    with pytest.raises(ValueError):
        jitter_experiment(scenes, (-1.0,), cfg)
    with pytest.raises(ValueError, match="jitter ranges lists 2.0 twice"):
        jitter_experiment(scenes, (0.0, 2.0, 2.0), cfg)


# ------------------------------------------------------------ mask reuse


def _count_calls(monkeypatch, module, name, delay_s=0.0):
    """Rebind ``module.name`` to a wrapper that records each call's arguments
    and sleeps ``delay_s`` first."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        time.sleep(delay_s)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_builds(monkeypatch):
    """Count affinity builds, by the harness and inside colorization solves."""
    calls = _count_calls(monkeypatch, evaluate, "build_affinity")
    monkeypatch.setattr(reconstruct, "build_affinity", evaluate.build_affinity)
    return calls


def _count_sampling(monkeypatch, delay_s=0.0):
    """Rebind evaluate.sample to a wrapper that records each call's sampler."""
    calls = []
    original = evaluate.sample

    def counted(sampler, *args):
        calls.append(sampler)
        time.sleep(delay_s)
        return original(sampler, *args)

    monkeypatch.setattr(evaluate, "sample", counted)
    return calls


@pytest.mark.parametrize("sampler", ["grid", "sps"])
def test_unseeded_samplers_ignore_the_seed(sampler):
    # the mask key drops the seed for these samplers; this is the property it relies on
    rgb = gen_scene("textured", 16, 20, 0).rgb
    mask_a, locs_a, _ = evaluate.sample(sampler, rgb, 8, 0, 1.0, 10)
    mask_b, locs_b, _ = evaluate.sample(sampler, rgb, 8, 987654321, 1.0, 10)
    assert np.array_equal(mask_a.bits, mask_b.bits)
    assert np.array_equal(locs_a.locations, locs_b.locations)


@pytest.mark.parametrize("workers", [1, 2])
def test_matrix_samples_each_distinct_mask_once(monkeypatch, workers):
    scenes = [gen_scene("piecewise-constant", 16, 20, s) for s in (0, 1)]
    cfg = ExperimentConfig(samplers=("random", "grid", "poisson", "sps"),
                           reconstructors=("colorization", "nearest", "bilateral"),
                           rates=(0.05,), seeds=(0, 1), workers=workers)
    calls = _count_sampling(monkeypatch)
    solves = _count_calls(monkeypatch, evaluate, "colorization_reconstruct")
    builds = _count_builds(monkeypatch)
    rows = run_matrix(scenes, cfg).rows
    # random and poisson once per scene and seed, grid and sps once per scene
    assert collections.Counter(calls) == {"random": 4, "poisson": 4, "grid": 2, "sps": 2}
    # one solve per distinct mask of a scene, one graph per scene
    assert len(solves) == 12
    assert len({(id(args[0]), args[1].valid.tobytes()) for args, _ in solves}) == 12
    assert [id(args[0]) for args, _ in builds] == [id(args[0]) for args, _ in solves[::6]]
    assert len(rows) == 48
    for row in rows:  # a shared mask scores exactly as a mask drawn for the cell alone
        si = int(row.scene)
        mask = evaluate.sample(row.sampler, scenes[si].rgb, 16, evaluate._cell_seed(row.seed, si),
                               cfg.m, cfg.slic_iters).mask
        alone = evaluate._evaluate_mask(mask, scenes[si], rgb_to_lab(scenes[si].rgb),
                                        row.reconstructor, cfg)
        assert row.error == "" and row.samples == 16
        assert (row.mae_mm, row.rmse_mm, row.converged) == alone


def test_matrix_charges_sampling_time_to_the_first_cell_using_the_mask(monkeypatch):
    scenes = [gen_scene("piecewise-constant", 16, 20, s) for s in (0, 1)]
    cfg = ExperimentConfig(samplers=("grid",), reconstructors=("nearest", "bilateral"),
                           rates=(0.05,), seeds=(0, 1))
    _count_sampling(monkeypatch, delay_s=0.5)
    rows = run_matrix(scenes, cfg).rows
    # per scene: (nearest, 0) samples the mask; (nearest, 1), (bilateral, 0/1) reuse it
    charged = [r.time_ms >= 500.0 for r in rows]
    assert charged == [True, False, False, False] * 2


def test_failed_shared_mask_fails_every_cell_that_uses_it(monkeypatch):
    scenes = [gen_scene("piecewise-constant", 16, 20, s) for s in (0, 1)]
    cfg = ExperimentConfig(samplers=("grid", "poisson"),
                           reconstructors=("colorization", "nearest", "bilateral"),
                           rates=(0.05,), seeds=(0, 1))
    healthy = run_matrix(scenes, cfg).rows
    doomed = evaluate._cell_seed(1, 0)  # scene 0, seed 1
    original = evaluate.poisson_mask
    attempts = []

    def flaky(height, width, n, seed):
        if seed == doomed:
            attempts.append(seed)
            raise RuntimeError(f"poisson sampling saturated at 3 < {n} points")
        return original(height, width, n, seed)

    monkeypatch.setattr(evaluate, "poisson_mask", flaky)
    rows = run_matrix(scenes, cfg).rows
    assert attempts == [doomed]
    for row, ok in zip(rows, healthy):
        if (row.scene, row.sampler, row.seed) == ("000", "poisson", 1):
            assert row.error == "RuntimeError: poisson sampling saturated at 3 < 16 points"
            assert row.samples == 0 and np.isnan(row.mae_mm)
        else:
            assert dataclasses.replace(row, time_ms=0.0) == dataclasses.replace(ok, time_ms=0.0)
    assert sum(bool(r.error) for r in rows) == 3


def test_jitter_samples_sps_once_per_scene(monkeypatch):
    scenes = [gen_scene("piecewise-constant", 16, 20, s) for s in (0, 1)]
    cfg = ExperimentConfig(samplers=("sps",), reconstructors=("nearest", "bilateral"),
                           rates=(0.05,), seeds=(0, 1))
    calls = _count_sampling(monkeypatch)
    rows = jitter_experiment(scenes, (0.0, 2.0, 5.0), cfg)
    assert len(rows) == 3 * 2 * 2
    assert calls == ["sps", "sps"]


def test_temporal_samples_sps_once_per_frame_it_reads(monkeypatch):
    frames = gen_translating_sequence(16, 20, 6, shift_px=2, seed=1)
    delays = (0, 1, 3)
    cfg = ExperimentConfig(samplers=("sps",), reconstructors=("nearest", "bilateral"),
                           rates=(0.05,), seeds=(0, 1))
    calls = _count_sampling(monkeypatch)
    rows = temporal_experiment(frames, delays, cfg)
    assert len(rows) == 3 * 2 * 2
    read = {t - dt for dt in delays for t in range(max(delays), len(frames))}
    assert calls == ["sps"] * len(read)


def test_matrix_charges_an_evaluation_to_the_first_cell_sharing_it(monkeypatch):
    scenes = [gen_scene("piecewise-constant", 16, 20, s) for s in (0, 1)]
    cfg = ExperimentConfig(samplers=("grid",), reconstructors=("colorization", "nearest"),
                           rates=(0.05,), seeds=(0, 1))
    _count_calls(monkeypatch, evaluate, "colorization_reconstruct", delay_s=0.5)
    rows = run_matrix(scenes, cfg).rows
    # per scene: (colorization, 0) solves; (colorization, 1) shares the grid mask's solve
    charged = [r.time_ms >= 500.0 for r in rows]
    assert charged == [True, False, False, False] * 2


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_shared_evaluation_fails_every_cell_that_shares_it(monkeypatch, workers):
    scenes = [gen_scene("piecewise-constant", 16, 20, s) for s in (0, 1)]
    cfg = ExperimentConfig(samplers=("random", "grid"),
                           reconstructors=("colorization", "nearest"),
                           rates=(0.05,), seeds=(0, 1), workers=workers)
    healthy = run_matrix(scenes, cfg).rows
    doomed = evaluate.sample("grid", scenes[1].rgb, 16, 0, cfg.m, cfg.slic_iters).mask.bits
    attempts = []
    original = evaluate.colorization_reconstruct

    def flaky(lab, sparse, *args, **kwargs):
        if np.array_equal(lab.values, rgb_to_lab(scenes[1].rgb).values) \
                and np.array_equal(sparse.valid, doomed):
            attempts.append(1)
            raise RuntimeError("solver diverged")
        return original(lab, sparse, *args, **kwargs)

    monkeypatch.setattr(evaluate, "colorization_reconstruct", flaky)
    rows = run_matrix(scenes, cfg).rows
    assert attempts == [1]
    for row, ok in zip(rows, healthy):
        if (row.scene, row.sampler, row.reconstructor) == ("001", "grid", "colorization"):
            assert row.error == "RuntimeError: solver diverged"
            assert row.samples == 16 and np.isnan(row.mae_mm)
        else:
            assert dataclasses.replace(row, time_ms=0.0) == dataclasses.replace(ok, time_ms=0.0)
    assert sum(bool(r.error) for r in rows) == 2


def test_jitter_solves_each_distinct_mask_of_a_scene_once(monkeypatch):
    scenes = [gen_scene("piecewise-constant", 16, 20, s) for s in (0, 1)]
    cfg = ExperimentConfig(samplers=("sps",), reconstructors=("colorization",),
                           rates=(0.05,), seeds=(0, 1))
    rasterised = _count_calls(monkeypatch, evaluate, "locations_to_mask")
    solves = _count_calls(monkeypatch, evaluate, "colorization_reconstruct")
    builds = _count_builds(monkeypatch)
    rows = jitter_experiment(scenes, (0.0, 3.0), cfg)
    # one jittered mask per (cell, scene), none for sps's own locations
    assert len(rasterised) == 4 * 2
    # per scene: range 0 gives both seeds the sps mask, range 3 moves it per seed
    assert len(solves) == 3 * 2
    assert len(builds) == 2
    calm = [r for r in rows if r["jitter_px"] == 0.0]
    assert calm[0]["rmse_mm"] == calm[1]["rmse_mm"]


def test_temporal_solves_each_distinct_mask_of_a_frame_once(monkeypatch):
    frames = [gen_scene("piecewise-constant", 16, 20, 3)] * 4
    cfg = ExperimentConfig(samplers=("sps",), reconstructors=("colorization",),
                           rates=(0.05,), seeds=(0,))
    solves = _count_calls(monkeypatch, evaluate, "colorization_reconstruct")
    builds = _count_builds(monkeypatch)
    rows = temporal_experiment(frames, (0, 2), cfg)
    # frames 2 and 3 are scored; on a static sequence both delays give one mask
    assert len(solves) == 2 and len(builds) == 2
    assert rows[0]["rmse_mm"] == rows[1]["rmse_mm"]


# ------------------------------------------------------------ experiment engine


@pytest.mark.parametrize("experiment", ["jitter", "temporal"])
def test_experiments_honour_workers(monkeypatch, experiment):
    cfg = ExperimentConfig(samplers=("random", "sps"), reconstructors=("colorization",),
                           rates=(0.05,), seeds=(0, 1))
    if experiment == "jitter":
        run = functools.partial(jitter_experiment,
                                [gen_scene("piecewise-constant", 16, 20, s) for s in (0, 1)],
                                (0.0, 3.0))
    else:
        run = functools.partial(temporal_experiment,
                                gen_translating_sequence(16, 20, 4, shift_px=2, seed=1), (0, 1))
    serial = run(cfg)
    threads = set()
    original = evaluate.colorization_reconstruct

    def recorded(*args, **kwargs):
        threads.add(threading.get_ident())
        time.sleep(0.05)  # keep one solve running while the pool hands out the next
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluate, "colorization_reconstruct", recorded)
    assert run(dataclasses.replace(cfg, workers=2)) == serial
    assert len(threads) > 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("experiment", ["jitter", "temporal"])
def test_a_failure_inside_an_experiment_propagates(monkeypatch, experiment, workers):
    cfg = ExperimentConfig(samplers=("grid", "sps"), reconstructors=("nearest",),
                           rates=(0.05,), seeds=(0,), workers=workers)
    if experiment == "jitter":
        scenes = [gen_scene("piecewise-constant", 16, 20, s) for s in (0, 1)]
        doomed = scenes[1].rgb
        run = functools.partial(jitter_experiment, scenes, (0.0, 2.0))
    else:
        frames = gen_translating_sequence(16, 20, 4, shift_px=2, seed=1)
        doomed = frames[2].rgb
        run = functools.partial(temporal_experiment, frames, (0, 1))
    original = evaluate.sample

    def flaky(sampler, rgb, *args):
        if rgb is doomed and sampler == "sps":
            raise RuntimeError("sensor offline")
        return original(sampler, rgb, *args)

    monkeypatch.setattr(evaluate, "sample", flaky)
    with pytest.raises(RuntimeError, match="^sensor offline$"):
        run(cfg)
