"""End-to-end coverage of the depthsample command line: exit codes, file
outputs, stdout contracts, config-file precedence."""
import csv
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import depthsample
from depthsample import evaluate
from depthsample.cli import cli
from depthsample.imagedata import (
    DepthMap,
    RgbImage,
    load_mask,
    load_pgm16,
    load_samples,
    nearest_pixel,
    save_pgm16,
    save_ppm,
)
from depthsample.samplers import target_count
from depthsample.scenes import gen_scene


@pytest.fixture
def scene_files(tmp_path):
    """One 16x20 scene written as 000_rgb.ppm / 000_depth.pgm."""
    scene = gen_scene("piecewise-constant", 16, 20, 0)
    rgb = tmp_path / "000_rgb.ppm"
    depth = tmp_path / "000_depth.pgm"
    save_ppm(scene.rgb, rgb)
    save_pgm16(scene.depth, depth)
    return scene, rgb, depth


def test_no_subcommand_is_a_usage_error(capsys):
    assert cli([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    assert cli(["sample", "--bogus", "1"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_option_is_a_usage_error(capsys):
    assert cli(["sample", "--method", "grid"]) == 1
    assert "missing required option" in capsys.readouterr().err


def test_missing_input_file_is_a_data_error(tmp_path, capsys):
    code = cli(["eval", "--est", str(tmp_path / "a.pgm"), "--gt", str(tmp_path / "b.pgm")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_depth_file_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n3 3\n255\n" + b"\x00" * 9)  # 8-bit, not the 16-bit format
    assert cli(["eval", "--est", str(bad), "--gt", str(bad)]) == 2


def test_unfillable_poisson_budget_is_a_data_error(tmp_path, capsys):
    rgb, out = tmp_path / "strip.ppm", tmp_path / "mask.pgm"
    save_ppm(RgbImage(np.full((1, 7, 3), 128, dtype=np.uint8)), rgb)
    code = cli(["sample", "--method", "poisson", "--rate", "1.0", "--seed", "2",
                "--in", str(rgb), "--out", str(out)])
    assert code == 2
    assert "error: poisson sampling saturated at 6 < 7 points" in capsys.readouterr().err
    assert not out.exists()


def test_sample_grid_writes_mask_with_exact_budget(scene_files, tmp_path, capsys):
    _, rgb, _ = scene_files
    out = tmp_path / "mask.pgm"
    code = cli(["sample", "--method", "grid", "--rate", "0.05",
                "--in", str(rgb), "--out", str(out)])
    assert code == 0
    mask = load_mask(out)
    assert mask.count == target_count(0.05, 16, 20)
    assert f"wrote {mask.count} samples" in capsys.readouterr().out


def test_sample_sps_emits_locations_and_segmentation(scene_files, tmp_path):
    _, rgb, _ = scene_files
    out = tmp_path / "mask.pgm"
    samples_out = tmp_path / "locs.csv"
    seg_out = tmp_path / "seg.pgm"
    code = cli(["sample", "--method", "sps", "--rate", "0.05", "--iters", "4",
                "--in", str(rgb), "--out", str(out),
                "--samples-out", str(samples_out), "--seg-out", str(seg_out)])
    assert code == 0
    n = target_count(0.05, 16, 20)
    assert load_mask(out).count == n
    locs = load_samples(samples_out)
    assert len(locs) == n
    labels = load_pgm16(seg_out)
    assert labels.depth.shape == (16, 20)
    assert len(np.unique(labels.depth)) == n


def test_seg_out_rejected_for_non_superpixel_methods(scene_files, tmp_path, capsys):
    _, rgb, _ = scene_files
    code = cli(["sample", "--method", "grid", "--rate", "0.05", "--in", str(rgb),
                "--out", str(tmp_path / "m.pgm"), "--seg-out", str(tmp_path / "s.pgm")])
    assert code == 1


def test_ssa_refined_requires_ground_truth(scene_files, tmp_path, capsys):
    _, rgb, _ = scene_files
    code = cli(["sample", "--method", "ssa-refined", "--rate", "0.05",
                "--in", str(rgb), "--out", str(tmp_path / "m.pgm")])
    assert code == 1
    assert "--gt" in capsys.readouterr().err


def test_ssa_refined_samples_with_depth_feedback(scene_files, tmp_path):
    _, rgb, depth = scene_files
    out = tmp_path / "mask.pgm"
    code = cli(["sample", "--method", "ssa-refined", "--rate", "0.05",
                "--iters", "4", "--refine-steps", "5",
                "--in", str(rgb), "--gt", str(depth), "--out", str(out)])
    assert code == 0
    assert load_mask(out).count == target_count(0.05, 16, 20)


def test_ssa_refined_rasterises_only_the_refined_locations(scene_files, tmp_path, monkeypatch):
    _, rgb, depth = scene_files
    calls = []
    original = evaluate.locations_to_mask

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (evaluate, importlib.import_module("depthsample.cli")):
        monkeypatch.setattr(module, "locations_to_mask", counted)
    code = cli(["sample", "--method", "ssa-refined", "--rate", "0.05", "--refine-steps", "3",
                "--in", str(rgb), "--gt", str(depth), "--out", str(tmp_path / "mask.pgm")])
    assert code == 0
    assert len(calls) == 1



@pytest.mark.parametrize("kind, seed, rate, sample, window", [
    # the sample would be pulled to (0, 0)
    pytest.param("piecewise-constant", 0, "0.01", 29, None, id="piecewise-constant-0-0.01-29"),
    # the window holds no valid depth either
    pytest.param("planar-ramp", 3, "0.0025", 5, None, id="planar-ramp-3-0.0025-5"),
    # only a 5x5 hole around the sample: its superpixel keeps 367 valid pixels
    pytest.param("planar-ramp", 3, "0.0025", 0, 5, id="planar-ramp-3-0.0025-0-window5"),
])
def test_ssa_refined_leaves_a_sample_without_valid_depth_where_sps_put_it(kind, seed, rate, sample,
                                                                          window, tmp_path):
    """A sample whose superpixel, or whose starting soft window, holds no
    valid depth in the ground truth has no target, so refinement leaves it
    at its sps location.  ``window`` None empties the sample's superpixel;
    a size empties that window around the sample's nearest pixel."""
    scene = gen_scene(kind, 60, 80, seed)
    rgb, gt = tmp_path / "rgb.ppm", tmp_path / "gt.pgm"
    save_ppm(scene.rgb, rgb)
    sps_locs, seg = tmp_path / "sps.csv", tmp_path / "seg.pgm"
    assert cli(["sample", "--method", "sps", "--rate", rate, "--in", str(rgb),
                "--out", str(tmp_path / "sps.pgm"), "--samples-out", str(sps_locs),
                "--seg-out", str(seg)]) == 0
    before = load_samples(sps_locs).locations
    if window is None:
        hole = load_pgm16(seg).depth == sample
    else:
        hole = np.zeros((60, 80), dtype=bool)
        (x, y), half = nearest_pixel(before[sample]), window // 2
        hole[y - half:y + half + 1, x - half:x + half + 1] = True
    save_pgm16(DepthMap.from_depth(np.where(hole, 0.0, scene.depth.depth)), gt)
    refined_locs = tmp_path / "refined.csv"
    assert cli(["sample", "--method", "ssa-refined", "--rate", rate, "--in", str(rgb),
                "--gt", str(gt), "--out", str(tmp_path / "refined.pgm"),
                "--samples-out", str(refined_locs)]) == 0
    assert np.array_equal(load_samples(refined_locs).locations[sample], before[sample])


def test_reconstruct_nearest_round_trip(scene_files, tmp_path):
    scene, rgb, depth = scene_files
    sparse_path = tmp_path / "sparse.pgm"
    cli(["sample", "--method", "grid", "--rate", "0.1",
         "--in", str(rgb), "--out", str(tmp_path / "m.pgm")])
    sparse = np.where(load_mask(tmp_path / "m.pgm").bits, scene.depth.depth, 0.0)
    save_pgm16(DepthMap.from_depth(sparse), sparse_path)
    out = tmp_path / "dense.pgm"
    assert cli(["reconstruct", "--method", "nearest",
                "--in", str(sparse_path), "--out", str(out)]) == 0
    dense = load_pgm16(out)
    assert dense.valid.all()


def test_reconstruct_colorization_requires_rgb(scene_files, tmp_path, capsys):
    _, _, depth = scene_files
    code = cli(["reconstruct", "--method", "colorization",
                "--in", str(depth), "--out", str(tmp_path / "d.pgm")])
    assert code == 1
    assert "--rgb" in capsys.readouterr().err


def test_reconstruct_colorization_with_narrow_bandwidth_on_random_colors(tmp_path):
    rng = np.random.default_rng(3)
    rgb = tmp_path / "noise.ppm"
    save_ppm(RgbImage(rng.integers(0, 256, size=(12, 16, 3), dtype=np.uint8)), rgb)
    depth = np.where(rng.random((12, 16)) < 0.2, rng.uniform(500, 20000, size=(12, 16)), 0.0)
    sparse_path = tmp_path / "sparse.pgm"
    save_pgm16(DepthMap.from_depth(depth), sparse_path)
    out = tmp_path / "dense.pgm"
    assert cli(["reconstruct", "--method", "colorization", "--sigma-c", "1",
                "--rgb", str(rgb), "--in", str(sparse_path), "--out", str(out)]) == 0
    assert load_pgm16(out).valid.all()


def test_reconstruct_colorization_prints_its_error_bound(scene_files, tmp_path, capsys):
    scene, rgb, _ = scene_files
    sparse_path, out = tmp_path / "sparse.pgm", tmp_path / "dense.pgm"
    save_pgm16(DepthMap.from_depth(np.where(np.eye(16, 20, dtype=bool), scene.depth.depth, 0.0)),
               sparse_path)
    assert cli(["reconstruct", "--method", "colorization", "--rgb", str(rgb),
                "--in", str(sparse_path), "--out", str(out)]) == 0
    report = capsys.readouterr().out.splitlines()[0]
    fields = dict(field.split("=") for field in report.split())
    assert list(fields) == ["converged", "iterations", "residual", "error_bound_mm"]
    assert 0.0 <= float(fields["error_bound_mm"]) < 1000.0


@pytest.fixture
def flat_wall(tmp_path):
    """A uniform grey 60x80 image of a wall at a constant 2,500 mm."""
    scene_dir = tmp_path / "flat"
    scene_dir.mkdir()
    save_ppm(RgbImage(np.full((60, 80, 3), 128, dtype=np.uint8)), scene_dir / "000_rgb.ppm")
    save_pgm16(DepthMap.from_depth(np.full((60, 80), 2500.0)), scene_dir / "000_depth.pgm")
    return scene_dir


def test_reconstruct_colorization_on_a_flat_wall(flat_wall, tmp_path, capsys):
    """The nearest-sample start already solves a flat wall, so CG stops
    before its first iteration rather than dividing by zero."""
    rgb, mask = flat_wall / "000_rgb.ppm", tmp_path / "m.pgm"
    assert cli(["sample", "--method", "grid", "--rate", "0.0025",
                "--in", str(rgb), "--out", str(mask)]) == 0
    sparse_path, out = tmp_path / "sparse.pgm", tmp_path / "dense.pgm"
    save_pgm16(DepthMap.from_depth(np.where(load_mask(mask).bits, 2500.0, 0.0)), sparse_path)
    capsys.readouterr()
    assert cli(["reconstruct", "--method", "colorization", "--rgb", str(rgb),
                "--in", str(sparse_path), "--out", str(out)]) == 0
    assert "converged=true iterations=0 " in capsys.readouterr().out
    assert np.array_equal(load_pgm16(out).depth, np.full((60, 80), 2500.0))


def test_pipeline_colorizes_a_flat_wall_with_every_sampler(flat_wall, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert cli(["pipeline", "--in", str(flat_wall), "--out", str(out),
                "--method", "random,grid,poisson,sps", "--recon", "colorization",
                "--rate", "0.0025"]) == 0
    assert "evaluated 4 cells over 1 scenes (0 failed)" in capsys.readouterr().out
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(",0.000000,0.000000,12," in row for row in rows)


def test_reconstruct_rejects_mismatched_dimensions(scene_files, tmp_path, capsys):
    """Both reconstructors that read an image reject one of another size."""
    _, rgb, _ = scene_files
    depth_path = tmp_path / "odd.pgm"
    save_pgm16(gen_scene("planar-ramp", 8, 8, 1).depth, depth_path)
    for method in ("colorization", "bilateral"):
        out = tmp_path / f"{method}.pgm"
        assert cli(["reconstruct", "--method", method, "--rgb", str(rgb),
                    "--in", str(depth_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: image and depth dimensions differ\n"
        assert not out.exists()


def test_eval_identical_files_prints_zero(scene_files, tmp_path, capsys):
    _, _, depth = scene_files
    assert cli(["eval", "--est", str(depth), "--gt", str(depth)]) == 0
    assert capsys.readouterr().out == "mae_mm=0.000000 rmse_mm=0.000000\n"


def test_eval_reports_known_offset(tmp_path, capsys):
    gt = tmp_path / "gt.pgm"
    est = tmp_path / "est.pgm"
    save_pgm16(DepthMap.from_depth(np.full((4, 4), 1000.0)), gt)
    save_pgm16(DepthMap.from_depth(np.full((4, 4), 1010.0)), est)
    assert cli(["eval", "--est", str(est), "--gt", str(gt)]) == 0
    assert capsys.readouterr().out == "mae_mm=10.000000 rmse_mm=10.000000\n"


def test_gen_scenes_writes_pairs_and_validates_kinds(tmp_path, capsys):
    out = tmp_path / "scenes"
    code = cli(["gen-scenes", "--out", str(out), "--count", "3",
                "--height", "12", "--width", "14"])
    assert code == 0
    assert sorted(p.name for p in out.glob("*_rgb.ppm")) == [
        "000_rgb.ppm", "001_rgb.ppm", "002_rgb.ppm"]
    assert len(list(out.glob("*_depth.pgm"))) == 3
    rgb = load_pgm16(out / "000_depth.pgm")
    assert rgb.depth.shape == (12, 14)
    never = tmp_path / "never"
    assert cli(["gen-scenes", "--out", str(never), "--kinds", "planar-ramp,fractal"]) == 1
    assert "unknown name 'fractal'" in capsys.readouterr().err
    assert not never.exists()  # rejected before the output directory is made
    # a repeated kind is allowed: the list sets the order in which kinds cycle
    assert cli(["gen-scenes", "--out", str(tmp_path / "cycled"), "--count", "3",
                "--kinds", "textured,textured,step-edge", "--height", "8", "--width", "8"]) == 0


def test_pipeline_csv_header_and_reproducibility(tmp_path, capsys):
    scene_dir = tmp_path / "scenes"
    cli(["gen-scenes", "--out", str(scene_dir), "--count", "2",
         "--height", "16", "--width", "20"])
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cells = tmp_path / f"cells_{name}"
        jout = tmp_path / f"{name}.json"
        code = cli(["pipeline", "--in", str(scene_dir), "--out", str(out),
                    "--method", "random,grid", "--recon", "nearest",
                    "--rate", "0.05", "--seeds", "0,1",
                    "--cells-out", str(cells), "--json-out", str(jout)])
        assert code == 0
        outs.append((out.read_bytes(), cells.read_bytes(), jout.read_bytes()))
    header = outs[0][0].decode().splitlines()[0]
    assert header == "sampler,reconstructor,rate,seed,mae_mm,rmse_mm,samples,time_ms"
    assert outs[0] == outs[1]
    # 2 scenes x 2 samplers x 1 reconstructor x 1 rate x 2 seeds
    assert len(outs[0][1].decode().splitlines()) == 1 + 8
    assert "evaluated 8 cells over 2 scenes" in capsys.readouterr().out


def test_pipeline_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The solver's reductions are summed in a fixed order, not by BLAS,
    whose order changes with its thread count on vectors this long."""
    scene_dir = tmp_path / "scenes"
    assert cli(["gen-scenes", "--out", str(scene_dir), "--count", "1", "--kinds", "textured",
                "--height", "120", "--width", "160", "--seed", "1"]) == 0
    package_root = str(Path(depthsample.__file__).resolve().parents[1])
    pythonpath = [package_root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "depthsample", "pipeline", "--in", str(scene_dir),
             "--out", f"{out}.csv", "--cells-out", f"{out}-cells.csv", "--json-out", f"{out}.json",
             "--method", "random,grid", "--recon", "colorization", "--seeds", "0"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append([Path(f"{out}{suffix}").read_bytes() for suffix in (".csv", "-cells.csv", ".json")])
    assert outs[0] == outs[1]


def test_pipeline_exits_2_when_a_cell_fails(tmp_path, capsys):
    scene_dir = tmp_path / "scenes"
    scene_dir.mkdir()
    save_ppm(gen_scene("step-edge", 16, 20, 0).rgb, scene_dir / "000_rgb.ppm")
    save_pgm16(DepthMap.from_depth(np.zeros((16, 20))), scene_dir / "000_depth.pgm")
    out, cells = tmp_path / "report.csv", tmp_path / "cells.csv"
    code = cli(["pipeline", "--in", str(scene_dir), "--out", str(out), "--cells-out", str(cells),
                "--method", "grid", "--recon", "nearest", "--rate", "0.05"])
    assert code == 2
    captured = capsys.readouterr()
    assert "evaluated 1 cells over 1 scenes (1 failed)" in captured.out
    assert "failed 000/grid/nearest" in captured.err
    assert out.read_text().startswith("sampler,reconstructor,")
    assert len(cells.read_text().splitlines()) == 1 + 1


def test_pipeline_reports_a_failed_cell_as_unconverged_and_null_in_json(tmp_path, capsys):
    scene_dir = tmp_path / "scenes"
    scene_dir.mkdir()
    save_ppm(gen_scene("step-edge", 16, 20, 0).rgb, scene_dir / "000_rgb.ppm")
    save_pgm16(DepthMap.from_depth(np.zeros((16, 20))), scene_dir / "000_depth.pgm")
    cells, jout = tmp_path / "cells.csv", tmp_path / "report.json"
    code = cli(["pipeline", "--in", str(scene_dir), "--out", str(tmp_path / "report.csv"),
                "--cells-out", str(cells), "--json-out", str(jout),
                "--method", "grid", "--recon", "nearest", "--rate", "0.05"])
    assert code == 2
    capsys.readouterr()
    row, = csv.DictReader(cells.open(newline=""))
    assert row["converged"] == "false" and row["mae_mm"] == "nan"

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    cell, = json.loads(jout.read_text(), parse_constant=reject)["cells"]
    assert cell["mae_mm"] is None and cell["rmse_mm"] is None
    assert cell["converged"] is False
    assert cell["error"].startswith("ValueError: ")


def test_pipeline_cells_csv_quotes_a_scene_name_with_a_comma(tmp_path, capsys):
    scene_dir = tmp_path / "scenes"
    scene_dir.mkdir()
    scene = gen_scene("step-edge", 16, 20, 0)
    save_ppm(scene.rgb, scene_dir / "a,b_rgb.ppm")
    save_pgm16(scene.depth, scene_dir / "a,b_depth.pgm")
    cells = tmp_path / "cells.csv"
    assert cli(["pipeline", "--in", str(scene_dir), "--out", str(tmp_path / "report.csv"),
                "--cells-out", str(cells), "--method", "grid", "--recon", "nearest",
                "--rate", "0.05"]) == 0
    rows = list(csv.DictReader(cells.open(newline="")))
    assert [(r["scene"], r["sampler"], r["reconstructor"], None in r) for r in rows] == [
        ("a,b", "grid", "nearest", False)]
    assert cells.read_text().splitlines()[1].startswith('"a,b",grid,nearest,0.050000,0,')


def test_pipeline_rejects_a_scene_whose_rgb_and_depth_sizes_differ(tmp_path, capsys):
    scene_dir = tmp_path / "scenes"
    scene_dir.mkdir()
    save_ppm(gen_scene("step-edge", 16, 20, 0).rgb, scene_dir / "000_rgb.ppm")
    save_pgm16(gen_scene("step-edge", 18, 20, 0).depth, scene_dir / "000_depth.pgm")
    out = tmp_path / "report.csv"
    code = cli(["pipeline", "--in", str(scene_dir), "--out", str(out),
                "--method", "grid", "--recon", "nearest", "--rate", "0.05"])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: scene 000: RGB is 16x20 but depth is 18x20" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_pipeline_exits_2_when_a_shared_mask_fails(tmp_path, capsys, monkeypatch):
    scene_dir = tmp_path / "scenes"
    assert cli(["gen-scenes", "--out", str(scene_dir), "--count", "2",
                "--height", "16", "--width", "20"]) == 0
    doomed = evaluate._cell_seed(0, 1)  # scene 001, seed 0
    original = evaluate.poisson_mask

    def flaky(height, width, n, seed):
        if seed == doomed:
            raise RuntimeError("poisson sampling saturated")
        return original(height, width, n, seed)

    monkeypatch.setattr(evaluate, "poisson_mask", flaky)
    cells = tmp_path / "cells.csv"
    code = cli(["pipeline", "--in", str(scene_dir), "--out", str(tmp_path / "report.csv"),
                "--cells-out", str(cells), "--method", "poisson",
                "--recon", "colorization,nearest,bilateral", "--rate", "0.05", "--seeds", "0,1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "evaluated 12 cells over 2 scenes (3 failed)" in captured.out
    for recon in ("colorization", "nearest", "bilateral"):
        assert f"failed 001/poisson/{recon}: RuntimeError: poisson sampling saturated" \
            in captured.err
    failed = [line for line in cells.read_text().splitlines() if line.endswith("saturated")]
    assert len(failed) == 3 and all(line.startswith("001,poisson,") for line in failed)


@pytest.mark.parametrize("argv, reason", [
    (["sample", "--method", "grid", "--rate", "2"], "sampling rate must be in (0, 1], got 2"),
    (["sample", "--method", "grid", "--rate", "0"], "sampling rate must be in (0, 1], got 0"),
    (["sample", "--method", "bogus", "--rate", "0.05"],
     "'bogus'; choose from random, grid, poisson, sps, ssa-refined"),
    (["reconstruct", "--method", "bogus"], "'bogus'; choose from colorization, nearest, bilateral"),
    (["pipeline", "--rate", "0"], "sampling rate must be in (0, 1], got 0"),
    (["pipeline", "--rate", "0.01,1.5"], "sampling rate must be in (0, 1], got 1.5"),
    (["pipeline", "--workers", "0"], "need at least one worker, got 0"),
    (["pipeline", "--method", "sps,bogus"], "'bogus'; choose from random, grid, poisson, sps"),
    (["pipeline", "--recon", "bogus"], "'bogus'; choose from colorization, nearest, bilateral"),
    (["sample", "--method", "ssa-refined", "--rate", "0.05", "--gt", "missing.pgm",
      "--window", "4"], "window must be an odd size of at least 3, got 4"),
    (["sample", "--method", "ssa-refined", "--rate", "0.05", "--gt", "missing.pgm",
      "--t-start", "0.1", "--t-end", "1.0"],
     "schedule must anneal downward through positive temperatures, got t_start=0.1, t_end=1.0"),
    (["sample", "--method", "ssa-refined", "--rate", "0.05", "--gt", "missing.pgm",
      "--t-end", "0"], "schedule must anneal downward through positive temperatures"),
    (["sample", "--method", "ssa-refined", "--rate", "0.05", "--gt", "missing.pgm",
      "--refine-steps", "-3"], "refinement steps must be at least 0, got -3"),
    (["sample", "--method", "ssa-refined", "--rate", "0.05", "--gt", "missing.pgm",
      "--lr", "nan"], "learning rate must be finite and positive, got nan"),
    (["sample", "--method", "ssa-refined", "--rate", "0.05", "--gt", "missing.pgm",
      "--lr", "0"], "learning rate must be finite and positive, got 0"),
    (["sample", "--method", "sps", "--rate", "0.05", "--m", "nan"],
     "compactness m must be finite and at least 0, got nan"),
    (["sample", "--method", "sps", "--rate", "0.05", "--m", "-1"],
     "compactness m must be finite and at least 0, got -1"),
    (["sample", "--method", "sps", "--rate", "0.05", "--iters", "-1"],
     "superpixel sweeps must be at least 0, got -1"),
    (["pipeline", "--m", "inf"], "compactness m must be finite and at least 0, got inf"),
    (["pipeline", "--iters", "-1"], "superpixel sweeps must be at least 0, got -1"),
    (["pipeline", "--method", ","], "need at least one name; choose from random, grid, poisson, sps"),
    (["pipeline", "--recon", ","],
     "need at least one name; choose from colorization, nearest, bilateral"),
    (["gen-scenes", "--kinds", ","],
     "need at least one name; choose from piecewise-constant, planar-ramp, step-edge, textured"),
    (["reconstruct", "--method", "colorization", "--sigma-c", "nan"],
     "color bandwidth sigma_c must be finite and positive, got nan"),
    (["reconstruct", "--method", "bilateral", "--sigma-c", "0"],
     "color bandwidth sigma_c must be finite and positive, got 0"),
    (["reconstruct", "--method", "bilateral", "--sigma-s", "nan"],
     "spatial sigma sigma_s must be finite and positive, got nan"),
    (["reconstruct", "--method", "bilateral", "--radius", "-1"],
     "bilateral radius must be finite and positive, got -1"),
    (["reconstruct", "--method", "colorization", "--tol", "nan"],
     "solver tolerance must be finite and positive, got nan"),
    (["reconstruct", "--method", "colorization", "--tol", "-1"],
     "solver tolerance must be finite and positive, got -1"),
    (["reconstruct", "--method", "colorization", "--max-iters", "-5"],
     "solver iteration cap must be at least 0, got -5"),
    (["pipeline", "--sigma-c", "inf"], "color bandwidth sigma_c must be finite and positive, got inf"),
    (["pipeline", "--tol", "0"], "solver tolerance must be finite and positive, got 0"),
    (["pipeline", "--max-iters", "-1"], "solver iteration cap must be at least 0, got -1"),
    (["pipeline", "--seeds", "0,-1"], "seed must be at least 0, got -1"),
    (["sample", "--method", "random", "--rate", "0.05", "--seed", "-1"],
     "seed must be at least 0, got -1"),
    (["grad-check", "--tolerance", "nan"],
     "gradient error tolerance must be finite and positive, got nan"),
    (["grad-check", "--tolerance", "-1"],
     "gradient error tolerance must be finite and positive, got -1"),
    (["grad-check", "--seed", "-2"], "seed must be at least 0, got -2"),
    (["gen-scenes", "--seed", "-3"], "seed must be at least 0, got -3"),
    (["gen-scenes", "--count", "-1"], "need at least one scene, got -1"),
    (["gen-scenes", "--count", "0"], "need at least one scene, got 0"),
    (["gen-scenes", "--height", "0"], "scene sides must be at least 4 pixels, got 0"),
    (["gen-scenes", "--width", "3"], "scene sides must be at least 4 pixels, got 3"),
    (["pipeline", "--method", "sps,sps", "--seeds", "0,0"], "sps is listed twice in sps,sps"),
    (["pipeline", "--recon", "nearest,colorization,nearest"],
     "nearest is listed twice in nearest,colorization,nearest"),
    (["pipeline", "--rate", "0.01,0.010"], "0.01 is listed twice in 0.01,0.010"),
    (["pipeline", "--seeds", "0,0"], "0 is listed twice in 0,0"),
    (["reconstruct", "--method", "colorization"], "--rgb is required for --method colorization"),
    (["reconstruct", "--method", "bilateral"], "--rgb is required for --method bilateral"),
])
def test_bad_configuration_is_a_usage_error_before_any_file_is_read(argv, reason, tmp_path,
                                                                     capsys):
    out = tmp_path / "out"
    assert cli(argv + ["--in", str(tmp_path / "missing"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and reason in err
    assert not out.exists()


@pytest.mark.parametrize("option, value", [
    ("--t-start", "nan"), ("--t-start", "inf"), ("--t-end", "nan"), ("--t-end", "-inf"),
])
def test_non_finite_annealing_temperature_is_a_usage_error_before_any_file_is_read(
        option, value, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli(["sample", "--method", "ssa-refined", "--rate", "0.05",
                "--gt", str(tmp_path / "missing.pgm"), "--in", str(tmp_path / "missing.ppm"),
                "--out", str(out), f"{option}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"temperature must be finite, got {value}" in err
    assert not out.exists()


def test_non_finite_temperature_in_a_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "sample.cfg"
    cfg.write_text(f"method = ssa-refined\nrate = 0.05\ngt = {tmp_path / 'missing.pgm'}\n"
                   f"in = {tmp_path / 'missing.ppm'}\nout = {tmp_path / 'out'}\nt_start = nan\n")
    assert cli(["sample", "--config", str(cfg)]) == 1
    assert "config key t_start: temperature must be finite, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("line, reason", [
    ("rate = 2", "config key rate: sampling rate must be in (0, 1], got 2"),
    ("workers = 0", "config key workers: need at least one worker, got 0"),
    ("method = bogus", "config key method: unknown name 'bogus'"),
    ("sigma_c = nan", "config key sigma_c: color bandwidth sigma_c must be finite and positive"),
    ("tol = -1", "config key tol: solver tolerance must be finite and positive, got -1"),
    ("max_iters = -5", "config key max_iters: solver iteration cap must be at least 0, got -5"),
    ("seeds = 0,-1", "config key seeds: seed must be at least 0, got -1"),
    ("seeds = 1,2,1", "config key seeds: 1 is listed twice in 1,2,1"),
])
def test_bad_configuration_from_a_config_file_is_a_usage_error(line, reason, tmp_path, capsys):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(f"in = {tmp_path / 'missing'}\nout = {tmp_path / 'r.csv'}\n{line}\n")
    assert cli(["pipeline", "--config", str(cfg)]) == 1
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("command, lines", [
    ("sample", "method = ssa-refined\nrate = 0.05\ngt = missing.pgm\nin = missing.ppm\n"
               "out = {out}\n"),
    ("grad-check", ""),
])
def test_bad_window_from_a_config_file_is_a_usage_error(command, lines, tmp_path, capsys):
    out = tmp_path / "mask.pgm"
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(lines.format(out=out) + "window = 4\n")
    assert cli([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "usage error: window must be an odd size of at least 3, got 4\n"
    assert captured.out == "" and not out.exists()



@pytest.mark.parametrize("value, timed", [("true", True), ("no", False)])
def test_pipeline_timing_from_a_config_file(value, timed, scene_files, tmp_path):
    cells = tmp_path / "cells.csv"
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(f"in = {tmp_path}\nout = {tmp_path / 'r.csv'}\ncells_out = {cells}\n"
                   f"method = grid\nrate = 0.05\ntiming = {value}\n")
    assert cli(["pipeline", "--config", str(cfg)]) == 0
    times = [row.split(",")[8] for row in cells.read_text().splitlines()[1:]]
    assert (times != ["0.000"]) == timed


def test_pipeline_rejects_a_timing_value_that_is_not_a_boolean(tmp_path, capsys):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(f"in = {tmp_path}\nout = {tmp_path / 'r.csv'}\ntiming = maybe\n")
    assert cli(["pipeline", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "usage error: config key timing: expected a boolean, got 'maybe'\n")
    assert not (tmp_path / "r.csv").exists()


def test_pipeline_rejects_a_scene_path_that_is_not_a_directory(scene_files, tmp_path, capsys):
    _, rgb, _ = scene_files
    assert cli(["pipeline", "--in", str(rgb), "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == f"error: {rgb} is not a directory\n"


def test_pipeline_rejects_a_scene_without_its_depth_file(scene_files, tmp_path, capsys):
    _, _, depth = scene_files
    depth.unlink()
    assert cli(["pipeline", "--in", str(tmp_path), "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == f"error: missing depth file for scene 000: {depth}\n"

def test_pipeline_rejects_empty_scene_dir(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert cli(["pipeline", "--in", str(empty), "--out", str(tmp_path / "r.csv")]) == 2


def test_grad_check_exit_codes(capsys):
    assert cli(["grad-check", "--cases", "100"]) == 0
    out = capsys.readouterr().out
    assert "max relative gradient error" in out
    assert cli(["grad-check", "--cases", "20", "--tolerance", "1e-12"]) == 2


@pytest.mark.parametrize("argv, reason", [
    (["--window", "4"], "window must be an odd size of at least 3, got 4"),
    (["--t-min", "-1"], "need 0 < --t-min <= --t-max, got -1.0 and 2.0"),
    (["--t-min", "0"], "need 0 < --t-min <= --t-max, got 0.0 and 2.0"),
    (["--t-min", "3", "--t-max", "1"], "need 0 < --t-min <= --t-max, got 3.0 and 1.0"),
    (["--cases", "-5"], "need at least one case, got -5"),
    (["--cases", "0"], "need at least one case, got 0"),
    (["--step", "0"], "finite-difference step must be positive, got 0"),
    (["--step", "inf"], "finite-difference step must be positive, got inf"),
])
def test_grad_check_bad_options_are_usage_errors(argv, reason, capsys):
    assert cli(["grad-check", "--cases", "5"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and reason in captured.err
    assert captured.out == ""  # no case was run


@pytest.mark.parametrize("option, value", [
    ("--t-max", "inf"), ("--t-max", "nan"), ("--t-min", "nan"), ("--t-min", "-inf"),
])
def test_grad_check_non_finite_temperature_is_a_usage_error(option, value, capsys):
    assert cli(["grad-check", "--cases", "5", f"{option}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:")
    assert f"temperature must be finite, got {value}" in captured.err
    assert captured.out == ""  # no case was run


def test_config_file_supplies_defaults_and_flags_override(scene_files, tmp_path):
    _, rgb, _ = scene_files
    out = tmp_path / "mask.pgm"
    cfg = tmp_path / "sample.cfg"
    cfg.write_text(
        "# sampling defaults\n"
        "method = grid\n"
        "rate = 0.05\n"
        f"in = {rgb}\n"
        f"out = {out}\n"
    )
    assert cli(["sample", "--config", str(cfg)]) == 0
    assert load_mask(out).count == target_count(0.05, 16, 20)
    assert cli(["sample", "--config", str(cfg), "--rate", "0.1"]) == 0
    assert load_mask(out).count == target_count(0.1, 16, 20)


def test_config_file_errors(scene_files, tmp_path, capsys):
    _, rgb, _ = scene_files
    bad = tmp_path / "bad.cfg"
    bad.write_text("verbosity = high\n")
    assert cli(["sample", "--config", str(bad)]) == 1
    assert "unknown config key" in capsys.readouterr().err
    absent = tmp_path / "missing.cfg"
    assert cli(["sample", "--config", str(absent)]) == 1
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("just some words\n")
    assert cli(["sample", "--config", str(noeq)]) == 1


def _console_script_target():
    """The `depthsample` entry of [project.scripts] in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["depthsample"]


def test_console_script_is_wired(scene_files, tmp_path):
    _, _, depth = scene_files
    target = _console_script_target()
    assert target == "depthsample.cli:main"
    module_name, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module_name), attr))

    # Run the target in its own process the way pip's generated launcher
    # does, and as `python -m depthsample`, loading the same depthsample
    # package as this test; where a launcher is installed, run that too.
    launchers = [[sys.executable, "-c",
                  f"import sys; from {module_name} import {attr}; sys.exit({attr}())"],
                 [sys.executable, "-m", "depthsample"]]
    if installed := shutil.which("depthsample"):
        launchers.append([installed])
    package_root = str(Path(depthsample.__file__).resolve().parents[1])
    pythonpath = [package_root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    for launcher in launchers:
        proc = subprocess.run(launcher + ["eval", "--est", str(depth), "--gt", str(depth)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "mae_mm=0.000000 rmse_mm=0.000000\n"
        # exit status 2 (data error) must reach the shell, not just cli()'s return value
        proc = subprocess.run(launcher + ["eval", "--est", str(tmp_path / "absent.pgm"),
                                          "--gt", str(depth)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr
