"""Well-formed but degenerate inputs never crash: tiny and one-pixel-wide
images, one sample or every pixel sampled, flat colour and depth, and colour
edges whose affinities underflow, through the harness and the command line."""
import numpy as np
import pytest

from depthsample.cli import cli
from depthsample.evaluate import RECONSTRUCTORS, SAMPLERS, ExperimentConfig, run_matrix
from depthsample.imagedata import (DepthMap, RgbImage, apply_mask, load_mask, load_pgm16,
                                   save_pgm16, save_ppm)
from depthsample.scenes import SyntheticScene

SIZES = [(1, 1), (1, 7), (7, 1), (2, 2), (4, 5), (2, 9)]


def _scene(kind: str, h: int, w: int) -> SyntheticScene:
    """``flat``: uniform grey at a constant 2,500 mm.  ``ramp``: a colour ramp
    over a depth ramp.  ``halves``: magenta then green in scan order, each
    half at its own depth; the Lab distance between the two makes the
    cross-edge affinity subnormal at sigma_c 6.2 and exactly 0 at 6.0."""
    if kind == "flat":
        rgb = np.full((h, w, 3), 128, dtype=np.uint8)
        depth = np.full((h, w), 2500.0)
    elif kind == "ramp":
        t = (np.arange(h)[:, None] + np.arange(w)[None, :]) / max(h + w - 2, 1)
        rgb = np.stack([255 * t, 255 * (1 - t), np.full((h, w), 64.0)], axis=-1).astype(np.uint8)
        depth = 1000.0 + 4000.0 * t
    else:
        first = (np.arange(h * w) < h * w / 2).reshape(h, w)
        rgb = np.where(first[..., None], [255, 0, 255], [0, 255, 0]).astype(np.uint8)
        depth = np.where(first, 1500.0, 4000.0)
    return SyntheticScene(RgbImage(rgb), DepthMap.from_depth(depth), kind=kind, params={})


@pytest.mark.parametrize("kind, sigma_c", [
    ("flat", 10.0), ("ramp", 10.0), ("halves", 10.0), ("halves", 6.2), ("halves", 6.0),
])
@pytest.mark.parametrize("h, w", SIZES)
def test_degenerate_inputs_finish_with_finite_depth(h, w, kind, sigma_c, tmp_path, capsys):
    rates = sorted({1 / (h * w), 1.0} | ({10 / 18} if (h, w) == (2, 9) else set()))
    scene = _scene(kind, h, w)
    cfg = ExperimentConfig(samplers=SAMPLERS, reconstructors=RECONSTRUCTORS, rates=tuple(rates),
                           sigma_c=sigma_c)
    report = run_matrix([scene], cfg)
    assert len(report.rows) == len(SAMPLERS) * len(RECONSTRUCTORS) * len(rates)
    for row in report.rows:
        assert row.error == "" and np.isfinite([row.mae_mm, row.rmse_mm]).all(), row

    scene_dir = tmp_path / "scenes"
    scene_dir.mkdir()
    rgb, gt = scene_dir / "000_rgb.ppm", scene_dir / "000_depth.pgm"
    save_ppm(scene.rgb, rgb)
    save_pgm16(scene.depth, gt)
    sigma = ["--sigma-c", repr(sigma_c)]
    for rate in map(repr, rates):
        for method in (*SAMPLERS, "ssa-refined"):
            extra = ["--gt", str(gt), "--refine-steps", "20"] if method == "ssa-refined" else []
            mask = tmp_path / f"{method}.pgm"
            assert cli(["sample", "--method", method, "--rate", rate, "--in", str(rgb),
                        "--out", str(mask), *extra]) == 0, capsys.readouterr().err
        sparse = tmp_path / "sparse.pgm"
        save_pgm16(apply_mask(scene.depth, load_mask(tmp_path / "grid.pgm")), sparse)
        for method in RECONSTRUCTORS:
            dense = tmp_path / f"{method}-dense.pgm"
            assert cli(["reconstruct", "--method", method, "--in", str(sparse), "--rgb", str(rgb),
                        "--out", str(dense), *sigma]) == 0, capsys.readouterr().err
            assert load_pgm16(dense).valid.all()
            assert cli(["eval", "--est", str(dense), "--gt", str(gt)]) == 0
    assert cli(["pipeline", "--in", str(scene_dir), "--out", str(tmp_path / "report.csv"),
                "--method", ",".join(SAMPLERS), "--recon", ",".join(RECONSTRUCTORS),
                "--rate", ",".join(map(repr, rates)), *sigma]) == 0, capsys.readouterr().err
