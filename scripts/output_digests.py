"""Produce every report and file of the command line and the experiments for
a fixed set of small inputs, and print one SHA-256 line per output.

Run it on two checkouts and diff the listings to check that a refactor leaves
every output byte-identical:

    PYTHONPATH=src python scripts/output_digests.py OUTDIR > digests.txt

Covered: ``pipeline`` (aggregate, ``--cells-out``, ``--json-out``) over four
generated scenes with every sampler, reconstructor, two rates and two seeds,
once serial and once with ``--workers 2``; Poisson-disk masks and radii at
120x160 with 48 samples for seeds 0-9;
``sample`` masks, ``--samples-out`` and ``--seg-out`` for every method, with
``ssa-refined`` at 1, 20 and 200 refinement steps, ``sps`` also at
``--m 0`` and ``--m 10``, ``grid`` also at ``--rate 0.5`` on scene ``000``
and ``ssa-refined`` also at ``--window 3`` and ``--window 7`` on the
``textured`` scene ``003``;
the soft association (weights and seed ids) and ``slic_loss`` of the ``sps``
segmentation of each of those three scenes; ``sps`` and ``grid`` on a 6x90
strip with 3 samples, where the first SLIC sweep leaves pixels outside every
seed window; ``reconstruct`` outputs for every method; ``sps`` on one 240x320
``textured`` scene, the size and the budget (192 samples) of the benchmark's
frames, where connectivity enforcement merges the most orphans; the raw
float64 bytes of ``nn_reconstruct`` on three of those masks: ``grid`` at
``--rate 0.5`` on scene ``000`` (dense, with many ties), ``grid`` on the strip
and ``sps`` at 240x320; ``ssa-refined`` on one 120x160 ``step-edge`` scene
at the benchmark's refine budget (48 samples, 200 steps); a flat wall (a
uniform grey 60x80 image at a constant 2,500 mm, where the nearest-sample
start already solves colorization) through ``pipeline --recon colorization``
with every sampler and through ``reconstruct --method colorization`` on a
``grid`` mask; ``reconstruct --method colorization`` on a ``random`` mask of
one 120x160 ``textured`` scene, a solve long enough for OpenBLAS to thread
its vector operations, so that listings under ``OPENBLAS_NUM_THREADS=1``
and ``2`` must be identical; ``ssa-refined`` on two 60x80 scenes whose
ground truth has no valid depth in one superpixel (``piecewise-constant``
seed 0 at ``--rate 0.01`` without superpixel 29, and ``planar-ramp`` seed 3
at ``--rate 0.0025`` without superpixel 5, whose sample's 5x5 window holds
no valid depth either) and on that ``planar-ramp`` scene without only the
5x5 window around sample 0's nearest pixel, whose superpixel keeps valid
depth, with the scenes, the mask, ``--samples-out`` and the command log of
each; ``ssa-refined`` on a 30x60 map whose depth steps from 1000 to
4000 mm at x = 19 and whose columns 24-39 hold no valid depth, where one
sample's first step would land in that hole; ``sample --method poisson
--rate 1.0 --seed 2`` on a uniform grey 1x7 image, a budget that
Poisson-disk sampling cannot fill (exit 2), with the image and the command
log; ``grad-check`` over 200 cases; the jitter and
staleness experiment rows at full precision, with jitter also over seeds
0-2 (so that range 0 shares one mask among three cells) and staleness also
on a static four-frame sequence at delays 0 and 2 (so that every delay
shares one mask);
the jitter and staleness runs again with ``workers=2`` as ``jitter-w2.txt``
and ``temporal-w2.txt``, whose hashes must equal those of ``jitter.txt`` and
``temporal.txt``; the ``--help`` text of the parser and of each subcommand
at a fixed ``COLUMNS``; and ``sorted(depthsample.__all__)``.
The exit code, stdout and stderr of every command are outputs too, with
OUTDIR written as ``<out>`` so that listings from different directories
compare equal; a command that raises logs the exception in place of its
exit code.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import sys
from pathlib import Path

import numpy as np

import depthsample
from depthsample import cli, evaluate, imagedata, reconstruct, samplers, scenes, superpixel

HEIGHT, WIDTH = 36, 48
RATE = "0.03"


def run(out: Path, name: str, argv: list[str]) -> None:
    """Run one command line and keep its exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.cli(argv)
        except SystemExit as exc:  # argparse exits after printing --help
            code = exc.code
        except Exception as exc:  # a crash is an output too, so checkouts still compare
            code = f"raised {type(exc).__name__}: {exc}"
    log = f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}"
    (out / f"{name}.log").write_text(log.replace(str(out), "<out>"))


def write_nearest(out: Path, name: str, depth_path: Path) -> None:
    """Keep the raw float64 bytes of the nearest-sample fill of a saved mask."""
    mask = imagedata.load_mask(out / f"{name}-mask.pgm")
    sparse = imagedata.apply_mask(imagedata.load_pgm16(depth_path), mask)
    (out / f"{name}-nearest.bin").write_bytes(reconstruct.nn_reconstruct(sparse).depth.tobytes())


def colorize(out: Path, name: str, method: str, scene_dir: Path) -> None:
    """Sample scene 000 of a directory with ``method`` at rate 0.0025 and
    solve colorization on that mask through the command line."""
    rgb, mask = str(scene_dir / "000_rgb.ppm"), out / f"{name}-{method}-mask.pgm"
    run(out, f"sample-{name}-{method}", ["sample", "--method", method, "--rate", "0.0025",
                                         "--in", rgb, "--out", str(mask)])
    sparse = imagedata.apply_mask(imagedata.load_pgm16(scene_dir / "000_depth.pgm"),
                                  imagedata.load_mask(mask))
    imagedata.save_pgm16(sparse, out / f"{name}-sparse.pgm")
    run(out, f"reconstruct-{name}-colorization",
        ["reconstruct", "--method", "colorization", "--in", str(out / f"{name}-sparse.pgm"),
         "--rgb", rgb, "--out", str(out / f"{name}-colorization-dense.pgm")])


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    os.environ["COLUMNS"] = "100"  # argparse wraps --help to the terminal width
    for command in ("", "sample", "reconstruct", "eval", "pipeline", "grad-check", "gen-scenes"):
        run(out, f"help-{command or 'depthsample'}", [*command.split(), "--help"])
    (out / "package-all.txt").write_text("\n".join(sorted(depthsample.__all__)) + "\n")
    scene_dir = out / "scenes"
    run(out, "gen-scenes", ["gen-scenes", "--out", str(scene_dir), "--count", "4",
                            "--height", str(HEIGHT), "--width", str(WIDTH), "--seed", "7"])
    for suffix, workers in (("", "1"), ("-w2", "2")):
        run(out, f"pipeline{suffix}",
            ["pipeline", "--in", str(scene_dir), "--out", str(out / f"report{suffix}.csv"),
             "--cells-out", str(out / f"cells{suffix}.csv"),
             "--json-out", str(out / f"report{suffix}.json"),
             "--method", "random,grid,poisson,sps", "--recon", "colorization,nearest,bilateral",
             "--rate", "0.01,0.03", "--seeds", "0,1", "--workers", workers])

    for seed in range(10):  # the benchmark's image size and budget
        mask, radius = samplers.poisson_mask(120, 160, 48, seed, return_radius=True)
        imagedata.save_mask(mask, out / f"poisson-120x160-{seed}-mask.pgm")
        (out / f"poisson-120x160-{seed}-radius.txt").write_text(repr(radius) + "\n")

    for stem in ("000", "001", "003"):  # piecewise-constant, planar-ramp, textured
        rgb, gt = str(scene_dir / f"{stem}_rgb.ppm"), str(scene_dir / f"{stem}_depth.pgm")
        runs = [(m, m, []) for m in ("random", "grid", "poisson", "sps")]
        runs += [(f"sps-m{m}", "sps", ["--m", m]) for m in ("0", "10")]
        runs += [(f"ssa-refined-{steps}", "ssa-refined", ["--gt", gt, "--refine-steps", str(steps)])
                 for steps in (1, 20, 200)]
        if stem == "000":  # dense and tie-heavy
            runs.append(("grid-rate0.5", "grid", ["--rate", "0.5"]))
        if stem == "003":  # soft windows all inside and fully valid at 3, clipped at 7
            runs += [(f"ssa-refined-window{w}", "ssa-refined", ["--gt", gt, "--window", w])
                     for w in ("3", "7")]
        for name, method, extra in runs:
            name = f"{stem}-{name}"
            if method in ("sps", "ssa-refined"):
                extra = [*extra, "--seg-out", str(out / f"{name}-seg.pgm")]
            run(out, f"sample-{name}",
                ["sample", "--method", method, "--rate", RATE, "--seed", "4", "--in", rgb,
                 "--out", str(out / f"{name}-mask.pgm"),
                 "--samples-out", str(out / f"{name}-locs.csv"), *extra])
        if stem == "000":
            write_nearest(out, "000-grid-rate0.5", Path(gt))

        image = imagedata.load_ppm(rgb)
        lab = imagedata.rgb_to_lab(image)
        n = samplers.target_count(float(RATE), HEIGHT, WIDTH)
        seg = superpixel.sps_sample(image, n, return_segmentation=True)[1]
        assoc = superpixel.soft_association(seg, lab)
        (out / f"{stem}-sps-soft-weights.bin").write_bytes(assoc.weights.tobytes())
        (out / f"{stem}-sps-soft-ids.bin").write_bytes(assoc.seed_ids.tobytes())
        (out / f"{stem}-sps-slic-loss.txt").write_text(repr(superpixel.slic_loss(assoc, lab)) + "\n")

        depth = imagedata.load_pgm16(gt)
        sparse = imagedata.apply_mask(depth, imagedata.load_mask(out / f"{stem}-poisson-mask.pgm"))
        imagedata.save_pgm16(sparse, out / f"{stem}-sparse.pgm")
        for method in ("colorization", "nearest", "bilateral"):
            run(out, f"reconstruct-{stem}-{method}",
                ["reconstruct", "--method", method, "--in", str(out / f"{stem}-sparse.pgm"),
                 "--rgb", rgb, "--out", str(out / f"{stem}-{method}-dense.pgm")])

    big_dir = out / "scenes-240x320"
    run(out, "gen-scenes-240x320", ["gen-scenes", "--out", str(big_dir), "--count", "1",
                                    "--kinds", "textured", "--height", "240", "--width", "320",
                                    "--seed", "7"])
    run(out, "sample-textured-240x320-sps",
        ["sample", "--method", "sps", "--rate", "0.0025", "--in", str(big_dir / "000_rgb.ppm"),
         "--out", str(out / "textured-240x320-sps-mask.pgm"),
         "--samples-out", str(out / "textured-240x320-sps-locs.csv"),
         "--seg-out", str(out / "textured-240x320-sps-seg.pgm")])
    write_nearest(out, "textured-240x320-sps", big_dir / "000_depth.pgm")

    solve_dir = out / "scenes-120x160"
    run(out, "gen-scenes-120x160", ["gen-scenes", "--out", str(solve_dir), "--count", "1",
                                    "--kinds", "textured", "--height", "120", "--width", "160",
                                    "--seed", "7"])
    colorize(out, "textured-120x160", "random", solve_dir)

    strip_dir = out / "scenes-6x90"
    run(out, "gen-scenes-6x90", ["gen-scenes", "--out", str(strip_dir), "--count", "1",
                                 "--kinds", "textured", "--height", "6", "--width", "90",
                                 "--seed", "7"])
    run(out, "sample-textured-6x90-sps",
        ["sample", "--method", "sps", "--rate", "0.005", "--in", str(strip_dir / "000_rgb.ppm"),
         "--out", str(out / "textured-6x90-sps-mask.pgm"),
         "--samples-out", str(out / "textured-6x90-sps-locs.csv"),
         "--seg-out", str(out / "textured-6x90-sps-seg.pgm")])
    run(out, "sample-textured-6x90-grid",
        ["sample", "--method", "grid", "--rate", "0.005", "--in", str(strip_dir / "000_rgb.ppm"),
         "--out", str(out / "textured-6x90-grid-mask.pgm"),
         "--samples-out", str(out / "textured-6x90-grid-locs.csv")])
    write_nearest(out, "textured-6x90-grid", strip_dir / "000_depth.pgm")

    refine_dir = out / "scenes-step-edge"
    run(out, "gen-scenes-step-edge", ["gen-scenes", "--out", str(refine_dir), "--count", "1",
                                      "--kinds", "step-edge", "--height", "120", "--width", "160",
                                      "--seed", "7"])
    run(out, "sample-step-edge-120x160-ssa-refined",
        ["sample", "--method", "ssa-refined", "--rate", "0.0025",
         "--in", str(refine_dir / "000_rgb.ppm"), "--gt", str(refine_dir / "000_depth.pgm"),
         "--out", str(out / "step-edge-120x160-ssa-refined-mask.pgm"),
         "--samples-out", str(out / "step-edge-120x160-ssa-refined-locs.csv")])

    flat_dir = out / "scenes-flat"
    flat_dir.mkdir()
    imagedata.save_ppm(imagedata.RgbImage(np.full((60, 80, 3), 128, dtype=np.uint8)),
                       flat_dir / "000_rgb.ppm")
    flat = imagedata.DepthMap.from_depth(np.full((60, 80), 2500.0))
    imagedata.save_pgm16(flat, flat_dir / "000_depth.pgm")
    run(out, "pipeline-flat",
        ["pipeline", "--in", str(flat_dir), "--out", str(out / "report-flat.csv"),
         "--cells-out", str(out / "cells-flat.csv"), "--method", "random,grid,poisson,sps",
         "--recon", "colorization", "--rate", "0.0025"])
    colorize(out, "flat", "grid", flat_dir)
    holed_dir = out / "scenes-holed"
    holed_dir.mkdir()
    for kind, seed, rate, hole, window in (("piecewise-constant", 0, "0.01", 29, None),
                                           ("planar-ramp", 3, "0.0025", 5, None),
                                           ("planar-ramp", 3, "0.0025", 0, 5)):
        scene = scenes.gen_scene(kind, 60, 80, seed)
        n = samplers.target_count(float(rate), 60, 80)
        samples, seg = superpixel.sps_sample(scene.rgb, n, return_segmentation=True)
        if window is None:  # superpixel ``hole``
            name, cut = f"{kind}-hole{hole}", seg.labels == hole
        else:  # the window around sample ``hole``'s nearest pixel
            name, cut = f"{kind}-window{window}-hole{hole}", np.zeros((60, 80), dtype=bool)
            (x, y), half = imagedata.nearest_pixel(samples.locations[hole]), window // 2
            cut[y - half:y + half + 1, x - half:x + half + 1] = True
        rgb, gt = holed_dir / f"{name}_rgb.ppm", holed_dir / f"{name}_depth.pgm"
        imagedata.save_ppm(scene.rgb, rgb)
        imagedata.save_pgm16(imagedata.DepthMap.from_depth(
            np.where(cut, 0.0, scene.depth.depth)), gt)
        run(out, f"sample-{name}-ssa-refined",
            ["sample", "--method", "ssa-refined", "--rate", rate, "--in", str(rgb),
             "--gt", str(gt), "--out", str(out / f"{name}-ssa-refined-mask.pgm"),
             "--samples-out", str(out / f"{name}-ssa-refined-locs.csv")])
    # sps puts sample 0 at (17.5, 14.5); its first step toward the 2542 mm
    # mean of its superpixel (x < 36) would land at x = 32.13, inside the hole
    rgb, gt = holed_dir / "walk-into-hole_rgb.ppm", holed_dir / "walk-into-hole_depth.pgm"
    grey = np.full((30, 60, 3), 128, dtype=np.uint8)
    grey[:, 36:] = (40, 200, 90)
    imagedata.save_ppm(imagedata.RgbImage(grey), rgb)
    row = np.select([np.arange(60) < 2, np.arange(60) < 19], [12000.0, 1000.0], 4000.0)
    row[24:40] = 0.0
    imagedata.save_pgm16(imagedata.DepthMap.from_depth(np.tile(row, (30, 1))), gt)
    run(out, "sample-walk-into-hole-ssa-refined",
        ["sample", "--method", "ssa-refined", "--rate", "0.001", "--in", str(rgb),
         "--gt", str(gt), "--out", str(out / "walk-into-hole-ssa-refined-mask.pgm"),
         "--samples-out", str(out / "walk-into-hole-ssa-refined-locs.csv")])
    strip = out / "strip-1x7.ppm"  # Bridson places only 6 of its 7 pixels at seed 2
    imagedata.save_ppm(imagedata.RgbImage(np.full((1, 7, 3), 128, dtype=np.uint8)), strip)
    run(out, "sample-strip-1x7-poisson",
        ["sample", "--method", "poisson", "--rate", "1.0", "--seed", "2", "--in", str(strip),
         "--out", str(out / "strip-1x7-poisson-mask.pgm")])
    run(out, "grad-check", ["grad-check", "--cases", "200"])

    cfg = evaluate.ExperimentConfig(samplers=("random", "grid", "poisson", "sps"),
                                    reconstructors=("colorization", "nearest"),
                                    rates=(0.02,), seeds=(0, 1))
    still = [scenes.gen_scene(kind, HEIGHT, WIDTH, 5) for kind in scenes.SCENE_KINDS[:2]]
    frames = scenes.gen_translating_sequence(HEIGHT, WIDTH, 5, shift_px=2, seed=3)
    for suffix, workers in (("", 1), ("-w2", 2)):
        run_cfg = dataclasses.replace(cfg, workers=workers)
        rows = evaluate.jitter_experiment(still, (0.0, 2.0, 5.0), run_cfg)
        (out / f"jitter{suffix}.txt").write_text(repr(rows) + "\n")
        rows = evaluate.temporal_experiment(frames, (0, 1, 2), run_cfg)
        (out / f"temporal{suffix}.txt").write_text(repr(rows) + "\n")
    rows = evaluate.jitter_experiment(still, (0.0, 2.0, 5.0),
                                      dataclasses.replace(cfg, seeds=(0, 1, 2)))
    (out / "jitter-seeds3.txt").write_text(repr(rows) + "\n")
    rows = evaluate.temporal_experiment([still[0]] * 4, (0, 2), cfg)
    (out / "temporal-static.txt").write_text(repr(rows) + "\n")

    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
