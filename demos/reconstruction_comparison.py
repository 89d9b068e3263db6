"""Same sparse measurements, three ways to fill in the gaps.

Takes one scene, one adaptive sampling mask, and densifies the measured depth
with each reconstructor.  The propagation solver and the bilateral splatter
both follow color edges, each with its own failure modes; nearest-neighbor
shows what ignoring the image entirely costs.  Dense maps go to --out as
16-bit PGM.
"""
import argparse
from pathlib import Path

import numpy as np

from depthsample.imagedata import apply_mask, rgb_to_lab, save_pgm16, save_ppm
from depthsample.reconstruct import (SolverConfig, bilateral_reconstruct,
                                     colorization_reconstruct, nn_reconstruct)
from depthsample.evaluate import mae, rmse
from depthsample.samplers import locations_to_mask, target_count
from depthsample.scenes import gen_scene
from depthsample.superpixel import sps_sample


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", default="piecewise-constant")
    ap.add_argument("--height", type=int, default=120)
    ap.add_argument("--width", type=int, default=160)
    ap.add_argument("--rate", type=float, default=0.0025)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="demo_out/reconstruction")
    args = ap.parse_args()

    scene = gen_scene(args.kind, args.height, args.width, args.seed)
    n = target_count(args.rate, args.height, args.width)
    mask = locations_to_mask(sps_sample(scene.rgb, n), args.height, args.width)
    sparse = apply_mask(scene.depth, mask)
    lab = rgb_to_lab(scene.rgb)
    print(f"{args.kind} scene, {n} adaptive samples "
          f"({100 * args.rate:.2f}% of {args.height * args.width} pixels)")

    solved = colorization_reconstruct(lab, sparse, SolverConfig())
    results = {
        "colorization": solved.depth,
        "nearest": nn_reconstruct(sparse),
        "bilateral": bilateral_reconstruct(lab, sparse),
    }
    print(f"solver converged={solved.converged} after {solved.iterations} iterations")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_ppm(scene.rgb, out / "scene_rgb.ppm")
    save_pgm16(scene.depth, out / "ground_truth.pgm")
    save_pgm16(sparse, out / "sparse_input.pgm")
    for name, dense in results.items():
        err = np.abs(dense.depth - scene.depth.depth)
        print(f"  {name:<13s} mae {mae(dense, scene.depth):7.1f} mm   "
              f"rmse {rmse(dense, scene.depth):7.1f} mm   "
              f"worst pixel {err.max():8.1f} mm")
        save_pgm16(dense, out / f"dense_{name}.pgm")
    print(f"wrote ground truth, sparse input, and dense maps to {out}/")


if __name__ == "__main__":
    main()
