"""Where do the four samplers put their depth budget?

Generates one piecewise-constant scene (color edges = depth edges), asks each
sampler for the same budget, and prints how the patterns differ: spacing
statistics and how many samples land near a depth discontinuity.  Masks and
the scene go to --out as Netpbm files you can open with any viewer.
"""
import argparse
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist

from depthsample.imagedata import save_mask, save_pgm16, save_ppm
from depthsample.samplers import (grid_mask, locations_to_mask, poisson_mask,
                                  random_mask, target_count)
from depthsample.scenes import gen_scene
from depthsample.superpixel import sps_sample


def describe(name, mask, depth, n_regions):
    ys, xs = np.nonzero(mask.bits)
    pts = np.column_stack([xs, ys]).astype(float)
    spacing = pdist(pts)
    # each region carries a distinct constant depth, so the depths seen at
    # the sample pixels count the regions that got at least one measurement
    hit = len(np.unique(depth[ys, xs]))
    print(f"  {name:<8s} {mask.count:4d} samples   "
          f"min spacing {spacing.min():5.1f}px   "
          f"median {np.median(spacing):6.1f}px   "
          f"covers {hit:2d}/{n_regions} depth regions")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--height", type=int, default=120)
    ap.add_argument("--width", type=int, default=160)
    ap.add_argument("--rate", type=float, default=0.0025)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="demo_out/sampling_patterns")
    args = ap.parse_args()

    scene = gen_scene("piecewise-constant", args.height, args.width, args.seed)
    n = target_count(args.rate, args.height, args.width)
    print(f"{args.height}x{args.width} scene with {scene.params['regions']} depth regions, "
          f"budget {n} samples ({100 * args.rate:.2f}% of pixels)")

    masks = {
        "random": random_mask(args.height, args.width, n, args.seed),
        "grid": grid_mask(args.height, args.width, n),
        "poisson": poisson_mask(args.height, args.width, n, args.seed),
        "sps": locations_to_mask(sps_sample(scene.rgb, n), args.height, args.width),
    }

    print("(a region with no sample can only be guessed from its neighbors,"
          " so coverage is what the reconstructor lives or dies by)")
    for name, mask in masks.items():
        describe(name, mask, scene.depth.depth, scene.params["regions"])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_ppm(scene.rgb, out / "scene_rgb.ppm")
    save_pgm16(scene.depth, out / "scene_depth.pgm")
    for name, mask in masks.items():
        save_mask(mask, out / f"mask_{name}.pgm")
    print(f"wrote scene and masks to {out}/")


if __name__ == "__main__":
    main()
