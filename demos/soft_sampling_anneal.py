"""Differentiable depth sampling in three pictures.

1. Temperature sweep: a soft sample near a depth step is a blend of both
   sides; as the softmax cools it collapses onto the nearest pixel.
2. Gradient check: the analytic location gradient against central finite
   differences over randomized windows.
3. Refinement: start a sample on the wrong side of a step, give it the other
   side's depth as target, and watch gradient descent walk it across while
   the temperature anneals.
"""
import numpy as np

from depthsample.imagedata import DepthMap, SampleSet
from depthsample.ssa import (SsaConfig, TemperatureSchedule, gradient_check,
                             hard_sample, refine_locations, ssa_sample)


def step_scene(width=16, left=1000.0, right=4000.0, edge=8):
    row = np.where(np.arange(width) < edge, left, right)
    return DepthMap.from_depth(np.tile(row, (9, 1)))


def sweep():
    d = step_scene()
    loc = np.array([7.6, 4.0])  # 0.4px left of the step at x=8
    (px, py), hard = hard_sample(d, loc)
    print(f"location ({loc[0]}, {loc[1]}) next to a 1000|4000 mm step; "
          f"nearest pixel ({px}, {py}) holds {hard:.0f} mm")
    print(f"  {'t':>8s} {'soft value mm':>14s} {'|soft - hard|':>14s}")
    for t in (2.0, 1.0, 0.5, 0.2, 0.05, 1e-3):
        soft = ssa_sample(d, loc, SsaConfig(window=5, temperature=t)).value
        print(f"  {t:8.3f} {soft:14.2f} {abs(soft - hard):14.6f}")


def check():
    worst = gradient_check(cases=500, window=5, seed=0)
    print(f"\nanalytic vs finite-difference gradient over 500 random cases: "
          f"max relative error {worst:.2e}")


def refine():
    d = step_scene()
    # start on the 1000 mm side but close enough that the 5x5 window sees the
    # far column -- from further away the soft value is constant and there is
    # no gradient to follow
    start = np.array([[6.4, 4.0]])
    target = np.array([4000.0])        # wants the far side's depth
    cfg = SsaConfig(window=5, schedule=TemperatureSchedule(2.0, 0.1))
    result = refine_locations(d, SampleSet(start), target, cfg, lr=1e-8, steps=120)
    end = result.locations.locations[0]
    print(f"\nrefining one sample toward a {target[0]:.0f} mm target:")
    print(f"  start ({start[0, 0]:.2f}, {start[0, 1]:.2f})  "
          f"loss {result.losses[0]:.3e}")
    print(f"  end   ({end[0]:.2f}, {end[1]:.2f})  loss {result.losses[-1]:.3e}")
    (px, _), depth = hard_sample(d, end)
    side = "far (4000 mm)" if px >= 8 else "near (1000 mm)"
    print(f"  the sample now reads {depth:.0f} mm from the {side} side of the step")


if __name__ == "__main__":
    sweep()
    check()
    refine()
