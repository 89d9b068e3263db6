"""Adaptive depth sampling and RGB-guided depth reconstruction.

The package simulates a sparse depth sensor: pick a small pixel budget,
choose where to measure (uniform baselines or image-adaptive superpixel
placement), then densify the sparse measurements back into a full depth map
guided by the RGB image.  Submodules:

- :mod:`~depthsample.imagedata` -- image/depth containers and Netpbm I/O
- :mod:`~depthsample.samplers` -- random, grid, and Poisson-disk budgets
- :mod:`~depthsample.superpixel` -- SLIC, soft association, adaptive sampling
- :mod:`~depthsample.ssa` -- differentiable sampling of discrete depth maps
- :mod:`~depthsample.reconstruct` -- colorization, bilateral, nearest neighbor
- :mod:`~depthsample.scenes` -- synthetic RGB-D test scenes
- :mod:`~depthsample.evaluate` -- experiment matrix and CSV/JSON reports
"""
from . import evaluate, imagedata, reconstruct, samplers, scenes, ssa, superpixel

__version__ = "0.1.0"

_LAYERS = (imagedata, samplers, superpixel, ssa, reconstruct, scenes, evaluate)
globals().update({name: getattr(layer, name) for layer in _LAYERS for name in layer.__all__})
__all__ = ["__version__", *(name for layer in _LAYERS for name in layer.__all__)]
