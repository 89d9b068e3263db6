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
from .evaluate import (
    CellResult,
    EvalReport,
    ExperimentConfig,
    jitter_experiment,
    mae,
    rmse,
    run_matrix,
    temporal_experiment,
    write_rows_csv,
    write_rows_json,
)
from .imagedata import (
    DepthMap,
    FormatError,
    LabImage,
    NetpbmError,
    RgbImage,
    SampleSet,
    SamplingMask,
    TruncationError,
    apply_mask,
    load_mask,
    load_pgm16,
    load_ppm,
    load_samples,
    nearest_pixel,
    rgb_to_lab,
    save_mask,
    save_pgm16,
    save_ppm,
    save_samples,
)
from .reconstruct import (
    AffinityGraph,
    ColorizationResult,
    SolverConfig,
    bilateral_reconstruct,
    build_affinity,
    colorization_reconstruct,
    nn_reconstruct,
)
from .samplers import (
    CapacityError,
    grid_mask,
    locations_to_mask,
    poisson_mask,
    random_mask,
    target_count,
)
from .scenes import SCENE_KINDS, SyntheticScene, gen_scene, gen_translating_sequence
from .ssa import (
    RefineResult,
    SamplingError,
    SoftRead,
    SoftSample,
    SsaConfig,
    TemperatureSchedule,
    bilinear_sample,
    finite_difference_gradient,
    gradient_check,
    hard_sample,
    refine_locations,
    ssa_read,
    ssa_sample,
    ssa_weights,
)
from .superpixel import (
    DEFAULT_M,
    Segmentation,
    SoftAssociation,
    SuperpixelSummary,
    centers,
    slic_init,
    slic_iterate,
    slic_loss,
    soft_association,
    sps_sample,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # containers and I/O
    "RgbImage", "LabImage", "DepthMap", "SamplingMask", "SampleSet",
    "NetpbmError", "FormatError", "TruncationError",
    "nearest_pixel", "rgb_to_lab", "apply_mask",
    "load_ppm", "save_ppm", "load_pgm16", "save_pgm16",
    "load_mask", "save_mask", "load_samples", "save_samples",
    # samplers
    "CapacityError", "target_count", "random_mask", "grid_mask",
    "poisson_mask", "locations_to_mask",
    # superpixels
    "DEFAULT_M", "Segmentation", "SoftAssociation", "SuperpixelSummary",
    "slic_init", "slic_iterate", "soft_association", "slic_loss",
    "centers", "sps_sample",
    # soft sampling
    "SamplingError", "TemperatureSchedule", "SsaConfig", "SoftSample", "SoftRead",
    "ssa_weights", "ssa_read", "ssa_sample", "bilinear_sample",
    "hard_sample", "RefineResult", "refine_locations",
    "finite_difference_gradient", "gradient_check",
    # reconstruction
    "AffinityGraph", "SolverConfig", "ColorizationResult", "build_affinity",
    "colorization_reconstruct", "nn_reconstruct", "bilateral_reconstruct",
    # scenes and evaluation
    "SyntheticScene", "SCENE_KINDS", "gen_scene", "gen_translating_sequence",
    "ExperimentConfig", "CellResult", "EvalReport", "run_matrix",
    "temporal_experiment", "jitter_experiment", "mae", "rmse",
    "write_rows_csv", "write_rows_json",
]
