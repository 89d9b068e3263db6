"""Command-line front end.

Subcommands: sample, reconstruct, eval, pipeline, grad-check, gen-scenes.
Every option can also come from a ``--config`` file of ``key = value`` lines
(`#` comments allowed); explicit flags win over the file.  Exit codes: 0 on
success, 1 on usage errors (found before any input file is read), 2 on data
or validation errors and when any ``pipeline`` cell fails.
"""
from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

import numpy as np

from . import imagedata, scenes
from .evaluate import (AGGREGATE_COLUMNS, CELL_COLUMNS, RECONSTRUCTORS, SAMPLERS,
                       ExperimentConfig, mae, report_payload, rmse, run_matrix, sample,
                       write_rows_csv, write_rows_json)
from .imagedata import (DepthMap, SampleSet, load_pgm16, load_ppm, rgb_to_lab,
                        save_mask, save_pgm16, save_samples, write_pgm16)
from .reconstruct import (SolverConfig, bilateral_reconstruct,
                          colorization_reconstruct, nn_reconstruct)
from .samplers import locations_to_mask, target_count
from .ssa import SsaConfig, TemperatureSchedule, gradient_check, refine_locations
from .superpixel import DEFAULT_ITERS, DEFAULT_M


class _Usage(Exception):
    """Raised for bad command lines; main() maps it to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _load_config(path: str) -> dict[str, str]:
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _Usage(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise _Usage(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        cfg[_dest(key.strip())] = value.strip()
    return cfg


def _dest(key: str) -> str:
    """Where an option or config key is stored: dashes become underscores, and
    ``in``, a Python keyword, becomes ``infile``."""
    dest = key.replace("-", "_")
    return "infile" if dest == "in" else dest


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _merge_config(args: argparse.Namespace, registry: dict) -> argparse.Namespace:
    """Fill unset options from the config file, then from built-in defaults."""
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    known = set(registry)
    for key in cfg:
        if key not in known:
            raise _Usage(f"unknown config key {key!r}")
    for dest, (conv, default, _name) in registry.items():
        if getattr(args, dest, None) is not None:
            continue
        if dest in cfg:
            try:
                value = conv(cfg[dest])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise _Usage(f"config key {dest}: {exc}")
        else:
            value = default
        setattr(args, dest, value)
    return args


def _checked(conv, ok, reason: str):
    """Converter that applies ``conv`` and rejects values for which ``ok`` is false."""
    def convert(text: str):
        value = conv(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{reason}, got {text}")
        return value
    return convert


def _finite_positive(what: str):
    """Converter for a float that must be finite and above 0 (NaN fails too)."""
    return _checked(float, lambda v: np.isfinite(v) and v > 0,
                    f"{what} must be finite and positive")


_rate = _checked(float, lambda v: 0 < v <= 1, "sampling rate must be in (0, 1]")
_workers = _checked(int, lambda v: v >= 1, "need at least one worker")
_refine_steps = _checked(int, lambda v: v >= 0, "refinement steps must be at least 0")
_cases = _checked(int, lambda v: v >= 1, "need at least one case")
_step = _checked(float, lambda v: np.isfinite(v) and v > 0,
                 "finite-difference step must be positive")
_compactness = _checked(float, lambda v: np.isfinite(v) and v >= 0,
                        "compactness m must be finite and at least 0")
_sweeps = _checked(int, lambda v: v >= 0, "superpixel sweeps must be at least 0")
_temperature = _checked(float, np.isfinite, "temperature must be finite")
_lr = _finite_positive("learning rate")
_sigma_c = _finite_positive("color bandwidth sigma_c")
_sigma_s = _finite_positive("spatial sigma sigma_s")
_radius = _finite_positive("bilateral radius")
_tol = _finite_positive("solver tolerance")
_max_iters = _checked(int, lambda v: v >= 0, "solver iteration cap must be at least 0")
_tolerance = _finite_positive("gradient error tolerance")
_seed = _checked(int, lambda v: v >= 0, "seed must be at least 0")
_count = _checked(int, lambda v: v >= 1, "need at least one scene")
_side = _checked(int, lambda v: v >= 4, "scene sides must be at least 4 pixels")


def _rates(text: str) -> tuple[float, ...]:
    return tuple(_rate(v) for v in text.split(","))


def _ssa_config(window: int, *schedule: float) -> SsaConfig:
    """The soft-sampling configuration; a value it rejects is a usage error."""
    try:
        return SsaConfig(window=window, schedule=TemperatureSchedule(*schedule))
    except ValueError as exc:
        raise _Usage(str(exc))


def _seeds(text: str) -> tuple[int, ...]:
    return tuple(_seed(v) for v in text.split(","))


def _names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _choice(allowed: tuple[str, ...]):
    """Converter that accepts only the names in ``allowed``."""
    def convert(text: str) -> str:
        if text not in allowed:
            raise argparse.ArgumentTypeError(
                f"unknown name {text!r}; choose from {', '.join(allowed)}")
        return text
    return convert


def _choices(allowed: tuple[str, ...]):
    """Converter for a non-empty comma-separated list of names from ``allowed``."""
    choice = _choice(allowed)

    def convert(text: str) -> tuple[str, ...]:
        names = _names(text)
        if not names:
            raise argparse.ArgumentTypeError(
                f"need at least one name; choose from {', '.join(allowed)}")
        return tuple(choice(v) for v in names)
    return convert


def _distinct(conv):
    """Converter for a list, by ``conv``, in which no entry may repeat."""
    def convert(text: str) -> tuple:
        values = conv(text)
        for i, value in enumerate(values):
            if value in values[:i]:
                raise argparse.ArgumentTypeError(f"{value} is listed twice in {text}")
        return values
    return convert


def _opt(parser, registry, name, conv, default, help_text):
    dest = _dest(name.lstrip("-"))
    if conv is _parse_bool:
        parser.add_argument(name, dest=dest, action="store_const", const=True,
                            default=None, help=help_text)
    else:
        parser.add_argument(name, dest=dest, type=conv, default=None, help=help_text)
    registry[dest] = (conv, default, name)


_REQUIRED = object()


def _defaults(fn) -> dict:
    """``fn``'s keyword defaults by parameter name: the library states them once."""
    return {k: p.default for k, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


_REFINE, _GRAD_CHECK = _defaults(refine_locations), _defaults(gradient_check)


def _require(args, registry):
    for dest, (_, default, name) in registry.items():
        if default is _REQUIRED and getattr(args, dest) is _REQUIRED:
            raise _Usage(f"missing required option {name}")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> int:
    refined = args.method == "ssa-refined"
    if refined:
        if args.gt is None:
            raise _Usage("--gt is required for --method ssa-refined")
        cfg = _ssa_config(args.window, args.t_start, args.t_end)
    if args.seg_out and args.method not in ("sps", "ssa-refined"):
        raise _Usage("--seg-out applies only to --method sps or ssa-refined")
    rgb = load_ppm(args.infile)
    h, w = rgb.height, rgb.width
    n = target_count(args.rate, h, w)
    sampled = sample("sps" if refined else args.method, rgb, n, args.seed, args.m, args.iters)
    locations, seg = sampled.locations, sampled.segmentation
    if refined:
        gt = load_pgm16(args.gt)
        if (gt.height, gt.width) != (h, w):
            raise ValueError("ground-truth depth dimensions differ from the image")
        targets, has_depth = _superpixel_depth_targets(seg.labels, gt, len(locations))
        result = refine_locations(gt, SampleSet(locations.locations[has_depth]),
                                  targets[has_depth], cfg, lr=args.lr, steps=args.refine_steps)
        moved = locations.locations.copy()
        moved[has_depth] = result.locations.locations
        locations = SampleSet(moved)
        mask = locations_to_mask(locations, h, w)
    else:
        mask = sampled.mask

    save_mask(mask, args.out)
    if args.samples_out:
        save_samples(locations, args.samples_out)
    if args.seg_out:
        write_pgm16(seg.labels.astype(np.uint16), args.seg_out)
    print(f"wrote {mask.count} samples to {args.out}")
    return 0


def _superpixel_depth_targets(labels: np.ndarray, gt: DepthMap,
                              n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-superpixel refinement targets: the mean valid depth of each of the
    ``n`` regions, and which regions have any valid depth to average.  A
    sample whose region has none has no target and is not refined.
    """
    flat = labels.ravel()
    vmask = gt.valid.ravel()
    sums = np.bincount(flat[vmask], weights=gt.depth.ravel()[vmask], minlength=n)
    counts = np.bincount(flat[vmask], minlength=n)
    return sums / np.maximum(counts, 1), counts > 0


def _cmd_reconstruct(args) -> int:
    if args.method != "nearest" and args.rgb is None:
        raise _Usage(f"--rgb is required for --method {args.method}")
    sparse = load_pgm16(args.infile)
    if args.method == "nearest":
        dense = nn_reconstruct(sparse)
    else:
        lab = rgb_to_lab(load_ppm(args.rgb))
        if args.method == "colorization":
            result = colorization_reconstruct(
                lab, sparse, SolverConfig(args.sigma_c, args.tol, args.max_iters))
            dense = result.depth
            print(f"converged={str(result.converged).lower()} "
                  f"iterations={result.iterations} residual={result.residual:.3e} "
                  f"error_bound_mm={result.error_bound_mm:.3e}")
        else:
            dense = bilateral_reconstruct(lab, sparse, sigma_s=args.sigma_s,
                                          sigma_c=args.sigma_c, radius=args.radius)
    save_pgm16(dense, args.out)
    print(f"wrote dense depth to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    est = load_pgm16(args.est)
    gt = load_pgm16(args.gt)
    print(f"mae_mm={mae(est, gt):.6f} rmse_mm={rmse(est, gt):.6f}")
    return 0


def _cmd_pipeline(args) -> int:
    scene_list, names = scenes_from_dir(args.infile)
    cfg = ExperimentConfig(
        samplers=args.method, reconstructors=args.recon, rates=args.rate,
        seeds=args.seeds, m=args.m, slic_iters=args.iters, sigma_c=args.sigma_c,
        tol=args.tol, max_iters=args.max_iters, workers=args.workers)
    report = run_matrix(scene_list, cfg, names)
    failed = [r for r in report.rows if r.error]
    write_rows_csv(report.aggregate(), args.out, AGGREGATE_COLUMNS,
                   include_timing=args.timing)
    if args.cells_out:
        rows = [vars(r) for r in report.sorted_rows()]
        write_rows_csv(rows, args.cells_out, CELL_COLUMNS, include_timing=args.timing)
    if args.json_out:
        write_rows_json(report_payload(report), args.json_out, include_timing=args.timing)
    print(f"evaluated {len(report.rows)} cells over {len(scene_list)} scenes "
          f"({len(failed)} failed); wrote {args.out}")
    for row in failed:
        print(f"  failed {row.scene}/{row.sampler}/{row.reconstructor}: {row.error}",
              file=sys.stderr)
    return 2 if failed else 0


def scenes_from_dir(path: str):
    """Load NNN_rgb.ppm / NNN_depth.pgm pairs from a scene directory.

    Raises ValueError for a scene whose RGB and depth sizes differ.
    """
    root = Path(path)
    if not root.is_dir():
        raise ValueError(f"{path} is not a directory")
    rgb_files = sorted(root.glob("*_rgb.ppm"))
    if not rgb_files:
        raise ValueError(f"no *_rgb.ppm scenes found in {path}")
    loaded, names = [], []
    for rgb_path in rgb_files:
        stem = rgb_path.name[: -len("_rgb.ppm")]
        depth_path = root / f"{stem}_depth.pgm"
        if not depth_path.exists():
            raise ValueError(f"missing depth file for scene {stem}: {depth_path}")
        rgb, depth = load_ppm(rgb_path), load_pgm16(depth_path)
        if (rgb.height, rgb.width) != (depth.height, depth.width):
            raise ValueError(f"scene {stem}: RGB is {rgb.height}x{rgb.width} but depth is "
                             f"{depth.height}x{depth.width}")
        loaded.append(scenes.SyntheticScene(rgb, depth, kind="file", params={"stem": stem}))
        names.append(stem)
    return loaded, names


def _cmd_grad_check(args) -> int:
    _ssa_config(args.window)
    if not 0 < args.t_min <= args.t_max:
        raise _Usage(f"need 0 < --t-min <= --t-max, got {args.t_min} and {args.t_max}")
    worst = gradient_check(cases=args.cases, window=args.window, seed=args.seed,
                           t_range=(args.t_min, args.t_max), h=args.step)
    print(f"max relative gradient error over {args.cases} cases: {worst:.3e}")
    if worst < args.tolerance:
        return 0
    print(f"exceeds tolerance {args.tolerance:.1e}", file=sys.stderr)
    return 2


def _cmd_gen_scenes(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kinds = args.kinds
    for i in range(args.count):
        kind = kinds[i % len(kinds)]
        scene = scenes.gen_scene(kind, args.height, args.width, args.seed + i)
        imagedata.save_ppm(scene.rgb, out / f"{i:03d}_rgb.ppm")
        save_pgm16(scene.depth, out / f"{i:03d}_depth.pgm")
    print(f"wrote {args.count} scenes to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _build_parser():
    parser = _Parser(prog="depthsample",
                     description="Adaptive depth sampling and reconstruction toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")
    registries: dict[str, dict] = {}

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="key = value file; explicit flags override it")
        registries[name] = {}
        return p, registries[name]

    p, reg = command("sample", "compute a sampling mask from an RGB image")
    _opt(p, reg, "--method", _choice((*SAMPLERS, "ssa-refined")), _REQUIRED,
         " | ".join((*SAMPLERS, "ssa-refined")))
    _opt(p, reg, "--rate", _rate, _REQUIRED, "sampling rate in (0, 1], e.g. 0.0025")
    _opt(p, reg, "--in", str, _REQUIRED, "input RGB image (PPM)")
    _opt(p, reg, "--out", str, _REQUIRED, "output mask (8-bit PGM)")
    _opt(p, reg, "--gt", str, None, "ground-truth depth (16-bit PGM); required for ssa-refined")
    _opt(p, reg, "--samples-out", str, None, "also write continuous locations as CSV")
    _opt(p, reg, "--seg-out", str, None, "dump superpixel labels as 16-bit PGM")
    _opt(p, reg, "--seed", _seed, 0, "random seed, at least 0")
    _opt(p, reg, "--m", _compactness, DEFAULT_M, "superpixel compactness weight, finite and at least 0")
    _opt(p, reg, "--iters", _sweeps, DEFAULT_ITERS, "superpixel refinement sweeps, at least 0")
    _opt(p, reg, "--window", int, SsaConfig.window, "soft-sampling window size")
    _opt(p, reg, "--t-start", _temperature, TemperatureSchedule.t_start,
         "annealing start temperature, finite and at least --t-end")
    _opt(p, reg, "--t-end", _temperature, TemperatureSchedule.t_end,
         "annealing end temperature, finite, above 0 and at most --t-start")
    _opt(p, reg, "--refine-steps", _refine_steps, _REFINE["steps"],
         "gradient steps for ssa-refined, at least 0")
    _opt(p, reg, "--lr", _lr, _REFINE["lr"], "learning rate for ssa-refined, finite and above 0")

    p, reg = command("reconstruct", "densify a sparse depth map")
    _opt(p, reg, "--method", _choice(RECONSTRUCTORS), _REQUIRED, " | ".join(RECONSTRUCTORS))
    _opt(p, reg, "--in", str, _REQUIRED, "sparse depth (16-bit PGM)")
    _opt(p, reg, "--out", str, _REQUIRED, "output dense depth (16-bit PGM)")
    _opt(p, reg, "--rgb", str, None, "guiding RGB image (PPM)")
    _opt(p, reg, "--sigma-c", _sigma_c, SolverConfig.sigma_c, "color affinity bandwidth, finite and above 0")
    _opt(p, reg, "--sigma-s", _sigma_s, None,
         "bilateral spatial sigma, finite and above 0 (default: half sample spacing)")
    _opt(p, reg, "--radius", _radius, None,
         "bilateral radius, finite and above 0 (default: 3 spatial sigmas)")
    _opt(p, reg, "--tol", _tol, SolverConfig.tol, "solver relative residual tolerance, finite and above 0")
    _opt(p, reg, "--max-iters", _max_iters, SolverConfig.max_iters, "solver iteration cap, at least 0")

    p, reg = command("eval", "compare an estimated depth map against ground truth")
    _opt(p, reg, "--est", str, _REQUIRED, "estimated depth (16-bit PGM)")
    _opt(p, reg, "--gt", str, _REQUIRED, "ground-truth depth (16-bit PGM)")

    p, reg = command("pipeline", "sample + reconstruct + evaluate a scene directory")
    _opt(p, reg, "--in", str, _REQUIRED, "scene directory (NNN_rgb.ppm / NNN_depth.pgm)")
    _opt(p, reg, "--out", str, _REQUIRED, "aggregate report CSV")
    _opt(p, reg, "--method", _distinct(_choices(SAMPLERS)), ("sps",),
         "comma-separated distinct samplers")
    _opt(p, reg, "--recon", _distinct(_choices(RECONSTRUCTORS)), ExperimentConfig.reconstructors,
         "comma-separated distinct reconstructors")
    _opt(p, reg, "--rate", _distinct(_rates), ExperimentConfig.rates,
         "comma-separated distinct sampling rates in (0, 1]")
    _opt(p, reg, "--seeds", _distinct(_seeds), ExperimentConfig.seeds,
         "comma-separated distinct seeds, each at least 0")
    _opt(p, reg, "--cells-out", str, None, "also write the per-scene cell CSV")
    _opt(p, reg, "--json-out", str, None, "also write a JSON mirror of the report")
    _opt(p, reg, "--timing", _parse_bool, False, "include wall-clock times (breaks byte reproducibility)")
    _opt(p, reg, "--workers", _workers, ExperimentConfig.workers, "parallel evaluation threads, at least 1")
    _opt(p, reg, "--m", _compactness, DEFAULT_M, "superpixel compactness weight, finite and at least 0")
    _opt(p, reg, "--iters", _sweeps, DEFAULT_ITERS, "superpixel refinement sweeps, at least 0")
    _opt(p, reg, "--sigma-c", _sigma_c, SolverConfig.sigma_c, "color affinity bandwidth, finite and above 0")
    _opt(p, reg, "--tol", _tol, SolverConfig.tol, "solver relative residual tolerance, finite and above 0")
    _opt(p, reg, "--max-iters", _max_iters, SolverConfig.max_iters, "solver iteration cap, at least 0")

    p, reg = command("grad-check", "verify soft-sampling gradients against finite differences")
    _opt(p, reg, "--cases", _cases, _GRAD_CHECK["cases"], "number of randomized cases, at least 1")
    _opt(p, reg, "--window", int, _GRAD_CHECK["window"], "soft-sampling window size")
    _opt(p, reg, "--seed", _seed, _GRAD_CHECK["seed"], "random seed, at least 0")
    _opt(p, reg, "--t-min", _temperature, _GRAD_CHECK["t_range"][0],
         "low end of the temperature range, finite and above 0")
    _opt(p, reg, "--t-max", _temperature, _GRAD_CHECK["t_range"][1],
         "high end of the temperature range, finite and at least --t-min")
    _opt(p, reg, "--step", _step, _GRAD_CHECK["h"], "finite-difference step in pixels, finite and above 0")
    _opt(p, reg, "--tolerance", _tolerance, 1e-4,
         "maximum allowed relative error, finite and above 0")

    p, reg = command("gen-scenes", "write synthetic RGB-D scene pairs")
    _opt(p, reg, "--out", str, _REQUIRED, "output directory")
    _opt(p, reg, "--count", _count, 10, "number of scenes, at least 1")
    _opt(p, reg, "--kinds", _choices(scenes.SCENE_KINDS), scenes.SCENE_KINDS,
         "comma-separated scene kinds, cycled")
    _opt(p, reg, "--height", _side, 120, "scene height in pixels, at least 4")
    _opt(p, reg, "--width", _side, 160, "scene width in pixels, at least 4")
    _opt(p, reg, "--seed", _seed, 0, "base seed, at least 0; scene i uses seed + i")

    return parser, registries


_COMMANDS = {
    "sample": _cmd_sample,
    "reconstruct": _cmd_reconstruct,
    "eval": _cmd_eval,
    "pipeline": _cmd_pipeline,
    "grad-check": _cmd_grad_check,
    "gen-scenes": _cmd_gen_scenes,
}


def cli(argv: list[str] | None = None) -> int:
    """Run the command line; returns the process exit code."""
    parser, registries = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _Usage("a subcommand is required")
        _merge_config(args, registries[args.command])
        _require(args, registries[args.command])
        return _COMMANDS[args.command](args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:  # console entry point
    sys.exit(cli())


if __name__ == "__main__":
    main()
