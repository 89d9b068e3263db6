"""Span tracing of depthsample's public functions, from outside the package.

The tracer rebinds every public function of the layer modules to a wrapper
that records a span (id, name, start, end, parent, thread).  A function is
rebound wherever the package holds a reference to it: in the module that
defines it, in every module that imported it by name (``evaluate.sps_sample``,
``cli.run_matrix``), and in the package namespace.  Calls the package makes
through those names are therefore traced without any change to the package.
Private helpers (``_jacobi_cg``, ``_enforce_connectivity``, ``_bridson``) and
the leaf helpers in ``UNTRACED`` are not wrapped; their time is the self time
of the public function calling them.

Spans stay in memory while the benchmark runs and are written out at exit.
"""
from __future__ import annotations

import contextlib
import gzip
import hashlib
import importlib
import itertools
import json
import threading
import time
import types
from typing import NamedTuple

LAYERS = ("imagedata", "scenes", "samplers", "superpixel", "ssa",
          "reconstruct", "evaluate", "cli")
SAMPLER_SPANS = ("samplers.random_mask", "samplers.grid_mask",
                 "samplers.poisson_mask", "superpixel.sps_sample")
NETPBM_SPANS = ("imagedata.load_ppm", "imagedata.save_ppm", "imagedata.load_pgm16",
                "imagedata.save_pgm16", "imagedata.write_pgm16",
                "imagedata.load_mask", "imagedata.save_mask")
HARNESS_SPANS = ("evaluate.run_matrix", "evaluate.jitter_experiment",
                 "evaluate.temporal_experiment")
# Leaf helpers called once per Bridson candidate or per soft sample: a span
# costs more than the call itself, so their time stays in the caller's self time.
UNTRACED = ("imagedata.nearest_pixel", "ssa.ssa_weights")


class Span(NamedTuple):
    """One closed span.  Parents are referred to by id, and every field is an
    atomic value, so the garbage collector stops tracking recorded spans."""

    id: int
    name: str
    start: float
    end: float
    parent: int  # NO_PARENT for a root
    thread: int


NO_PARENT = -1


class Tracer:
    """Records spans around the public functions of the package's layers.

    ``install`` rebinds, ``uninstall`` restores the originals.  While
    ``paused`` is active, wrapped calls run untraced (used for the
    benchmark's own input generation).  A span that starts on a worker
    thread with no open span of its own is parented to the innermost open
    span of the thread that installed the tracer, so a thread pool's cells
    hang under the harness call that started the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = {"cg_iters": 0, "colorization_calls": 0, "converged": 0}
        self.sps_inputs: set[tuple[bytes, int]] = set()
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}  # thread -> ids of its open spans
        self._local = threading.local()
        self._main = threading.get_ident()
        self._lock = threading.Lock()  # counters are updated from worker threads
        self._paused = False
        self._rebound: list[tuple[types.ModuleType, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            tid = threading.get_ident()
            if stack:
                parent = stack[-1]
            else:
                main_stack = tracer._stacks.get(tracer._main) if tid != tracer._main else None
                parent = main_stack[-1] if main_stack else NO_PARENT
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, name(args) if callable(name) else name,
                                         start, end, parent, tid))
            if hook is not None:
                with tracer._lock:
                    hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    @contextlib.contextmanager
    def paused(self):
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- installing --------------------------------------------------------

    def install(self, package: types.ModuleType) -> None:
        """Rebind every public function of every layer module of ``package``."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__
                        and f"{layer}.{attr}" not in UNTRACED):
                    name = _cli_span_name if (layer, attr) == ("cli", "cli") else f"{layer}.{attr}"
                    wrappers[value] = self._wrap(name, value, _HOOKS.get(f"{layer}.{attr}"))
        for mod in [package, *modules]:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._rebound.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time of each span id: its duration minus the part of it that
        its child spans cover (the union, so overlapping worker-thread
        children are not counted twice)."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent != NO_PARENT:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            covered, reach = 0.0, span.start
            for kid in sorted(children.get(span.id, ()), key=lambda k: k.start):
                lo, hi = max(kid.start, reach), min(kid.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[span.id] = (span.end - span.start) - covered
        return out

    def layer_metrics(self, wall_s: float, evaluations: int) -> dict[str, float]:
        """The per-layer metrics the benchmark reports for a traced run."""
        selfs = self.self_times()
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        own: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            calls[span.name] = calls.get(span.name, 0) + 1
            incl[span.name] = incl.get(span.name, 0.0) + (span.end - span.start)
            own[span.name] = own.get(span.name, 0.0) + selfs[span.id]
            layer_self[span.name.split(".", 1)[0]] += selfs[span.id]

        def total(names, table=incl):
            return sum(table.get(n, 0.0) for n in names)

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        sps_calls = calls.get("superpixel.sps_sample", 0)
        ssa_calls = calls.get("ssa.ssa_sample", 0)
        m = {
            "samplers.poisson_mask.s": incl.get("samplers.poisson_mask", 0.0),
            "samplers.poisson_mask.calls": calls.get("samplers.poisson_mask", 0),
            "samplers.random_mask.s": incl.get("samplers.random_mask", 0.0),
            "samplers.grid_mask.s": incl.get("samplers.grid_mask", 0.0),
            "samplers.locations_to_mask.s": incl.get("samplers.locations_to_mask", 0.0),
            "superpixel.sps_sample.s": incl.get("superpixel.sps_sample", 0.0),
            "superpixel.sps_sample.calls": sps_calls,
            "superpixel.sps_sample.self_s": own.get("superpixel.sps_sample", 0.0),
            "superpixel.slic_init.s": incl.get("superpixel.slic_init", 0.0),
            "superpixel.slic_iterate.s": incl.get("superpixel.slic_iterate", 0.0),
            "superpixel.centers.s": incl.get("superpixel.centers", 0.0),
            "superpixel.distinct_input_ratio": ratio(len(self.sps_inputs), sps_calls),
            "evaluate.sampler_calls_per_eval": ratio(
                sum(calls.get(n, 0) for n in SAMPLER_SPANS), evaluations),
            "evaluate.metrics.s": total(("evaluate.mae", "evaluate.rmse")),
            "evaluate.harness.self_s": total(HARNESS_SPANS, own),
            "reconstruct.colorization.s": incl.get("reconstruct.colorization_reconstruct", 0.0),
            "reconstruct.colorization.self_s": own.get("reconstruct.colorization_reconstruct", 0.0),
            "reconstruct.build_affinity.s": incl.get("reconstruct.build_affinity", 0.0),
            "reconstruct.nn_reconstruct.s": incl.get("reconstruct.nn_reconstruct", 0.0),
            "reconstruct.bilateral.s": incl.get("reconstruct.bilateral_reconstruct", 0.0),
            "reconstruct.cg_iters": c["cg_iters"],
            # self time of colorization (CG plus the reduced-system assembly)
            # per CG iteration: an upper bound on the cost of one iteration
            "reconstruct.cg_ms_per_iter": ratio(
                1000.0 * own.get("reconstruct.colorization_reconstruct", 0.0), c["cg_iters"]),
            "reconstruct.converged_frac": ratio(c["converged"], c["colorization_calls"]),
            "ssa.refine_locations.s": incl.get("ssa.refine_locations", 0.0),
            "ssa.ssa_sample.calls": ssa_calls,
            "ssa.ssa_sample.us_per_call": ratio(1e6 * incl.get("ssa.ssa_sample", 0.0), ssa_calls),
            "imagedata.rgb_to_lab.s": incl.get("imagedata.rgb_to_lab", 0.0),
            "imagedata.netpbm.s": total(NETPBM_SPANS),
            "cli.pipeline.s": incl.get("cli.pipeline", 0.0),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        m["trace.spans"] = len(self.spans)
        m["trace.self_share"] = self.coverage(wall_s)
        return m

    def coverage(self, wall_s: float) -> float:
        """Share of the traced threads' time that lies inside spans.

        On one thread, self times add up to the time inside the thread's
        outermost spans.  Those are summed over threads and divided by the
        threads' time: ``wall_s`` for the thread that installed the tracer,
        and for a pool worker, the window from its first to its last span
        under one harness call.  Untraced work on any thread, a worker's
        included, lowers the share.
        """
        by_id = {span.id: span for span in self.spans}
        inside = 0.0
        windows: dict[tuple[int, int], list[float]] = {}  # (thread, parent) -> [start, end]
        for span in self.spans:
            parent = by_id.get(span.parent)
            if parent is not None and parent.thread == span.thread:
                continue  # nested: covered by its outermost span
            inside += span.end - span.start
            if span.thread != self._main:
                window = windows.setdefault((span.thread, span.parent), [span.start, span.end])
                window[0], window[1] = min(window[0], span.start), max(window[1], span.end)
        thread_s = wall_s + sum(end - start for start, end in windows.values())
        return inside / thread_s if thread_s else 0.0

    def write(self, path) -> None:
        """Write every span as one gzipped JSON line, ordered by end time."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def _cli_span_name(args) -> str:
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.cli"


def _count_colorization(tracer, args, kwargs, result):
    tracer.counters["cg_iters"] += result.iterations
    tracer.counters["colorization_calls"] += 1
    tracer.counters["converged"] += bool(result.converged)


def _record_sps_input(tracer, args, kwargs, result):
    img, n = args[0], args[1] if len(args) > 1 else kwargs["n_samples"]
    digest = hashlib.blake2b(img.pixels.tobytes(), digest_size=16).digest()
    tracer.sps_inputs.add((digest, int(n)))


_HOOKS = {
    "reconstruct.colorization_reconstruct": _count_colorization,
    "superpixel.sps_sample": _record_sps_input,
}
