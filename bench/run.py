"""depthsample benchmark: one workload per run, metrics as JSON on the last line.

    python3 bench/run.py --workload frames --seed 0 --seconds 15 --trace 0

Workloads: matrix, frames, trends, refine (see bench/README.md), or ``all``
to run the four one after another.  The run makes its inputs from --seed,
sets up (import, input generation, warm-up), then runs whole rounds of the
workload until --seconds of measured time have passed (at least one round,
so --seconds 0 runs exactly one), checks every output, and prints its
metrics.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 the package's public functions are traced and
the per-layer metrics are printed instead, and the spans are written to
.bench_work/.

Set-up is measured five times, in this process and in four fresh child
processes, and the median is reported.  BLAS and OpenMP pools are pinned to
one thread, so the only parallelism is the matrix's ``--workers`` threads.
"""
import time

_START = time.perf_counter()  # set-up is timed from here, before any import

import os  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # must happen before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
PRINTED_ONLY = {"rmse_mm": "mm", "failed_frac": "ratio"}  # see README: not in BENCHMARK.json
CHILD_TIMEOUT_S = 150  # one set-up
RUN_TIMEOUT_S = 300  # one workload run under --workload all


def import_package():
    """Import depthsample from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import depthsample
    except ImportError as exc:
        sys.exit(f"cannot import depthsample from {ROOT / 'src'}: {exc}")
    if Path(depthsample.__file__).resolve().parent != ROOT / "src" / "depthsample":
        sys.exit(f"imported depthsample from {depthsample.__file__}, not from this checkout")
    return depthsample


def environment() -> dict:
    import numpy
    import scipy
    from workloads import nproc
    return {"nproc": nproc(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def setup_in_child(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def tail_percentile(values: list[float]):
    """Highest of p90/p99/p99.9 with at least ten values beyond it, or None."""
    n = len(values)
    for p in (99.9, 99.0, 90.0):
        beyond = int(n * (1.0 - p / 100.0))
        if beyond >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, int(math.ceil(n * p / 100.0)) - 1)], beyond
    return None


def run_workload(args) -> int:
    package = import_package()
    from tracer import Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cls = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        warm = cls(args.seed, workdir, small=True)
        warm_inputs = warm.prepare(0)
        warm.check(warm_inputs, warm.run(warm_inputs))
        wl = cls(args.seed, workdir)
        inputs = wl.prepare(0)
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        env = environment()
        print("environment: " + json.dumps(env))
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install(package)
        rounds, round_s, measured, r = [], [], 0.0, 0
        while True:
            if r > 0:
                with tracer.paused() if tracer else contextlib.nullcontext():
                    inputs = wl.prepare(r)
            t0 = time.perf_counter()
            output = wl.run(inputs)
            round_s.append(time.perf_counter() - t0)
            measured += round_s[-1]
            with tracer.paused() if tracer else contextlib.nullcontext():
                rounds.append(wl.check(inputs, output))
            r += 1
            if measured >= args.seconds:
                break
        if tracer:
            tracer.uninstall()
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

        evals = [e for rnd in rounds for e in rnd.evaluations]
        good = [e for e in evals if not e.failure]
        failed = len(evals) - len(good)
        for e in evals:
            if e.failure:
                print(f"failed evaluation: {e.failure}", file=sys.stderr)
        latencies = [e.latency_ms for e in good]
        print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
              f"evaluations={len(evals)} measured_s={measured:.3f}")
        print("round_s: " + " ".join(f"{t:.3f}" for t in round_s))
        print(f"digest round0={rounds[0].digest.hexdigest()[:16]}")

        computed = {
            "evals_per_s": len(good) / measured,
            "frame_ms_p50": statistics.median(latencies) if latencies else math.nan,
            "rmse_mm": statistics.fmean(e.rmse_mm for e in good) if good else math.nan,
            "peak_rss_mb": (self_kb + child_kb) / 1024.0,
            "failed_frac": failed / len(evals),
        }
        if tracer:
            computed.update(tracer.layer_metrics(measured, len(evals)))
            computed["trace.evals_per_s"] = computed["evals_per_s"]
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(trace_path)
            print(f"wrote {len(tracer.spans)} spans to {trace_path.relative_to(ROOT)}")
            wanted = spec["per_layer"]
        else:
            setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
            computed["setup_s"] = statistics.median(setups)
            print("setup_s samples: " + " ".join(f"{s:.3f}" for s in setups))
            tail = tail_percentile(latencies)
            print("evaluation latency tail: " + (
                f"p{tail[0]:g}={tail[1]:.1f} ms with {tail[2]} beyond" if tail
                else f"no percentile above p50 has 10 values beyond it (n={len(latencies)})"))
            wanted = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in wanted}
        units.update(PRINTED_ONLY)
        for name, unit in units.items():
            print(f"  {name:<36s} {computed[name]:>14.6g} {unit}")
        # with no passing evaluation there is no latency or RMSE to report;
        # the result then says correct=false and 0 stands in for the value
        metrics = {m["name"]: {"value": computed[m["name"]] if math.isfinite(computed[m["name"]])
                               else 0.0, "unit": m["unit"]} for m in wanted}
        print(json.dumps({"correct": failed == 0, "attempted": len(evals), "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Run every workload in its own process; combine their results."""
    import_package()  # fail early, before any child, outside a checkout
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("matrix", "frames", "trends", "refine"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("matrix", "frames", "trends", "refine", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured time after which no new round starts "
                             "(0: exactly one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
