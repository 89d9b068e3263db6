"""Record a baseline: every workload over several seeds, twice, plus traced runs.

    python3 bench/baseline.py --seeds 10 --out bench/BENCH_1.json

For each workload and end-to-end metric the record holds the values of every
seed, their median, and the quartile spread (Q3 - Q1) / median next to the
metric's bound in BENCHMARK.json.  With --repeat (the default) the same seeds
of every workload are then measured again with the same code, as a second
set; ``repeat_set`` holds its summaries and the change of each median, worse
direction positive.  Last, each workload runs --overhead-pairs pairs of an
untraced and a traced run of the first seed, in alternating order; the first
traced run gives the per-layer metrics, and the tracing overhead is the
median over the pairs of untraced / traced evals_per_s - 1.  The environment
(nproc, CPU model, Python, numpy and scipy versions, the BLAS thread pinning)
is recorded with it.  Runs are sequential: one at a time.
"""
import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 600


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], time.perf_counter() - t0


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def measure(workload: str, seeds: range, spec: dict, record: dict) -> dict:
    """Untraced runs of every seed; their values and a summary per metric."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    entry = {"seeds": list(seeds), "runs": []}
    for seed in seeds:
        result, lines, wall = run(workload, seed, spec["run_seconds"], 0)
        if record["environment"] is None:
            env = json.loads(lines[0].split(": ", 1)[1])
            record["environment"] = {**env, "cpu_model": cpu_model()}
        digest = next(l.split("=", 1)[1] for l in lines if l.startswith("digest"))
        round_s = next(l.split(": ", 1)[1] for l in lines if l.startswith("round_s"))
        entry["runs"].append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                              "attempted": result["attempted"], "failed": result["failed"],
                              "digest_round0": digest,
                              "round_s": [float(t) for t in round_s.split()],
                              **{k: v["value"] for k, v in result["metrics"].items()}})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"{workload} seed={seed} wall={wall:.1f}s " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    entry["summary"] = {}
    for name, vals in values.items():
        median, rel = spread(vals) if len(vals) >= 2 else (vals[0], 0.0)
        entry["summary"][name] = {"median": median, "iqr_over_median": rel,
                                  "bound": bounds[name]}
        print(f"  {workload} {name}: median={median:.4g} spread={rel:.3f} "
              f"bound={bounds[name]}", flush=True)
    return entry


def median_changes(first: dict, second: dict, spec: dict) -> dict:
    """Change of each median from ``first`` to ``second``, worse direction positive."""
    out = {}
    for m in spec["end_to_end"]:
        a, b = first[m["name"]]["median"], second[m["name"]]["median"]
        out[m["name"]] = (b - a) / a if m["better"] == "lower" else (a - b) / a
    return out


def tracing_overhead(workload: str, seed: int, pairs: int, spec: dict) -> dict:
    """Alternate untraced and traced runs of one seed; the median slowdown."""
    untraced, traced, layers = [], [], None
    for i in range(pairs):
        for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
            result, _, _ = run(workload, seed, spec["run_seconds"], trace)
            if trace:
                traced.append(result["metrics"]["trace.evals_per_s"]["value"])
                if layers is None:
                    layers = {k: v["value"] for k, v in result["metrics"].items()}
            else:
                untraced.append(result["metrics"]["evals_per_s"]["value"])
    slowdowns = [u / t - 1.0 for u, t in zip(untraced, traced)]
    print(f"  {workload} tracing slowdown per pair: "
          + " ".join(f"{s:+.3f}" for s in slowdowns)
          + f"; self_share={layers['trace.self_share']:.3f}", flush=True)
    return {"per_layer": layers, "traced_seed": seed,
            "tracing_overhead": {"untraced_evals_per_s": untraced,
                                 "traced_evals_per_s": traced,
                                 "slowdown_per_pair": slowdowns,
                                 "slowdown_median": statistics.median(slowdowns)}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seeds per workload, from --first-seed on")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default="matrix,frames,trends,refine")
    parser.add_argument("--repeat", type=int, choices=(0, 1), default=1,
                        help="measure every workload's seeds a second time")
    parser.add_argument("--overhead-pairs", type=int, default=3)
    parser.add_argument("--out", default=None, help="write the record here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    record = {"environment": None, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in workloads:
        record["workloads"][workload] = measure(workload, seeds, spec, record)
    if args.repeat:
        record["repeat_set"] = {}
        for workload in workloads:
            entry = measure(workload, seeds, spec, record)
            changes = median_changes(record["workloads"][workload]["summary"],
                                     entry["summary"], spec)
            record["repeat_set"][workload] = {**entry, "median_change_worse": changes}
            print(f"  {workload} repeat median change (worse +): " + " ".join(
                f"{k}={v:+.3f}" for k, v in changes.items()), flush=True)
    if args.overhead_pairs:
        for workload in workloads:
            record["workloads"][workload].update(
                tracing_overhead(workload, args.first_seed, args.overhead_pairs, spec))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
