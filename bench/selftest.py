"""Self-test of the benchmark itself.

    python3 bench/selftest.py [--workloads matrix,frames,trends,refine] [--seed 3]

For every workload it runs exactly one round three times: twice traced and
once untraced, each in its own process, and checks that

- the exact counters repeat between the two traced runs: reconstruct.cg_iters,
  ssa.ssa_sample.calls, samplers.poisson_mask.calls, superpixel.sps_sample.calls,
  evaluate.sampler_calls_per_eval and superpixel.distinct_input_ratio;
- tracing changes no output: the three runs print the same output digest;
- every output check passed, and the traced spans' self times account for at
  least 95% of the traced thread time (``trace.self_share``);
- each run printed exactly the metrics BENCHMARK.json lists, with their units.

Finally it copies BENCHMARK.json and bench/ alone into an empty directory and
checks that the benchmark exits non-zero there without printing a result.
Exits 0 when every check holds.
"""
import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT = ("reconstruct.cg_iters", "ssa.ssa_sample.calls", "samplers.poisson_mask.calls",
         "superpixel.sps_sample.calls", "evaluate.sampler_calls_per_eval",
         "superpixel.distinct_input_ratio")
MIN_SELF_SHARE = 0.95


def run(cwd: Path, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--seconds", "0"],
        capture_output=True, text=True, timeout=600, cwd=cwd)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="matrix,frames,trends,refine")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {what}", flush=True)
        if not ok:
            problems.append(what)

    for workload in args.workloads.split(","):
        print(f"{workload}:", flush=True)
        results, digests = [], []
        for trace in (1, 1, 0):
            code, lines, err = run(ROOT, workload, args.seed, trace)
            if code != 0 or not lines:
                expect(False, f"trace={trace} run exits 0 (got {code}: {err.strip()[-300:]})")
                break
            result = json.loads(lines[-1])
            results.append(result)
            digests.append(next(l for l in lines if l.startswith("digest")))
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and {k: v["unit"] for k, v in result["metrics"].items()}
                   == {m["name"]: m["unit"] for m in wanted},
                   f"trace={trace} prints exactly the BENCHMARK.json metrics")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"trace={trace} every output check passed "
                   f"({result['failed']} of {result['attempted']} failed)")
        if len(results) < 3:
            continue
        first, second = (r["metrics"] for r in results[:2])
        for name in EXACT:
            expect(first[name]["value"] == second[name]["value"],
                   f"{name} repeats exactly ({first[name]['value']} vs {second[name]['value']})")
        expect(len(set(digests)) == 1, f"tracing changes no output ({', '.join(digests)})")
        share = first["trace.self_share"]["value"]
        expect(share >= MIN_SELF_SHARE, f"self times cover {share:.3f} of traced thread time")

    print("empty directory:", flush=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(bare, "refine", args.seed, 0)
        printed = any(l.startswith("{") for l in lines)
        expect(code != 0 and not printed,
               f"exits non-zero without a result (exit {code}, result printed: {printed})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
