"""The p2qbrace benchmark: cold-cache workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``ops.WORKLOADS``):
``verify-ladder``, ``structured-wide`` and ``oracle-closure``.

A run is one pass over the workload's operations, in a fresh
interpreter (``worker.py``): one process with one thread, as a closed
loop, where the next operation starts when the previous one returns.
The operations are fixed, so ``--seconds`` does not size the pass; it
is the time one pass is expected to fit in, and the runner notes a pass
that ran past it.  The set-up time is also sampled by interpreters that
stop before the first operation, before and after the pass.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs one traced pass, checks its outputs against the same
pins, and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DEADLINE_S = 170  # the whole run, from start to result
SETUP_ONLY_SAMPLES = 4  # before the pass, and again after it
# No thread pools in the load: numpy's BLAS and OpenMP runtimes get one thread.
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(RuntimeError):
    pass


def spawn(worker_args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON, with set-up time."""
    start = time.monotonic()
    if start >= deadline:
        raise BenchError("the run is out of time")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *worker_args],
            stdout=subprocess.PIPE, cwd=ROOT, env={**os.environ, **THREAD_CAPS},
            timeout=deadline - start, check=False, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a worker ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(worker_args)} exited with {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - start
    return out


def pass_errors(result: dict) -> list[str]:
    errors = [e for op_errors in result["errors"].values() for e in op_errors]
    if result["threads"] != 1:
        errors.append(f"the workload process ran {result['threads']} threads")
    return errors


def failed_ops(result: dict) -> int:
    return sum(1 for op_errors in result["errors"].values() if op_errors)


def run_untraced(workload: str, seed: int, seconds: float, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]

    def setup_samples() -> list[float]:
        return [spawn(base + ["--setup-only"], deadline)["setup_s"]
                for _ in range(SETUP_ONLY_SAMPLES)]

    # Set-up is sampled on both sides of the pass, since the machine's
    # speed drifts over tens of seconds.
    setups = setup_samples()
    result = spawn(base, deadline)
    setups += [result["setup_s"]] + setup_samples()
    attempted, failed = len(result["ops"]), failed_ops(result)
    metrics = {
        "wall_s": result["wall_s"],
        "gammas_per_s": result["gammas"] / result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"one pass of {attempted} operations, {result['wall_s']:.1f} s "
        f"({'past' if result['wall_s'] > seconds else 'within'} --seconds {seconds:g}); "
        f"set-up samples: {len(setups)}",
        "wall_tail_s: not measured (a percentile with 10 samples beyond it needs "
        "11 passes; a run makes one)",
        f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}",
    ]
    return result, metrics, notes


def run_traced(workload: str, seed: int, deadline: float):
    result = spawn(["--workload", workload, "--seed", str(seed), "--trace"], deadline)
    notes = [f"traced wall {result['wall_s']:.4f} s, "
             f"{result['metrics']['trace.spans']} spans written to "
             f".perfbench_out/spans-{workload}-{seed}.tsv"]
    return result, result["metrics"], notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "p2qbrace").is_dir():
        print("error: no p2qbrace sources under src/; run from a checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.trace:
            result, metrics, notes = run_traced(args.workload, args.seed, deadline)
            section = declared["per_layer"]
        else:
            result, metrics, notes = run_untraced(args.workload, args.seed, args.seconds,
                                                  deadline)
            section = declared["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in section}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} are not both declared "
              "and measured", file=sys.stderr)
        return 1
    errors = pass_errors(result)
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print("  " + note)
    for name in units:
        print(f"  {name:36s} {metrics[name]:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(result["ops"]),
        "failed": failed_ops(result),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
