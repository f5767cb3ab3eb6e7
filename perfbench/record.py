"""Run the benchmark on ten seeds and write ``perfbench/baseline.json``.

    python3 perfbench/record.py

For each workload: ten untraced runs, seeds 1 to 10, and traced runs on
the first two seeds.  The record holds, per end-to-end metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median; per layer, the median of the traced
runs and whether every count repeated exactly.  It also records the
machine and library versions, and the operations with their reasons.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

import ops

HERE = Path(__file__).resolve().parent
OUT = HERE / "baseline.json"
SEEDS = list(range(1, 11))
TRACED_SEEDS = SEEDS[:2]
COUNT_UNITS = ("count", "bytes")
NOTE = ("The timings hold for the hardware and the hour they were measured at: on "
        "the 2-core VM of this record, speed drifted by up to 1.5x over minutes and "
        "hours, more than the bounds. Compare a change with its parent by runs of "
        "both interleaved on one machine in one sitting, not with these medians. The "
        "counts and the pinned outputs carry over.")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ops.ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=200)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: outputs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> None:
    declared = json.loads((ops.ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    counts = [m["name"] for m in declared["per_layer"] if m["unit"] in COUNT_UNITS]

    record = {
        "note": NOTE,
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in ops.WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        traced = [bench(workload, seed, seconds, 1) for seed in TRACED_SEEDS]
        end_to_end = {}
        for metric in declared["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[name] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": values}
            print(f"{workload:16s} {name:14s} median {median:10.4f} "
                  f"spread {(q3 - q1) / median:.4f} (bound {metric['bound']})", flush=True)
        repeated = all(len({t[name] for t in traced}) == 1 for name in counts)
        print(f"{workload:16s} counts repeat exactly over {len(traced)} traced runs: {repeated}",
              flush=True)
        record["workloads"][workload] = {
            "operations": [
                {"op_id": op.op_id, "method": op.method, "family": op.family, "p": op.p,
                 "q": op.q, "gate": op.gate, "pq": op.pq, "why": op.why}
                for op in ops.WORKLOADS[workload]],
            "end_to_end": end_to_end,
            "per_layer": {
                m["name"]: traced[0][m["name"]] if m["name"] in counts and repeated
                else statistics.median(t[m["name"]] for t in traced)
                for m in declared["per_layer"]},
            "counts_repeat_exactly": repeated,
        }
    OUT.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
