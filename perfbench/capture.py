"""Pin the output of every benchmark operation in ``expected.json``.

    python3 perfbench/capture.py

Enumerate operations are pinned by the sha256 of their JSON-lines bytes,
verify operations by their list of (check name, status) pairs.  Run it
once, at the commit that defines the benchmark: the pins are the
correctness check of every later run, so regenerating them would wave
through a change of output.
"""

from __future__ import annotations

import json

import ops


def main() -> None:
    pinned = {}
    for workload, todo in ops.WORKLOADS.items():
        for op in todo:
            out = ops.run_op(op)
            if op.method == "verify":
                if not out.ok:
                    raise SystemExit(f"{op.op_id}: verify report is not ok")
                pinned[op.op_id] = {"workload": workload, "checks": dict(out.checks)}
            else:
                pinned[op.op_id] = {"workload": workload, "sha256": out.digest,
                                    "jsonl_bytes": out.jsonl_bytes, "gammas": out.gammas}
            print(f"{op.op_id}: {out.seconds:.2f} s", flush=True)
    ops.EXPECTED_PATH.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
