"""One pass over a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Prints one JSON object.  ``ready`` is the ``time.monotonic()`` reading
after the package import and input generation, before the first
operation; the parent subtracts its own reading taken before it started
this process, which gives the set-up time (``CLOCK_MONOTONIC`` is shared
by all processes on Linux).  ``--setup-only`` stops there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import threading
import time
import traceback


def thread_count() -> int:
    """Operating-system threads of this process."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import ops

    todo = ops.operations(args.workload, args.seed)
    expected = ops.load_expected()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    outcomes, errors = [], {}
    try:
        for i, op in enumerate(todo):
            if tracer is not None:
                tracer.op = i
            try:
                out = ops.run_op(op, tracer)
            except Exception as exc:  # an operation that raises counts as failed
                traceback.print_exc()
                out = ops.Outcome(op.op_id, 0.0, 0)
                errors[op.op_id] = [f"{op.op_id}: raised {exc!r}"]
            else:
                errors[op.op_id] = ops.check_outcome(out, expected)
            outcomes.append(out)
    finally:
        if tracer is not None:
            tracer.restore()

    result = {
        "ready": ready,
        "ops": [o.__dict__ for o in outcomes],
        "errors": errors,
        "wall_s": sum(o.seconds for o in outcomes),
        "gammas": sum(o.gammas for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads": thread_count(),
    }
    if tracer is not None:
        result["metrics"] = tracer.metrics(outcomes)
        tracer.write(ops.ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.tsv")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
