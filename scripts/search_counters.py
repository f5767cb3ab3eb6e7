"""Count the search's root cut, kernel calls, rows per depth, rounds and
the rows its Aut-closure adds.

    PYTHONPATH=src python scripts/search_counters.py [--type4-7]

Run from the repository root.  The script wraps ``enumerate._propagate``
from outside the package.  Each call closes one batch of at most |Aut|
branches, one row per candidate, from any nodes of one depth: the depth
is the number of a row's generators less one.  Per group it reports:

* ``root``: the root element's fixed-point-free candidates and the
  representatives the first call closes, one per orbit of the root's
  stabiliser (equal where the search roots at the least non-identity
  element instead);
* ``depths``: per depth, the kernel calls, the rows they close
  (propagations) and the rows that close without a conflict (nodes);
* ``rounds``: passes of the loop in ``_propagate``, counted by a line
  tracer on that function's frames alone;
* ``leaves``: the full rows the calls return, and ``closure_added``: the
  tables the Aut-closure adds to them, ``tables`` less ``leaves``.

The groups are the nine that ``verify`` runs on (3,2) --pq, (3,7) and
(3,19); ``--type4-7`` adds Type4 (7,2) and (7,3).  A group over the search
budget reads "gated".  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import dis
import json
import sys

from p2qbrace import enumerate as routes
from p2qbrace.groups import aut_group, make_group

LADDER = [
    ("P2Q-Type1", 3, 2), ("P2Q-Type4", 3, 2), ("PQ-Cyclic", 3, 2), ("PQ-Metacyclic", 3, 2),
    ("P2Q-Type1", 3, 7), ("P2Q-Type2", 3, 7),
    ("P2Q-Type1", 3, 19), ("P2Q-Type2", 3, 19), ("P2Q-Type3", 3, 19),
]
TYPE4_7 = [("P2Q-Type4", 7, 2), ("P2Q-Type4", 7, 3)]
TOTALS = ("calls", "propagations", "nodes", "rounds", "leaves", "closure_added", "tables")


def loop_body_line(fn) -> int:
    """The line number of the first statement inside ``fn``'s loop, read
    off the running code: the line of the instruction that the loop's
    backward jump returns to."""
    code = fn.__code__
    target = next(ins.argval for ins in dis.get_instructions(code)
                  if ins.opcode in dis.hasjrel + dis.hasjabs and ins.argval < ins.offset)
    return next(line for start, end, line in code.co_lines() if start <= target < end)


def counted(propagate, counts: dict):
    """``propagate`` wrapped to add its loop passes to ``counts["rounds"]``
    and, per call, (depth, the first row's x, rows, surviving rows, full
    surviving rows) to ``counts["batches"]``."""
    code, body = propagate.__code__, loop_body_line(propagate)

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == body:
            counts["rounds"] += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    def counting(mt, aperm, comp, table, gens):
        sys.settrace(calls)
        try:
            alive = propagate(mt, aperm, comp, table, gens)
        finally:
            sys.settrace(None)
        counts.setdefault("batches", []).append(
            (gens.shape[1] - 1, int(gens[0, -1]) if len(gens) else -1, alive.size,
             int(alive.sum()), int((table[alive] >= 0).all(axis=1).sum())))
        return alive

    return counting


def count(family: str, p: int, q: int) -> dict | str:
    spec = make_group(family, p, q)
    propagate = routes._propagate
    counts = {"rounds": 0, "batches": []}
    routes._propagate = counted(propagate, counts)
    try:
        result = routes.gfe_search(spec)
    except routes.SearchTooLargeError:
        return "gated"
    finally:
        routes._propagate = propagate
    _depth, x, representatives, _nodes, _full = counts["batches"][0]
    out = {"root": {"element": x,
                    "candidates": int(aut_group(spec).fixed_point_free[:, x].sum()),
                    "representatives": representatives},
           "depths": {}}
    for depth, _x, rows, nodes, _full in counts["batches"]:
        at = out["depths"].setdefault(str(depth), {"calls": 0, "propagations": 0, "nodes": 0})
        at["calls"] += 1
        at["propagations"] += rows
        at["nodes"] += nodes
    for key in ("calls", "propagations", "nodes"):
        out[key] = sum(at[key] for at in out["depths"].values())
    out["rounds"] = counts["rounds"]
    out["leaves"] = sum(full for *_rest, full in counts["batches"])
    out["tables"] = len(result.gammas)
    out["closure_added"] = out["tables"] - out["leaves"]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--type4-7", action="store_true", help="add Type4 (7,2) and (7,3)")
    args = parser.parse_args()
    groups = LADDER + (TYPE4_7 if args.type4_7 else [])
    out: dict[str, dict | str] = {}
    total = dict.fromkeys(TOTALS, 0)
    for family, p, q in groups:
        got = count(family, p, q)
        out[f"{family} ({p},{q})"] = got
        if isinstance(got, dict):
            for key in total:
                total[key] += got[key]
    out["total"] = total
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
