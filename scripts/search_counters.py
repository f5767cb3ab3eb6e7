"""Count the search's propagations, DFS nodes, kernel calls and rounds.

    PYTHONPATH=src python scripts/search_counters.py [--type4-7]

Run from the repository root.  The script wraps ``enumerate._propagate``
from outside the package.  Each call closes one node's batch of
branches, one row per candidate: every row is one propagation, and every
row its mask keeps opens one DFS node, the root included.  A call is one
kernel call, and a round is one pass of the loop in ``_propagate``,
counted by a line tracer on that function's frames alone.  The groups
are the nine that ``verify`` runs on (3,2) --pq, (3,7) and (3,19);
``--type4-7`` adds Type4 (7,2) and (7,3).  A group over the search
budget reads "gated".  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from p2qbrace import enumerate as routes
from p2qbrace.groups import make_group

LADDER = [
    ("P2Q-Type1", 3, 2), ("P2Q-Type4", 3, 2), ("PQ-Cyclic", 3, 2), ("PQ-Metacyclic", 3, 2),
    ("P2Q-Type1", 3, 7), ("P2Q-Type2", 3, 7),
    ("P2Q-Type1", 3, 19), ("P2Q-Type2", 3, 19), ("P2Q-Type3", 3, 19),
]
TYPE4_7 = [("P2Q-Type4", 7, 2), ("P2Q-Type4", 7, 3)]


def loop_body_line(fn) -> int:
    """The line number of the first statement inside ``fn``'s while loop."""
    lines, start = inspect.getsourcelines(fn)
    at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("while "))
    return start + at + 1


def counted(propagate, counts: dict):
    """``propagate`` wrapped to add its rows, surviving rows, calls and
    loop passes to ``counts``."""
    code, body = propagate.__code__, loop_body_line(propagate)

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == body:
            counts["rounds"] += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    def counting(*args):
        sys.settrace(calls)
        try:
            alive = propagate(*args)
        finally:
            sys.settrace(None)
        counts["propagations"] += alive.size
        counts["nodes"] += int(alive.sum())
        counts["calls"] += 1
        return alive

    return counting


def count(family: str, p: int, q: int) -> dict | str:
    propagate = routes._propagate
    counts = {"propagations": 0, "nodes": 0, "calls": 0, "rounds": 0}
    routes._propagate = counted(propagate, counts)
    try:
        result = routes.gfe_search(make_group(family, p, q))
    except routes.SearchTooLargeError:
        return "gated"
    finally:
        routes._propagate = propagate
    return {**counts, "tables": len(result.gammas)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--type4-7", action="store_true", help="add Type4 (7,2) and (7,3)")
    args = parser.parse_args()
    groups = LADDER + (TYPE4_7 if args.type4_7 else [])
    out: dict[str, dict | str] = {}
    total = {"propagations": 0, "nodes": 0, "calls": 0, "rounds": 0, "tables": 0}
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
