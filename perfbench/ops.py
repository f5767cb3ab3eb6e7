"""Workload definitions, cold-cache operations and their output checks.

A workload is a fixed list of operations.  Each operation is one CLI-sized
call into p2qbrace, given only the inputs a user would type:
``(family, p, q, method, gate)``.  The workload seed permutes the order
of the operations within a pass and nothing else.

Every operation starts cold: the ``make_group``, ``aut_group`` and
``holo`` caches are emptied first, because every CLI invocation pays for
Aut(G), the composition table and the holomorph masks.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from p2qbrace import arith, cli, groups, holomorph  # noqa: E402
from p2qbrace import enumerate as routes  # noqa: E402

CACHED = (groups.make_group, groups.aut_group, holomorph.holo)
DEFAULT_GATE = holomorph.DEFAULT_MAX_HOL_ORDER


@dataclass(frozen=True)
class Op:
    """One operation: ``verify`` on (p, q), or ``enumerate`` on one group."""

    op_id: str
    method: str  # "verify", "structured" or "oracle"
    p: int
    q: int
    family: str | None = None  # None for verify
    gate: int = DEFAULT_GATE   # --oracle-limit
    pq: bool = False           # verify --pq
    why: str = ""


WORKLOADS: dict[str, list[Op]] = {
    # The command users actually run, and the only workload where the
    # search does real work.  Records are built once per route.
    "verify-ladder": [
        Op("verify-3-2-pq", "verify", 3, 2, pq=True,
           why="all four routes on the smallest groups, order pq included"),
        Op("verify-3-7", "verify", 3, 7,
           why="search on Type2 (3,7); the oracle is gated away"),
        Op("verify-3-19", "verify", 3, 19,
           why="largest search in reach (Type3 (3,19)) and 918 structured Type2 records"),
    ],
    # Builds the largest composition tables; search and oracle never run.
    "structured-wide": [
        Op("structured-type4-7-3", "structured", 7, 3, family="P2Q-Type4",
           why="largest |Aut| in reach (2,058): the dense composition table dominates"),
        Op("structured-type2-5-11", "structured", 5, 11, family="P2Q-Type2",
           why="largest |G| in reach (275): record building dominates"),
    ],
    # Small Aut(G), but Holomorph.mul reads the composition table millions
    # of times: the heaviest reader of the groups layer.
    "oracle-closure": [
        Op("oracle-pqmeta-13-3", "oracle", 13, 3, family="PQ-Metacyclic", gate=10_000,
           why="most closure attempts in reach (153,648) with |Aut| = 156"),
        Op("oracle-type1-3-7", "oracle", 3, 7, family="P2Q-Type1", gate=10_000,
           why="order p^2 q closure with the gate raised past |Hol| = 2,268"),
        Op("oracle-type4-3-2", "oracle", 3, 2, family="P2Q-Type4",
           why="the default gate, as `enumerate --method oracle` runs it"),
    ],
}


def operations(workload: str, seed: int) -> list[Op]:
    """The workload's operations in the order the seed gives."""
    ops = list(WORKLOADS[workload])
    random.Random(seed).shuffle(ops)
    return ops


def specs_of(op: Op) -> list[groups.GroupSpec]:
    """Every group the operation builds, in the order the program builds them."""
    if op.method != "verify":
        return [groups.make_group(op.family, op.p, op.q)]
    specs = [groups.make_group(f"P2Q-Type{t}", op.p, op.q)
             for t in arith.divisibility_profile(op.p, op.q).g_types]
    if op.pq:
        families = ["PQ-Cyclic"] + (["PQ-Metacyclic"] if (op.p - 1) % op.q == 0 else [])
        specs += [groups.make_group(f, op.p, op.q) for f in families]
    return specs


def oracle_visits(op: Op, spec: groups.GroupSpec) -> bool:
    """Whether the operation runs the closure oracle on this group."""
    if op.method == "structured":
        return False
    return holomorph.holo(spec).size <= op.gate


def clear_caches() -> None:
    """Empty the program's group caches and check that they are empty."""
    for fn in CACHED:
        fn.cache_clear()
    gc.collect()
    for fn in CACHED:
        if fn.cache_info().currsize != 0:
            raise RuntimeError(f"{fn.__qualname__} cache is not empty before an operation")


@dataclass
class Outcome:
    op_id: str
    seconds: float
    gammas: int                 # gamma tables returned by all routes
    digest: str | None = None   # sha256 of the JSONL bytes (enumerate ops)
    checks: list | None = None  # [(name, status)] (verify ops)
    ok: bool | None = None      # the verify report's "ok"
    jsonl_bytes: int = 0


def run_op(op: Op, tracer=None) -> Outcome:
    """Run one operation cold and time it; ``tracer`` adds layer spans."""
    clear_caches()
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    t0 = time.perf_counter()
    with span("op." + op.method):
        if tracer is not None:
            tracer.touch_layers(op)
        if op.method == "verify":
            with span("cli.verify_run"):
                report = cli.verify_run(op.p, op.q, oracle_limit=op.gate, with_pq=op.pq)
        else:
            spec = groups.make_group(op.family, op.p, op.q)
            if op.method == "structured":
                result = routes.structured_enumerate(spec)
            else:
                result = routes.closure_oracle(spec, max_hol_order=op.gate)
            routes.aut_orbits(result)
            with span("enumerate.to_jsonl"):
                payload = result.to_jsonl().encode()
    seconds = time.perf_counter() - t0
    if op.method == "verify":
        return Outcome(op.op_id, seconds, verify_gammas(report),
                       checks=[[c["name"], c["status"]] for c in report["checks"]],
                       ok=report["ok"])
    return Outcome(op.op_id, seconds, len(result.braces),
                   digest=hashlib.sha256(payload).hexdigest(),
                   jsonl_bytes=len(payload))


def verify_gammas(report: dict) -> int:
    """Gamma tables returned by the top-level routes of one verify run.

    Read off the report: the structured count per group, the search and
    oracle counts where they ran, and the order-pq enumeration counts.
    """
    total = 0
    for check in report["checks"]:
        if check["status"] == "skipped":
            continue
        name, detail = check["name"], check.get("detail") or {}
        if name.endswith("/structured-vs-e-prime") or name.endswith("/counts-vs-e-prime"):
            total += sum(detail["got"].values())
        elif name.endswith("/gfe-search-agrees"):
            total += detail["search"]
        elif name.endswith("/closure-oracle-agrees"):
            total += detail["oracle"]
    return total


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def check_outcome(out: Outcome, expected: dict) -> list[str]:
    """Reasons the operation's output is wrong; empty when it is right.

    Enumerate output must match the pinned sha256 byte for byte.  A
    verify report must say ``ok``, and every pinned check must still be
    present: a ``pass`` must stay ``pass``; a ``skipped`` may become
    ``pass`` but not ``fail``.
    """
    want = expected.get(out.op_id)
    if want is None:
        return [f"{out.op_id}: no pinned output"]
    errors = []
    if "sha256" in want:
        if out.digest != want["sha256"]:
            errors.append(f"{out.op_id}: JSONL sha256 {out.digest} != pinned {want['sha256']}")
        return errors
    if out.ok is not True:
        errors.append(f"{out.op_id}: verify report is not ok")
    got = dict(out.checks or [])
    for name, status in want["checks"].items():
        allowed = ("pass",) if status == "pass" else ("pass", "skipped")
        if got.get(name) not in allowed:
            errors.append(f"{out.op_id}: check {name} is {got.get(name)}, pinned {status}")
    return errors
