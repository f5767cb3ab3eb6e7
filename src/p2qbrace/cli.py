"""Batch command-line surface.

Subcommands:

    tables           print the closed-form count tables for order p^2 q
    enumerate        enumerate the skew braces on one group, as JSON lines
    verify           run the full cross-validation for one (p, q)
    pq               print the closed-form tables for order pq
    classify-cayley  name the isomorphism class of a Cayley table

Exit codes: 0 success, 1 verification failure or a defect in a record, a
branch count or Aut(G), 2 invalid input, 3 resource gate hit.  All output
is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import counts, holomorph
from . import enumerate as routes
from .brace import GfeError
from .groups import (
    AutSizeMismatchError,
    AutTooLargeError,
    aut_group,
    cayley_from_json,
    check_aut_gate,
    classify_iso_type,
    make_group,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE_GATE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2qbrace",
        description="skew braces and Hopf-Galois structure counts for orders p^2 q and pq",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="closed-form count tables for order p^2 q")
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--q", type=int, required=True)
    t.add_argument("--format", choices=("csv", "json"), default="csv")

    e = sub.add_parser("enumerate", help="enumerate skew braces on one group")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--q", type=int, required=True)
    e.add_argument("--type", type=int, required=True, choices=(1, 2, 3, 4),
                   help="group family of order p^2 q")
    e.add_argument("--method", choices=("structured", "search", "oracle"),
                   default="structured")
    e.add_argument("--oracle-limit", type=int, default=holomorph.DEFAULT_MAX_HOL_ORDER,
                   help="holomorph size bound for --method oracle")
    e.add_argument("--out", type=Path, default=None,
                   help="write JSON lines here instead of stdout")

    v = sub.add_parser("verify", help="cross-validate every route against the tables")
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--q", type=int, required=True)
    v.add_argument("--oracle-limit", type=int, default=holomorph.DEFAULT_MAX_HOL_ORDER)
    v.add_argument("--pq", action="store_true",
                   help="also verify the order-pq groups for the same primes")

    pq = sub.add_parser("pq", help="closed-form count tables for order pq (p > q)")
    pq.add_argument("--p", type=int, required=True)
    pq.add_argument("--q", type=int, required=True)
    pq.add_argument("--format", choices=("csv", "json"), default="csv")

    c = sub.add_parser("classify-cayley", help="classify a Cayley table from JSON")
    c.add_argument("--in", dest="infile", type=Path, required=True)
    return parser


def _cmd_tables(args) -> int:
    """``tables`` and ``pq``: the closed-form counts of order p^2 q or pq."""
    build = counts.count_table if args.command == "tables" else counts.pq_tables
    table = build(args.p, args.q)
    if args.format == "csv":
        sys.stdout.write(counts.table_csv(table))
    else:
        sys.stdout.write(counts.table_json(table) + "\n")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    spec = make_group(f"P2Q-Type{args.type}", args.p, args.q)
    if args.method == "structured":
        result = routes.structured_enumerate(spec)
    elif args.method == "search":
        result = routes.gfe_search(spec)
    else:
        result = routes.closure_oracle(spec, max_hol_order=args.oracle_limit)
    routes.aut_orbits(result)  # every record is checked before a line is written
    with args.out.open("w") if args.out is not None else contextlib.nullcontext(sys.stdout) as out:
        out.writelines(result.jsonl_blocks())
    if args.out is not None:
        sys.stdout.write(json.dumps(result.summary_dict()) + "\n")
    return EXIT_OK


def _cmd_classify(args) -> int:
    table = cayley_from_json(args.infile.read_text())
    result = classify_iso_type(table)
    if result.iso_type == "Other":
        sys.stdout.write("Other " + json.dumps(dataclasses.asdict(result.fingerprint)) + "\n")
    else:
        sys.stdout.write(result.iso_type + "\n")
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def _check(name: str, ok: bool, detail=None) -> dict:
    return {"name": name, "status": "pass" if ok else "fail",
            **({"detail": detail} if detail is not None else {})}


def _orbits_vs_classes(result: routes.EnumerationResult, rows) -> tuple[bool, dict]:
    """Compare orbits with class-table ``rows``: (circle type, classes) pairs."""
    got = result.orbit_groups()
    want: dict[tuple[str, int], int] = {}
    for label, classes in rows:
        for count, length in classes:
            if count:
                want[(label, length)] = want.get((label, length), 0) + count
    return got == want, {
        "got": {f"{k[0]}@{k[1]}": v for k, v in sorted(got.items())},
        "want": {f"{k[0]}@{k[1]}": v for k, v in sorted(want.items())},
    }


def _group_checks(spec, g, table: counts.CountTable, prefix: str, circle: str,
                  count_name: str, oracle_limit: int) -> list[dict]:
    """The checks of one group, column ``g`` of ``table``, in route order.

    The first route that ran is the base: its counts and its orbits are
    checked against the table, under the circle-type labels
    ``circle.format(gt)``.  Each later route is compared with it as a set
    of gamma tables and then freed; a gated route is skipped.
    """
    checks = []
    type_of = {circle.format(gt): gt for gt in table.types}
    for method, result, base in routes.run_routes(spec, oracle_limit):
        name = f"{prefix}/{method}-agrees"
        if isinstance(result, Exception):
            checks.append({"name": name, "status": "skipped", "reason": str(result)})
        elif result is base:
            got = {type_of.get(c, c): n for c, n in base.counts_by_type().items()}
            want = {gt: table.e_prime_at(gt, g) for gt in table.types
                    if table.e_prime_at(gt, g)}
            checks.append(_check(f"{prefix}/{count_name}", got == want,
                                 {"got": got, "want": want}))
        else:
            # the detail names each route by the last word of its method
            checks.append(_check(name, np.array_equal(result.gammas, base.gammas), {
                base.method.split("-")[-1]: len(base.gammas),
                method.split("-")[-1]: len(result.gammas)}))
        del result
    if base is None:  # every route was gated
        return checks
    name = f"{prefix}/orbits-vs-class-table"
    try:
        routes.aut_orbits(base)
    except routes.MethodDisagreementError as exc:
        checks.append(_check(name, False, str(exc)))
    else:
        checks.append(_check(name, *_orbits_vs_classes(
            base, ((circle.format(gt), table.classes_at(gt, g)) for gt in table.types))))
    return checks


def verify_run(p: int, q: int, oracle_limit: int = holomorph.DEFAULT_MAX_HOL_ORDER,
               with_pq: bool = False) -> dict:
    """The full cross-validation; returns the machine-readable report.

    The plan holds the groups of order p^2 q and, with ``with_pq``, those
    of order pq; every group gets the same checks (``_group_checks``).
    The two orders differ only in their table and labels: check prefix,
    family name, circle type and the name of the count check.  The
    scaling identity and the row totals of the p^2 q table follow its
    groups.  Any count or set disagreement fails the run; resource-gate
    skips of the search and the oracle are recorded but do not fail it.
    """
    table = counts.count_table(p, q)
    # (table, check prefix, family name, circle type, count check) per order
    orders = [(table, "type{}", "P2Q-Type{}", "Type{}", "structured-vs-e-prime")]
    if with_pq:  # pq_tables rejects p <= q before any route runs
        orders.append((counts.pq_tables(p, q), "pq/{}", "{}", "{}", "counts-vs-e-prime"))
    plan = [(make_group(family.format(g), p, q), g, tbl, prefix.format(g), circle, count_name)
            for tbl, prefix, family, circle, count_name in orders for g in tbl.types]
    for spec, *_ in plan:
        check_aut_gate(spec)  # before any route runs
    sections = [_group_checks(*group, oracle_limit) for group in plan]
    n = len(table.types)  # the p^2 q groups lead the plan
    aut_sizes = {g: aut_group(spec).size for spec, g, *_ in plan[:n]}
    scaling_ok = all(table.e_at(gt, g) * aut_sizes[g] == aut_sizes[gt] * table.e_prime_at(gt, g)
                     for gt in table.types for g in table.types)
    totals_ok = all(table.total_for(gt) == sum(table.e_at(gt, g) for g in table.types)
                    for gt in table.types)
    table_checks = [_check("scaling-identity-computed-aut", scaling_ok, {"aut_sizes": aut_sizes}),
                    _check("totals-row-sums", totals_ok)]
    checks = [c for part in [*sections[:n], table_checks, *sections[n:]] for c in part]
    return {"p": p, "q": q, "profile": table.header["profile"], "checks": checks,
            "ok": all(c["status"] != "fail" for c in checks)}


def _cmd_verify(args) -> int:
    report = verify_run(args.p, args.q, oracle_limit=args.oracle_limit,
                        with_pq=args.pq)
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "tables": _cmd_tables,
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
        "pq": _cmd_tables,
        "classify-cayley": _cmd_classify,
    }[args.command]
    try:
        if getattr(args, "oracle_limit", 0) < 0:
            raise ValueError(f"--oracle-limit must be at least 0, got {args.oracle_limit}")
        return handler(args)
    except (AutTooLargeError, holomorph.OracleTooLargeError,
            routes.SearchTooLargeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE_GATE
    except (GfeError, routes.MethodDisagreementError, routes.StructuredCountMismatchError,
            AutSizeMismatchError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERIFY_FAILED
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
