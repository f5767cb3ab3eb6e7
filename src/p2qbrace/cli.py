"""Batch command-line surface.

Subcommands:

    tables           print the closed-form count tables for order p^2 q
    enumerate        enumerate the skew braces on one group, as JSON lines
    verify           run the full cross-validation for one (p, q)
    pq               print the closed-form tables for order pq
    classify-cayley  name the isomorphism class of a Cayley table

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 resource gate hit.  All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import arith, counts, holomorph
from . import enumerate as routes
from .groups import (
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
    table = counts.count_table(args.p, args.q)
    if args.format == "csv":
        sys.stdout.write(counts.table_csv(table))
    else:
        sys.stdout.write(counts.table_json(table) + "\n")
    return EXIT_OK


def _cmd_pq(args) -> int:
    table = counts.pq_tables(args.p, args.q)
    if args.format == "csv":
        sys.stdout.write(counts.pq_table_csv(table))
    else:
        sys.stdout.write(counts.pq_table_json(table) + "\n")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    spec = make_group(f"P2Q-Type{args.type}", args.p, args.q)
    if args.method == "structured":
        result = routes.structured_enumerate(spec)
    elif args.method == "search":
        result = routes.gfe_search(spec)
    else:
        result = routes.closure_oracle(spec, max_hol_order=args.oracle_limit)
    routes.aut_orbits(result)
    payload = result.to_jsonl()
    if args.out is not None:
        args.out.write_text(payload)
        sys.stdout.write(json.dumps(result.summary_dict()) + "\n")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _cmd_classify(args) -> int:
    table = cayley_from_json(args.infile.read_text())
    result = classify_iso_type(table)
    if result.iso_type == "Other":
        sys.stdout.write("Other " + json.dumps(result.fingerprint.as_dict()) + "\n")
    else:
        sys.stdout.write(result.iso_type + "\n")
    return EXIT_OK


# -- verify -------------------------------------------------------------------


_TYPE_OF_CIRCLE = {"Type1": 1, "Type2": 2, "Type3": 3, "Type4": 4}


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


def verify_run(p: int, q: int, oracle_limit: int = holomorph.DEFAULT_MAX_HOL_ORDER,
               with_pq: bool = False) -> dict:
    """The full cross-validation; returns the machine-readable report.

    Any count or set disagreement fails the run; resource-gate skips of
    the two search routes are recorded but do not fail it.
    """
    if with_pq and p <= q:
        raise ValueError(f"--pq needs p > q, got ({p}, {q})")
    profile = arith.divisibility_profile(p, q)
    table = counts.count_table(p, q)
    checks: list[dict] = []

    def check(name: str, ok: bool, detail=None) -> None:
        checks.append({"name": name, "status": "pass" if ok else "fail",
                       **({"detail": detail} if detail is not None else {})})

    def skip(name: str, reason: str) -> None:
        checks.append({"name": name, "status": "skipped", "reason": reason})

    specs = {g_type: make_group(f"P2Q-Type{g_type}", p, q) for g_type in profile.g_types}
    for spec in specs.values():
        check_aut_gate(spec)  # before any route runs
    computed_aut_sizes: dict[int, int] = {}
    for g_type, spec in specs.items():
        computed_aut_sizes[g_type] = aut_group(spec).size
        base = routes.structured_enumerate(spec)
        got = {_TYPE_OF_CIRCLE[k]: v for k, v in base.counts_by_type().items()}
        want = {gt: table.e_prime_at(gt, g_type) for gt in profile.g_types
                if table.e_prime_at(gt, g_type)}
        check(f"type{g_type}/structured-vs-e-prime", got == want,
              {"got": got, "want": want})

        try:
            searched = routes.gfe_search(spec)
        except routes.SearchTooLargeError as exc:
            skip(f"type{g_type}/gfe-search-agrees", str(exc))
        else:
            check(f"type{g_type}/gfe-search-agrees", searched.keys() == base.keys(),
                  {"structured": len(base.gammas), "search": len(searched.gammas)})

        try:
            oracle = routes.closure_oracle(spec, max_hol_order=oracle_limit)
        except holomorph.OracleTooLargeError as exc:
            skip(f"type{g_type}/closure-oracle-agrees", str(exc))
        else:
            check(f"type{g_type}/closure-oracle-agrees", oracle.keys() == base.keys(),
                  {"structured": len(base.gammas), "oracle": len(oracle.gammas)})

        try:
            routes.aut_orbits(base)
        except routes.MethodDisagreementError as exc:
            check(f"type{g_type}/orbits-vs-class-table", False, str(exc))
            continue
        check(f"type{g_type}/orbits-vs-class-table", *_orbits_vs_classes(
            base, ((f"Type{gt}", table.classes_at(gt, g_type)) for gt in profile.g_types)))

    scaling_ok = all(
        table.e_at(gt, g) * computed_aut_sizes[g]
        == computed_aut_sizes[gt] * table.e_prime_at(gt, g)
        for gt in profile.g_types
        for g in profile.g_types
    )
    check("scaling-identity-computed-aut", scaling_ok,
          {"aut_sizes": computed_aut_sizes})
    totals_ok = all(
        table.total_for(gt) == sum(table.e_at(gt, g) for g in profile.g_types)
        for gt in profile.g_types
    )
    check("totals-row-sums", totals_ok)

    if with_pq:
        pq_table = counts.pq_tables(p, q)
        results = {}
        try:
            results = routes.pq_enumerate(p, q, max_hol_order=oracle_limit)
        except (holomorph.OracleTooLargeError, routes.SearchTooLargeError) as exc:
            skip("pq/enumeration", str(exc))
        except routes.MethodDisagreementError as exc:
            check("pq/enumeration", False, str(exc))
        for family, result in results.items():
            got = result.counts_by_type()
            expected = {
                gt: pq_table.e_prime_at(gt, family)
                for gt in counts.PQ_TYPES
                if pq_table.e_prime_at(gt, family)
            }
            check(f"pq/{family}/counts-vs-e-prime", got == expected,
                  {"got": got, "want": expected})
            check(f"pq/{family}/orbits-vs-class-table", *_orbits_vs_classes(
                result, ((gt, pq_table.classes_at(gt, family)) for gt in counts.PQ_TYPES)))

    ok = all(c["status"] != "fail" for c in checks)
    return {
        "p": p,
        "q": q,
        "profile": {
            "p_vs_q1": profile.p_vs_q1,
            "q_divides_p1": profile.q_divides_p1,
            "g_types": list(profile.g_types),
        },
        "checks": checks,
        "ok": ok,
    }


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
        "pq": _cmd_pq,
        "classify-cayley": _cmd_classify,
    }[args.command]
    try:
        return handler(args)
    except (AutTooLargeError, holomorph.OracleTooLargeError,
            routes.SearchTooLargeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE_GATE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
