"""Closed-form count tables for skew braces and Hopf-Galois structures.

For groups Gamma, G of order p^2 q with cyclic Sylow p-subgroups the
tables give

    e_prime(Gamma, G)   regular subgroups of Hol(G) isomorphic to Gamma
                        (equivalently skew braces (G, *, o) with circle
                        group Gamma),
    e(Gamma, G)         Hopf-Galois structures of type G on a Galois
                        extension with group Gamma,
    classes(Gamma, G)   conjugacy-class structure as (count, length)
                        pairs,
    totals(Gamma)       sum of e(Gamma, G) over all G.

The two numbers scale into each other through automorphism group sizes:
e = |Aut(Gamma)| / |Aut(G)| * e_prime, entrywise.  Cells whose types do
not exist for the given (p, q), and any type with non-cyclic Sylow
p-subgroup, count zero.  Everything is evaluated fresh from the
formulas; there is no lookup data to drift out of date.

``pq_tables`` gives Byott's order-pq analogues as the same ``CountTable``,
labelled by family name and without totals, so one pair of renderers
prints either order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import DivisibilityProfile, divisibility_profile, is_prime


@dataclass(frozen=True)
class CountTable:
    """Counts keyed by (circle type, group type) for one order.

    ``types`` labels the rows and columns in print order: the family
    numbers for p^2 q, the family names for pq.  ``header`` holds the
    fields the JSON rendering prints between ``q`` and the rows, and
    ``totals`` the row totals, which only order p^2 q publishes.
    """

    p: int
    q: int
    types: tuple
    header: dict[str, object]
    e_prime: dict[tuple, int]
    e: dict[tuple, int]
    classes: dict[tuple, tuple[tuple[int, int], ...]]
    totals: dict[int, int] = field(default_factory=dict)

    def e_prime_at(self, gamma_type, g_type) -> int:
        return self.e_prime.get((gamma_type, g_type), 0)

    def e_at(self, gamma_type, g_type) -> int:
        return self.e.get((gamma_type, g_type), 0)

    def classes_at(self, gamma_type, g_type) -> tuple[tuple[int, int], ...]:
        return self.classes.get((gamma_type, g_type), ())

    def total_for(self, gamma_type: int) -> int:
        return self.totals.get(gamma_type, 0)


def _e_prime_cell(p: int, q: int, gamma_type: int, g_type: int) -> int:
    if g_type == 1:
        return {1: p, 2: p * (p - 1), 3: p * p * (p - 1), 4: q - 1}[gamma_type]
    if g_type == 2:
        return {1: 2 * p * q,
                2: 2 * p * (p * q - 2 * q + 1),
                3: 2 * p * p * q * (p - 1)}[gamma_type]
    if g_type == 3:
        return {1: 2 * q,
                2: 2 * q * (p - 1),
                3: 2 * (p * p * q - p * q - q + 1)}[gamma_type]
    return {1: 2 * p ** 3, 4: 2 * (p * p * q - 2 * p * p + 1)}[gamma_type]


def _e_cell(p: int, q: int, gamma_type: int, g_type: int) -> int:
    if g_type == 1:
        return {1: p, 2: p * q, 3: p * q, 4: p * p}[gamma_type]
    if g_type == 2:
        return {1: 2 * p * (p - 1),
                2: 2 * p * (p * q - 2 * q + 1),
                3: 2 * p * q * (p - 1)}[gamma_type]
    if g_type == 3:
        return {1: 2 * p * (p - 1),
                2: 2 * p * q * (p - 1),
                3: 2 * (p * p * q - p * q - q + 1)}[gamma_type]
    return {1: 2 * p * (q - 1), 4: 2 * (p * p * q - 2 * p * p + 1)}[gamma_type]


def _class_cell(p: int, q: int, gamma_type: int, g_type: int) -> tuple[tuple[int, int], ...]:
    """(class count, class length) pairs, sorted by length.

    Zero-count entries (possible at small primes, e.g. q = 2) are
    dropped.
    """
    if g_type == 1:
        pairs = {
            1: ((1, 1), (1, p - 1)),
            2: ((p, p - 1),),
            3: ((p, p * (p - 1)),),
            4: ((1, q - 1),),
        }[gamma_type]
    elif g_type == 2:
        pairs = {
            1: ((2 * p, q),),
            2: ((2 * p, 1), (2 * p * (p - 2), q)),
            3: ((2 * p * (p - 1), p * q),),
        }[gamma_type]
    elif g_type == 3:
        pairs = {
            1: ((2, q),),
            2: ((2 * (p - 1), q),),
            3: ((2, 1), (2 * (p * p - p - 1), q)),
        }[gamma_type]
    else:
        pairs = {
            1: ((2, p * p), (2, p * p * (p - 1))),
            4: ((2, 1), (2 * (q - 2), p * p)),
        }[gamma_type]
    return tuple((c, l) for c, l in pairs if c)


def _total_cell(p: int, q: int, gamma_type: int, profile: DivisibilityProfile) -> int:
    if gamma_type == 1:
        if profile.q_divides_p1:
            return p * (2 * q - 1)
        return {"none": p, "exact": p * (2 * p - 1), "square": p * (4 * p - 3)}[profile.p_vs_q1]
    if gamma_type == 2:
        return {"exact": p * (2 * p * q - 3 * q + 2),
                "square": p * (4 * p * q - 5 * q + 2)}[profile.p_vs_q1]
    if gamma_type == 3:
        return 4 * p * p * q - 3 * p * q - 2 * q + 2
    return 2 * p * p * q - 3 * p * p + 2


def count_table(p: int, q: int) -> CountTable:
    """All published counts for order p^2 q at the given primes."""
    profile = divisibility_profile(p, q)
    types = profile.g_types
    e_prime = {}
    e = {}
    classes = {}
    for gt in types:
        for g in types:
            e_prime[(gt, g)] = _e_prime_cell(p, q, gt, g)
            e[(gt, g)] = _e_cell(p, q, gt, g)
            classes[(gt, g)] = _class_cell(p, q, gt, g)
    totals = {gt: _total_cell(p, q, gt, profile) for gt in types}
    header = {"profile": {"p_vs_q1": profile.p_vs_q1,
                          "q_divides_p1": profile.q_divides_p1,
                          "g_types": list(types)}}
    return CountTable(p=p, q=q, types=types, header=header, e_prime=e_prime, e=e,
                      classes=classes, totals=totals)


# -- the order pq analogue ----------------------------------------------------

PQ_TYPES = ("PQ-Cyclic", "PQ-Metacyclic")


def pq_tables(p: int, q: int) -> CountTable:
    """Counts for the two groups of order pq, with p > q."""
    if not (is_prime(p) and is_prime(q)):
        raise ValueError(f"p={p}, q={q} must both be prime")
    if p <= q:
        raise ValueError(f"need p > q, got ({p}, {q})")
    C, M = PQ_TYPES
    meta = (p - 1) % q == 0
    e_prime = {(C, C): 1}
    e = {(C, C): 1}
    classes = {(C, C): ((1, 1),)}
    if meta:
        e_prime.update({(C, M): 2 * p, (M, C): q - 1, (M, M): 2 * (p * q - 2 * p + 1)})
        e.update({(C, M): 2 * (q - 1), (M, C): p, (M, M): 2 * (p * q - 2 * p + 1)})
        classes.update({
            (C, M): ((2, p),),
            (M, C): ((1, q - 1),),
            (M, M): tuple(x for x in ((2, 1), (2 * (q - 2), p)) if x[0]),
        })
    return CountTable(p=p, q=q, types=PQ_TYPES if meta else PQ_TYPES[:1],
                      header={"metacyclic_exists": meta},
                      e_prime=e_prime, e=e, classes=classes)


# -- renderings ---------------------------------------------------------------

CSV_HEADER = "gamma_type,g_type,e_prime,e,classes"


def _classes_str(pairs: tuple[tuple[int, int], ...]) -> str:
    return ";".join(f"{c}x{l}" for c, l in pairs)


def table_csv(table: CountTable) -> str:
    """Fixed-header CSV of the per-pair counts, then the totals block if any."""
    lines = [CSV_HEADER]
    for gt in table.types:
        for g in table.types:
            lines.append(
                f"{gt},{g},{table.e_prime_at(gt, g)},{table.e_at(gt, g)},"
                f"{_classes_str(table.classes_at(gt, g))}"
            )
    if table.totals:
        lines.append("")
        lines.append("gamma_type,total")
        for gt in table.types:
            lines.append(f"{gt},{table.total_for(gt)}")
    return "\n".join(lines) + "\n"


def table_json(table: CountTable) -> str:
    import json

    rows = []
    for gt in table.types:
        for g in table.types:
            rows.append({
                "gamma_type": gt,
                "g_type": g,
                "e_prime": table.e_prime_at(gt, g),
                "e": table.e_at(gt, g),
                "classes": [f"{c}x{l}" for c, l in table.classes_at(gt, g)],
            })
    out = {"p": table.p, "q": table.q, **table.header, "table": rows}
    if table.totals:
        out["totals"] = {str(gt): table.total_for(gt) for gt in table.types}
    return json.dumps(out, indent=2)
