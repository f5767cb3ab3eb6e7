"""Acceptance suite: every criterion exercised at its stated tolerance.

Each test prints one PASS line on success; all comparisons are exact.
The expensive closure oracle for the order-63 metacyclic group runs
behind the ``slow`` marker; everything else is in the fast path.
"""

from collections import Counter

import pytest

from conftest import enumerate_cached
from p2qbrace import brace, counts, holomorph
from p2qbrace import enumerate as routes
from p2qbrace.brace import (
    check_gfe,
    circle_table,
    dual_gamma,
    rgf_from_generator,
    verify_brace_axiom,
)
from p2qbrace.groups import GroupElement as E
from p2qbrace.groups import aut_group, make_group
from reference import circle_inverse, totals

PROPERTY_SUITE_GROUPS = [
    ("P2Q-Type1", 3, 2),
    ("P2Q-Type4", 3, 2),
    ("P2Q-Type1", 5, 3),
    ("P2Q-Type1", 3, 7),
    ("P2Q-Type2", 3, 7),
    ("P2Q-Type1", 3, 19),
    ("P2Q-Type2", 3, 19),
    ("P2Q-Type3", 3, 19),
]

TYPE_NUM = {"Type1": 1, "Type2": 2, "Type3": 3, "Type4": 4}


def counts_as_types(result):
    return {TYPE_NUM[k]: v for k, v in result.counts_by_type().items()}


def orbit_shape(result):
    return Counter((o.circle_type, o.length) for o in result.orbits)


def test_criterion_1_pq_suite():
    for p, q in [(3, 2), (5, 2), (7, 3)]:
        table = counts.pq_tables(p, q)
        results = routes.pq_enumerate(p, q)
        assert set(results) == {"PQ-Cyclic", "PQ-Metacyclic"}
        for family, result in results.items():
            got = result.counts_by_type()
            want = {
                gt: table.e_prime_at(gt, family)
                for gt in ("PQ-Cyclic", "PQ-Metacyclic")
                if table.e_prime_at(gt, family)
            }
            assert got == want, (p, q, family, got, want)
            want_orbits = Counter()
            for gt in ("PQ-Cyclic", "PQ-Metacyclic"):
                for count, length in table.classes_at(gt, family):
                    want_orbits[(gt, length)] += count
            assert orbit_shape(result) == want_orbits, (p, q, family)
    print("\nACCEPTANCE 1 (pq suite, both routes vs published tables): PASS")


def test_criterion_2_small_full_oracle_suite():
    cases = [
        ("P2Q-Type1", 3, 2, {1: 3, 4: 1}, {}),
        ("P2Q-Type4", 3, 2, {1: 54, 4: 2}, {}),
        ("P2Q-Type1", 5, 3, {1: 5}, {"max_hol_order": 3000}),
    ]
    for family, p, q, want, oracle_kw in cases:
        base = enumerate_cached(family, p, q, "structured")
        searched = enumerate_cached(family, p, q, "search")
        oracle = enumerate_cached(family, p, q, "oracle", **oracle_kw)
        assert base.keys() == searched.keys() == oracle.keys(), (family, p, q)
        assert counts_as_types(base) == want, (family, p, q)
    print("\nACCEPTANCE 2 (three routes agree set-wise on (3,2) and (5,3)): PASS")


def test_criterion_3_medium_suite_fast_path():
    sub_table = {
        ("P2Q-Type1", 1): 3, ("P2Q-Type1", 2): 6,
        ("P2Q-Type2", 1): 42, ("P2Q-Type2", 2): 48,
    }
    for family in ("P2Q-Type1", "P2Q-Type2"):
        base = enumerate_cached(family, 3, 7, "structured")
        searched = enumerate_cached(family, 3, 7, "search")
        assert base.keys() == searched.keys()
        got = counts_as_types(base)
        assert got == {gt: sub_table[(family, gt)] for gt in (1, 2)}, (family, got)
    oracle = enumerate_cached("P2Q-Type1", 3, 7, "oracle", max_hol_order=2300)
    assert oracle.keys() == enumerate_cached("P2Q-Type1", 3, 7, "structured").keys()
    print("\nACCEPTANCE 3 (structured vs search on (3,7), cyclic-case oracle): PASS")


@pytest.mark.slow
def test_criterion_3_medium_suite_slow_oracle():
    oracle = enumerate_cached("P2Q-Type2", 3, 7, "oracle", max_hol_order=8000)
    base = enumerate_cached("P2Q-Type2", 3, 7, "structured")
    assert oracle.keys() == base.keys()
    assert counts_as_types(oracle) == {1: 42, 2: 48}
    print("\nACCEPTANCE 3 slow gate (order-63 metacyclic closure oracle): PASS")


def test_criterion_4_square_division_suite():
    table = counts.count_table(3, 19)
    for g_type, family in [(1, "P2Q-Type1"), (2, "P2Q-Type2"), (3, "P2Q-Type3")]:
        base = enumerate_cached(family, 3, 19, "structured")
        searched = enumerate_cached(family, 3, 19, "search")
        assert base.keys() == searched.keys(), family
        got = counts_as_types(base)
        want = {gt: table.e_prime_at(gt, g_type) for gt in (1, 2, 3)}
        assert got == want, (family, got, want)
        want_orbits = Counter()
        for gt in (1, 2, 3):
            for count, length in table.classes_at(gt, g_type):
                want_orbits[(f"Type{gt}", length)] += count
        assert orbit_shape(base) == want_orbits, family
    # spot values called out by the criterion
    assert table.e_prime_at(3, 3) == 192
    assert table.e_prime_at(3, 1) == 18
    assert table.classes_at(3, 3) == ((2, 1), (10, 19))
    # the closure oracle is out of range here and must say so
    with pytest.raises(holomorph.OracleTooLargeError):
        routes.closure_oracle(make_group("P2Q-Type3", 3, 19))
    print("\nACCEPTANCE 4 (full 3x3 table and orbit partition at (3,19)): PASS")


def test_criterion_5_scaling_identity_with_computed_aut_sizes():
    for p, q in [(3, 2), (5, 3), (3, 7), (3, 19)]:
        table = counts.count_table(p, q)
        computed = {
            gt: aut_group(make_group(f"P2Q-Type{gt}", p, q)).size
            for gt in table.types
        }
        for gt in table.types:
            for g in table.types:
                assert (
                    table.e_at(gt, g) * computed[g]
                    == computed[gt] * table.e_prime_at(gt, g)
                ), (p, q, gt, g)
    print("\nACCEPTANCE 5 (scaling identity against computed Aut sizes): PASS")


# -- criterion 6: property suites over every enumerated brace -----------------


def _every_enumerated_brace():
    for family, p, q in PROPERTY_SUITE_GROUPS:
        yield enumerate_cached(family, p, q, "structured")


def _dichotomy_subgroup(spec):
    """The designated cyclic subgroup for the kernel dichotomy."""
    if spec.family in ("P2Q-Type2", "P2Q-Type3"):
        return spec.cyclic_subgroup(spec.idx(E(0, 1)))
    if spec.family == "P2Q-Type4":
        return spec.cyclic_subgroup(spec.idx(E(0, spec.p)))
    return None


def test_criterion_6a_gfe_everywhere():
    total = 0
    for result in _every_enumerated_brace():
        for rec in result.braces:
            assert check_gfe(rec.gamma)
            total += 1
    print(f"\nACCEPTANCE 6a (functional equation on all {total} braces): PASS")


def test_criterion_6a_kernel_follows_from_gfe():
    # record building leaves this to the functional equation; the
    # reference check confirms it on every brace
    for result in _every_enumerated_brace():
        for rec in result.braces:
            brace._check_kernel(rec.gamma, circle_table(rec.gamma), brace.kernel(rec.gamma))
    print("\nACCEPTANCE 6a (kernel a subgroup of (G, *), normal in (G, o)): PASS")


def test_criterion_6b_brace_axiom_everywhere():
    for result in _every_enumerated_brace():
        exhaustive = result.spec.n <= 63
        for rec in result.braces:
            verify_brace_axiom(rec.gamma, exhaustive=exhaustive)
    print("\nACCEPTANCE 6b (two-operation compatibility law): PASS")


def test_criterion_6c_duality_involution_and_kernel_dichotomy():
    for result in _every_enumerated_brace():
        spec = result.spec
        keys = result.keys()
        C = _dichotomy_subgroup(spec)
        ag = aut_group(spec)
        for rec in result.braces:
            dual = dual_gamma(rec.gamma)
            assert dual.key in keys
            assert dual_gamma(dual).table == rec.gamma.table
            if C is not None:
                in_ker = all(rec.gamma.table[x] == ag.identity_idx for x in C)
                in_dual_ker = all(dual.table[x] == ag.identity_idx for x in C)
                assert in_ker != in_dual_ker, (spec.family, rec.gamma.key)
    print("\nACCEPTANCE 6c (duality involution, kernel dichotomy): PASS")


def test_criterion_6d_sylow_type_invariance():
    for result in _every_enumerated_brace():
        for rec in result.braces:
            assert rec.circle_type in ("Type1", "Type2", "Type3", "Type4")
    # the pq enumerations stay inside the two pq classes as well
    for family, res in routes.pq_enumerate(3, 2).items():
        for rec in res.braces:
            assert rec.circle_type in ("PQ-Cyclic", "PQ-Metacyclic")
    print("\nACCEPTANCE 6d (circle type never leaves the cyclic-Sylow families): PASS")


def test_criterion_6e_closed_form_circle_inverse():
    for result in _every_enumerated_brace():
        spec = result.spec
        for rec in result.braces:
            circ = circle_table(rec.gamma)
            for x in range(spec.n):
                z = circle_inverse(rec.gamma, spec.el(x))
                assert circ[spec.idx(z), x] == spec.identity_idx
    print("\nACCEPTANCE 6e (closed-form circle inverse matches tables): PASS")


def _brute_force_rgf_count(spec, a_gen, eta_idx, node_budget=2_000_000):
    """Independent oracle: count all maps <a> -> Aut(G) with the given
    generator image that satisfy the functional equation on <a>.

    Plain depth-first assignment with pairwise checks; no use of the
    partial-sum construction it is testing.
    """
    ag = aut_group(spec)
    mt = spec.mul_table
    members = list(spec.cyclic_subgroup(spec.idx(a_gen)))
    member_set = set(members)
    vals = {spec.identity_idx: ag.identity_idx, spec.idx(a_gen): eta_idx}
    free = [x for x in members if x not in vals]
    nodes = 0

    def ok_against(x, assigned):
        for g, h in [(x, y) for y in assigned] + [(y, x) for y in assigned]:
            tgt = int(mt[ag.aperm[vals[h], g], h])
            if tgt not in member_set:
                return False
            if tgt in vals and vals[tgt] != int(ag.comp[vals[g], vals[h]]):
                return False
        return True

    def full_check():
        for g in members:
            for h in members:
                tgt = int(mt[ag.aperm[vals[h], g], h])
                if tgt not in member_set or vals[tgt] != int(ag.comp[vals[g], vals[h]]):
                    return False
        return True

    def dfs(i):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise RuntimeError("uniqueness oracle exceeded its node budget")
        if i == len(free):
            return 1 if full_check() else 0
        x = free[i]
        hits = 0
        assigned = [y for y in members if y in vals]
        for c in range(ag.size):
            vals[x] = c
            if ok_against(x, assigned):
                hits += dfs(i + 1)
            del vals[x]
        return hits

    return dfs(0)


def test_criterion_6f_generator_image_uniqueness_exhaustive():
    spec = make_group("P2Q-Type1", 3, 2)
    ag = aut_group(spec)
    admissible = [k for k in range(ag.size) if 9 % ag.order_of(k) == 0]
    assert len(admissible) == 3  # identity plus the two order-3 twists
    for eta in admissible:
        assert _brute_force_rgf_count(spec, E(1, 0), eta) == 1
        built = rgf_from_generator(spec, E(1, 0), eta)
        assert built.values[spec.idx(E(1, 0))] == eta
    print("\nACCEPTANCE 6f (generator image determines the map, exhaustively): PASS")


def test_criterion_6g_sylow_q_image_is_left_or_right():
    for family, p, q in [("P2Q-Type2", 3, 7), ("P2Q-Type2", 3, 19), ("P2Q-Type3", 3, 19)]:
        result = enumerate_cached(family, p, q, "structured")
        spec = result.spec
        ag = aut_group(spec)
        B = spec.cyclic_subgroup(spec.idx(E(0, 1)))
        inv = spec.inv_table
        for rec in result.braces:
            trivial = all(rec.gamma.table[x] == ag.identity_idx for x in B)
            inner_inverse = all(
                rec.gamma.table[x] == int(ag.iota_map[inv[x]]) for x in B
            )
            assert trivial or inner_inverse, (family, rec.gamma.key)
    print("\nACCEPTANCE 6g (normal Sylow image is a one-bit choice): PASS")


def test_criterion_7_corollary_totals():
    spot = {
        (5, 3, 1): 5,
        (3, 7, 1): 15,
        (3, 7, 2): 69,
        (3, 2, 1): 9,
        (3, 2, 4): 11,
        (3, 19, 1): 27,
        (3, 19, 2): 405,
        (3, 19, 3): 477,
    }
    for p, q in [(3, 2), (5, 3), (3, 7), (3, 19)]:
        table = counts.count_table(p, q)
        for gt in table.types:
            row_sum = sum(table.e_at(gt, g) for g in table.types)
            assert totals(p, q, gt) == row_sum, (p, q, gt)
            if (p, q, gt) in spot:
                assert row_sum == spot[(p, q, gt)], (p, q, gt, row_sum)
    print("\nACCEPTANCE 7 (closed-form totals equal table row sums): PASS")
