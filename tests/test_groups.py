import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from p2qbrace import arith, groups
from p2qbrace.groups import GroupElement as E
from p2qbrace.groups import aut_group, classify_iso_type, make_group, psi_for_A
from reference import (
    cayley_to_json,
    comp_by_lookup,
    elem_order,
    element_orders_by_steps,
    elements,
    homomorphism_failure,
    identity,
    inv_elem,
    iota,
    is_associative,
    mul,
    power,
    scalar_aut_perms,
    sylow_subgroups_by_elements,
)

ALL_DESK_SPECS = [
    ("P2Q-Type1", 3, 2),
    ("P2Q-Type4", 3, 2),
    ("P2Q-Type1", 3, 7),
    ("P2Q-Type2", 3, 7),
    ("P2Q-Type1", 3, 19),
    ("P2Q-Type2", 3, 19),
    ("P2Q-Type3", 3, 19),
    ("P2Q-Type1", 5, 3),
    ("P2Q-Type4", 5, 2),
    ("PQ-Cyclic", 3, 2),
    ("PQ-Metacyclic", 3, 2),
    ("PQ-Cyclic", 7, 3),
    ("PQ-Metacyclic", 7, 3),
]


def _admitted(max_order):
    """(family, p, q) of every family group of order at most max_order
    that passes the gate."""
    primes = [r for r in range(2, max_order + 1) if arith.is_prime(r)]
    specs = []
    for family in groups.FAMILIES:
        for p in primes:
            for q in primes:
                if (p * p * q if family in groups.P2Q_FAMILIES else p * q) > max_order:
                    continue
                try:
                    groups.check_aut_gate(make_group.__wrapped__(family, p, q))
                except (ValueError, groups.AutTooLargeError):
                    continue
                specs.append((family, p, q))
    return specs


ADMITTED_UP_TO_600 = _admitted(600)
# groups with their least-index greedy Aut(G) generators
GREEDY_GENERATORS = [
    ("P2Q-Type4", 7, 3, [1, 2, 42]),
    ("P2Q-Type2", 5, 11, [1, 10, 110]),
    ("P2Q-Type2", 3, 19, [1, 18, 342]),
    ("P2Q-Type3", 3, 19, [1, 18]),
    ("P2Q-Type1", 3, 7, [1, 2, 6]),
    ("PQ-Metacyclic", 13, 3, [1, 12]),
    ("P2Q-Type4", 3, 2, [1, 6]),
]
# presentations outside the families, as (name, p, q, n_mod, c_mod, t,
# |Aut|); C3 x C6 and C2 x C6 are not coprime
HAND_BUILT = [
    ("C3xC6", 3, 2, 6, 3, 1, 48),
    ("C3xS3", 3, 2, 3, 6, 2, 12),
    ("C2xC6", 2, 3, 6, 2, 1, 12),
    ("D12", 2, 3, 6, 2, 5, 12),
]


def _spec(args, make=make_group):
    """The group of a (family, p, q) or a ``HAND_BUILT`` entry."""
    if len(args) == 3:
        return make(*args)
    name, p, q, n_mod, c_mod, t, aut = args
    return groups.GroupSpec(name, p, q, n_mod=n_mod, c_mod=c_mod, t=t, aut_order=aut)


class TestConstruction:
    def test_type4_small(self):
        spec = make_group("P2Q-Type4", 3, 2)
        assert (spec.n_mod, spec.c_mod, spec.t) == (9, 2, 8)

    def test_type2_medium(self):
        spec = make_group("P2Q-Type2", 3, 7)
        assert (spec.n_mod, spec.c_mod, spec.t) == (7, 9, 2)

    def test_inapplicable_family_rejected(self):
        with pytest.raises(ValueError):
            make_group("P2Q-Type3", 3, 5)
        with pytest.raises(ValueError):
            make_group("P2Q-Type4", 3, 7)
        with pytest.raises(ValueError):
            make_group("PQ-Metacyclic", 5, 3)

    def test_even_p_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            make_group("P2Q-Type1", 2, 3)

    def test_pq_needs_larger_p(self):
        with pytest.raises(ValueError):
            make_group("PQ-Cyclic", 3, 7)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_group("Q8", 3, 2)


class TestElementArithmetic:
    def test_identity(self):
        spec = make_group("P2Q-Type2", 3, 7)
        for x in elements(spec):
            assert mul(spec, identity(spec), x) == x
            assert mul(spec, x, identity(spec)) == x

    def test_type4_normal_form_rewrite(self):
        spec = make_group("P2Q-Type4", 3, 2)
        assert mul(spec, E(1, 1), E(1, 0)) == E(0, 8)

    def test_type1_is_componentwise(self):
        spec = make_group("P2Q-Type1", 3, 7)
        for v1, u1, v2, u2 in [(0, 3, 4, 2), (8, 6, 1, 1), (5, 0, 5, 5)]:
            assert mul(spec, E(v1, u1), E(v2, u2)) == E((v1 + v2) % 9, (u1 + u2) % 7)

    def test_generator_orders_type4(self):
        spec = make_group("P2Q-Type4", 3, 2)
        assert elem_order(spec, E(1, 0)) == 2
        assert elem_order(spec, E(0, 1)) == 9

    def test_all_inverses_type4(self):
        spec = make_group("P2Q-Type4", 3, 2)
        for x in elements(spec):
            assert mul(spec, x, inv_elem(spec, x)) == identity(spec)
            assert mul(spec, inv_elem(spec, x), x) == identity(spec)

    @pytest.mark.parametrize("family,p,q", ALL_DESK_SPECS)
    def test_inverse_table_matches_the_scalar_law(self, family, p, q):
        spec = make_group(family, p, q)
        inv = spec.inv_table
        assert inv.dtype == np.int32
        assert inv.tolist() == [spec.idx(inv_elem(spec, x)) for x in elements(spec)]
        assert (spec.mul_table[np.arange(spec.n), inv] == 0).all()

    @pytest.mark.parametrize("family,p,q", ALL_DESK_SPECS)
    def test_group_axioms_exhaustive(self, family, p, q):
        spec = make_group(family, p, q)
        mt = spec.mul_table
        n = spec.n
        assert np.array_equal(mt[0], np.arange(n))
        assert np.array_equal(mt[:, 0], np.arange(n))
        assert sorted(spec.inv_table.tolist()) == list(range(n))
        for i in range(n):  # associativity, row slab at a time
            assert np.array_equal(mt[mt[i], :], mt[i][mt])


class TestAutGroup:
    @pytest.mark.parametrize(
        "family,p,q,size",
        [
            ("P2Q-Type1", 3, 7, 36),
            ("P2Q-Type2", 3, 7, 126),
            ("P2Q-Type4", 3, 2, 54),
            ("P2Q-Type3", 3, 19, 342),
            ("P2Q-Type1", 3, 2, 6),
            ("P2Q-Type4", 5, 2, 500),
            ("PQ-Cyclic", 3, 2, 2),
            ("PQ-Metacyclic", 3, 2, 6),
            ("PQ-Metacyclic", 7, 3, 42),
        ],
    )
    def test_sizes_match_closed_forms(self, family, p, q, size):
        assert aut_group(make_group(family, p, q)).size == size

    @pytest.mark.parametrize("family,p,q", ALL_DESK_SPECS)
    def test_make_group_states_the_closed_form(self, family, p, q):
        spec = make_group(family, p, q)
        assert spec.aut_order == aut_group(spec).size

    def test_a_hand_built_spec_is_checked_against_its_own_order(self):
        # C2 x C6 has 12 automorphisms; a spec that states 11 fails the search
        good = groups.GroupSpec("C2xC6", 2, 3, n_mod=6, c_mod=2, t=1, aut_order=12)
        assert aut_group(good).size == 12
        bad = groups.GroupSpec("C2xC6", 2, 3, n_mod=6, c_mod=2, t=1, aut_order=11)
        assert bad != good
        with pytest.raises(groups.AutSizeMismatchError, match="^aut-size-mismatch: .*expected 11$"):
            aut_group(bad)

    def test_composition_closure_and_inverses(self):
        ag = aut_group(make_group("P2Q-Type4", 3, 2))
        m = ag.size
        assert sorted(set(ag.comp.ravel().tolist())) == list(range(m))
        for k in range(m):
            assert ag.comp[k, ag.ainv[k]] == ag.identity_idx

    def test_every_automorphism_preserves_orders(self):
        for family, p, q in [("P2Q-Type2", 3, 7), ("P2Q-Type4", 3, 2)]:
            spec = make_group(family, p, q)
            ag = aut_group(spec)
            orders = spec.orders
            for k in range(ag.size):
                assert np.array_equal(orders[ag.aperm[k]], orders)

    def test_b_subgroup_is_characteristic(self):
        # <b> is the normal cyclic factor in every family
        for family, p, q in [
            ("P2Q-Type1", 3, 7),
            ("P2Q-Type2", 3, 7),
            ("P2Q-Type3", 3, 19),
            ("P2Q-Type4", 3, 2),
        ]:
            spec = make_group(family, p, q)
            ag = aut_group(spec)
            b_members = np.array(spec.cyclic_subgroup(spec.idx(E(0, 1))))
            assert np.isin(ag.aperm[:, b_members], b_members).all()

    def test_non_homomorphic_row_is_rejected(self):
        # swap two images of the automorphism a -> ab, b -> b: still a
        # bijection, but two automorphisms agree on a subgroup, so a
        # permutation two points away from one is no automorphism
        spec = make_group("P2Q-Type4", 3, 2)
        aperm = aut_group(spec).aperm.copy()
        row = (aperm[:, spec.idx(E(1, 0))] == spec.idx(E(1, 1))) & (
            aperm[:, spec.idx(E(0, 1))] == spec.idx(E(0, 1))
        )
        (k,) = np.flatnonzero(row)
        aperm[k, [3, 4]] = aperm[k, [4, 3]]
        assert sorted(aperm[k].tolist()) == list(range(spec.n))
        assert homomorphism_failure(spec, aperm) == (6, 3, 9)

    @pytest.mark.parametrize("args", ADMITTED_UP_TO_600 + HAND_BUILT,
                             ids=lambda args: "-".join(map(str, args)))
    def test_every_row_is_a_homomorphism(self, args):
        # von Dyck's theorem, which aut_group relies on, checked in full;
        # uncached, so the session keeps none of these tables
        spec = _spec(args, make_group.__wrapped__)
        assert homomorphism_failure(spec, aut_group.__wrapped__(spec).aperm) is None

    def test_admitted_groups_up_to_600(self):
        assert (len(ADMITTED_UP_TO_600), len(HAND_BUILT)) == (266, 4)

    @pytest.mark.parametrize("family,p,q,failure", [
        ("P2Q-Type2", 3, 7, (0, 1, 7)),
        ("PQ-Metacyclic", 7, 3, (0, 1, 7)),
        ("P2Q-Type3", 3, 19, (0, 1, 19)),
    ])
    def test_a_wrong_relation_passes_the_size_check_but_not_the_proof(
        self, family, p, q, failure
    ):
        # rows from the pairs with x^-1 y x = y^(t^2), expanded with the
        # true law: as many bijections as automorphisms, none of them one
        spec = make_group(family, p, q)
        law = {name: getattr(spec, name) for name in (
            "mul_table", "inv_table", "orders", "c_mod", "n_mod", "n")}
        planted = groups._candidate_perms(SimpleNamespace(**law, t=spec.t ** 2 % spec.n_mod))
        assert len(planted) == spec.aut_order
        assert (np.sort(planted, axis=1) == np.arange(spec.n)).all()
        assert homomorphism_failure(spec, planted) == failure

    @pytest.mark.parametrize("family,p,q,gens", GREEDY_GENERATORS)
    def test_generators_are_the_least_index_greedy_set(self, family, p, q, gens):
        # the records' orbit walk visits conjugates in this order
        assert aut_group(make_group(family, p, q)).generators() == gens

    @pytest.mark.parametrize("args", [g[:3] for g in GREEDY_GENERATORS] + HAND_BUILT,
                             ids=lambda args: "-".join(map(str, args)))
    def test_walk_matches_the_lookup_reference(self, args):
        # comp filled along the generator walk, byte for byte, and the
        # walk's picks are the greedy set of the looked-up table
        ag = aut_group(_spec(args))
        ref = comp_by_lookup(ag)
        assert ag.comp.dtype == ref.dtype and ag.comp.tobytes() == ref.tobytes()
        assert ag.generators() == groups._generating_set(ref, ag.identity_idx)

    def test_generators_generate(self):
        ag = aut_group(make_group("P2Q-Type2", 3, 7))
        gens = ag.generators()
        reached = {ag.identity_idx}
        frontier = [ag.identity_idx]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = int(ag.comp[x, g])
                    if y not in reached:
                        reached.add(y)
                        nxt.append(y)
            frontier = nxt
        assert len(reached) == ag.size

    @pytest.mark.parametrize(
        "family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7), ("PQ-Metacyclic", 7, 3)]
    )
    def test_composition_matches_permutations(self, family, p, q):
        ag = aut_group(make_group(family, p, q))
        rows = np.arange(ag.size)
        # then_j[i, j, x] = aperm[j][aperm[i]][x]
        then_j = ag.aperm[rows[None, :, None], ag.aperm[:, None, :]]
        assert np.array_equal(ag.aperm[ag.comp], then_j)

    def test_orders_match_composition_powers(self):
        ag = aut_group(make_group("P2Q-Type2", 3, 7))
        for k in range(ag.size):
            d, cur = 1, k
            while cur != ag.identity_idx:
                cur, d = int(ag.comp[cur, k]), d + 1
            assert ag.order_of(k) == d

    def test_index_of_perm_round_trip_and_rejection(self):
        spec = make_group("P2Q-Type2", 3, 7)
        ag = aut_group(spec)
        for k in range(ag.size):
            assert ag.index_of_perm(ag.aperm[k]) == k
        swapped = np.arange(spec.n)
        swapped[[1, 2]] = swapped[[2, 1]]
        with pytest.raises(KeyError):
            ag.index_of_perm(swapped)
        with pytest.raises(KeyError):
            ag.index_of_perm(np.arange(spec.n - 1))

    def test_missing_composite_is_not_closed(self):
        # Aut(G) less one non-identity element is no longer a group
        ag = aut_group(make_group("P2Q-Type4", 3, 2))
        drop = (ag.identity_idx + 1) % ag.size
        partial = groups.AutGroup(ag.spec, np.delete(ag.aperm, drop, axis=0))
        with pytest.raises(groups.AutSizeMismatchError, match="^aut-not-closed:"):
            partial.comp

    def test_missing_identity_is_not_closed(self):
        ag = aut_group(make_group("P2Q-Type4", 3, 2))
        aperm = np.delete(ag.aperm, ag.identity_idx, axis=0)
        with pytest.raises(groups.AutSizeMismatchError,
                           match=r"^aut-not-closed: the identity of P2Q-Type4 \(p=3, q=2\)"):
            groups.AutGroup(ag.spec, aperm)

    def test_table_gate_is_checked_before_search(self, monkeypatch):
        spec = make_group("P2Q-Type4", 3, 2)
        need = 4 * 54 * 54  # 4 |Aut| max(|Aut|, |G|) with |Aut| = 54, |G| = 18
        monkeypatch.setattr(groups, "AUT_TABLE_MAX_BYTES", need)
        assert aut_group.__wrapped__(spec).size == 54

        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(groups, "AUT_TABLE_MAX_BYTES", need - 1)
        monkeypatch.setattr(groups, "_candidate_perms", no_search)
        with pytest.raises(groups.AutTooLargeError, match="^aut-too-large:"):
            aut_group.__wrapped__(spec)

    @pytest.mark.parametrize(
        "family,p,q", ALL_DESK_SPECS + [("P2Q-Type4", 7, 3), ("P2Q-Type2", 5, 11)]
    )
    def test_aperm_matches_scalar_search(self, family, p, q):
        # byte for byte, row order included
        aperm = aut_group(make_group(family, p, q)).aperm
        ref = scalar_aut_perms(make_group(family, p, q))
        assert aperm.dtype == ref.dtype and aperm.shape == ref.shape
        assert aperm.tobytes() == ref.tobytes()


class TestSylowSubgroups:
    @pytest.mark.parametrize("family,p,q", [
        ("P2Q-Type1", 3, 7), ("P2Q-Type2", 3, 7), ("P2Q-Type3", 3, 19), ("P2Q-Type4", 3, 2),
        ("P2Q-Type4", 7, 3), ("P2Q-Type2", 5, 11), ("PQ-Cyclic", 7, 3), ("PQ-Metacyclic", 7, 3),
    ])
    def test_match_the_per_element_walk(self, monkeypatch, family, p, q):
        # one cyclic_subgroup call per subgroup found, none per element
        spec = make_group(family, p, q)
        orders = (p, p * p, q) if family.startswith("P2Q") else (p, q)
        for order in orders:
            want = sylow_subgroups_by_elements(spec, order)
            calls = []
            walk = groups.GroupSpec.cyclic_subgroup
            monkeypatch.setattr(groups.GroupSpec, "cyclic_subgroup",
                                lambda self, g: calls.append(g) or walk(self, g))
            assert spec.sylow_subgroups(order) == want
            monkeypatch.undo()
            assert calls == [gen for gen, _members in want]


class TestPowers:
    @pytest.mark.parametrize("family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7)])
    def test_element_powers_match_the_scalar_law(self, family, p, q):
        spec = make_group(family, p, q)
        k = spec.n + 1
        table = groups.powers(spec.mul_table, np.arange(spec.n), k, 0)
        assert table.shape == (spec.n, k)
        for x in elements(spec):
            want, acc = [], identity(spec)
            for _ in range(k):
                want.append(spec.idx(acc))
                acc = mul(spec, acc, x)
            assert table[spec.idx(x)].tolist() == want
            assert groups.powers(spec.mul_table, spec.idx(x), k, 0).tolist() == want

    def test_automorphism_powers_match_composition(self):
        ag = aut_group(make_group("P2Q-Type2", 3, 7))
        one = ag.identity_idx
        table = groups.powers(ag.comp, np.arange(ag.size), 20, one)
        for k in range(ag.size):
            want, cur = [], one
            for _ in range(20):
                want.append(cur)
                cur = int(ag.comp[cur, k])
            assert table[k].tolist() == want
            assert groups.powers(ag.comp, k, 20, one).tolist() == want

    def test_short_lengths(self):
        mt = make_group("P2Q-Type4", 3, 2).mul_table
        assert groups.powers(mt, 5, 1, 0).tolist() == [0]
        assert groups.powers(mt, 5, 0, 0).shape == (0,)
        assert groups.powers(mt, np.array([[1, 2]]), 2, 0).tolist() == [[[0, 1], [0, 2]]]


class TestElementOrders:
    """``_element_orders`` works one prime power r^a exactly dividing n at
    a time; the reference steps every power one exponent at a time."""

    LADDER = [
        ("P2Q-Type1", 3, 2), ("P2Q-Type4", 3, 2), ("PQ-Cyclic", 3, 2), ("PQ-Metacyclic", 3, 2),
        ("P2Q-Type1", 3, 7), ("P2Q-Type2", 3, 7),
        ("P2Q-Type1", 3, 19), ("P2Q-Type2", 3, 19), ("P2Q-Type3", 3, 19),
    ]

    # Type4 (7,3): |Aut| = 2,058 = 2 * 3 * 7^3, with automorphisms of order 49
    @pytest.mark.parametrize("family,p,q", LADDER + [("P2Q-Type4", 7, 3)])
    def test_group_and_automorphism_orders_match_the_reference(self, family, p, q):
        spec = make_group(family, p, q)
        ag = aut_group(spec)
        for table, ident in ((spec.mul_table, 0), (ag.comp, ag.identity_idx)):
            got = groups._element_orders(table, ident)
            assert got.dtype == np.int32
            assert np.array_equal(got, element_orders_by_steps(table, ident))

    def test_cyclic_table_of_order_2_times_997(self):
        n = 2 * 997
        table = ((np.arange(n)[:, None] + np.arange(n)) % n).astype(np.int32)
        got = groups._element_orders(table, 0)
        assert np.array_equal(got, element_orders_by_steps(table, 0))
        assert int((got == n).sum()) == 996  # the generators: phi(2 * 997)

    def test_direct_product_c9_c3_c2(self):
        # n = 54 = 2 * 3^3, with 3-parts of order 1, 3 and 9
        table = _direct_product_table([9, 3, 2])
        got = groups._element_orders(table, 0)
        assert np.array_equal(got, element_orders_by_steps(table, 0))
        assert sorted(set(got.tolist())) == [1, 2, 3, 6, 9, 18]

    def test_rows_that_do_not_close_are_rejected(self):
        # 1 * 1 = 1, so no power of 1 reaches the identity 0
        table = np.array([[0, 1], [1, 1]], dtype=np.int32)
        for orders in (groups._element_orders, element_orders_by_steps):
            with pytest.raises(ValueError, match="table rows do not close; not a group table"):
                orders(table, 0)


class TestIota:
    def test_identity_maps_to_identity_automorphism(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        assert iota(spec, identity(spec)) == ag.identity_idx

    def test_type4_conjugation_by_a(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        io = iota(spec, E(1, 0))
        assert ag.aperm[io, spec.idx(E(0, 1))] == spec.idx(E(0, 8))

    @pytest.mark.parametrize("family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type3", 3, 19)])
    def test_iota_map_matches_definition(self, family, p, q):
        spec = make_group(family, p, q)
        ag = aut_group(spec)
        mt, inv = spec.mul_table, spec.inv_table
        for g in range(spec.n):
            assert np.array_equal(ag.aperm[ag.iota_map[g]], mt[mt[inv[g]], g])

    def test_homomorphism_sample_type3(self):
        spec = make_group("P2Q-Type3", 3, 19)
        ag = aut_group(spec)
        rng = np.random.RandomState(7)
        pairs = rng.randint(0, spec.n, size=(50, 2))
        im = ag.iota_map
        for g, h in pairs:
            gh = int(spec.mul_table[g, h])
            assert int(ag.comp[im[g], im[h]]) == int(im[gh])


class TestPsi:
    def test_type4_values(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        psi = psi_for_A(spec, E(1, 0))
        assert ag.aperm[psi, spec.idx(E(0, 1))] == spec.idx(E(0, 4))
        assert ag.aperm[psi, spec.idx(E(1, 0))] == spec.idx(E(1, 0))

    def test_type4_order_p(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        assert ag.order_of(psi_for_A(spec, E(1, 0))) == 3

    def test_type4_fixes_related_sylow_complements(self):
        # psi is the identity on each subgroup <a b^(p i)>
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        psi = psi_for_A(spec, E(1, 0))
        p = spec.p
        for i in range(p):
            gen = mul(spec, E(1, 0), power(spec, E(0, 1), p * i))
            for member in spec.cyclic_subgroup(spec.idx(gen)):
                assert ag.aperm[psi, member] == member

    def test_type2_fixes_b_and_powers_every_p2_element(self):
        spec = make_group("P2Q-Type2", 3, 7)
        ag = aut_group(spec)
        psi = psi_for_A(spec, E(1, 0))
        assert ag.aperm[psi, spec.idx(E(0, 1))] == spec.idx(E(0, 1))
        for i in np.flatnonzero(spec.orders == 9).tolist():
            x = spec.el(i)
            assert ag.aperm[psi, i] == spec.idx(power(spec, x, 1 + spec.p))

    def test_wrong_generator_rejected(self):
        spec = make_group("P2Q-Type4", 3, 2)
        with pytest.raises(ValueError):
            psi_for_A(spec, E(0, 1))


class TestClassify:
    @pytest.mark.parametrize("family,p,q", ALL_DESK_SPECS)
    def test_round_trip(self, family, p, q):
        spec = make_group(family, p, q)
        res = classify_iso_type(spec.mul_table)
        assert res.iso_type == family.removeprefix("P2Q-")

    def test_type2_fingerprint(self):
        res = classify_iso_type(make_group("P2Q-Type2", 3, 7).mul_table)
        fp = res.fingerprint
        assert not fp.abelian and fp.center_size == 3 and fp.has_p2_element

    def test_type3_fingerprint(self):
        res = classify_iso_type(make_group("P2Q-Type3", 3, 19).mul_table)
        fp = res.fingerprint
        assert not fp.abelian and fp.center_size == 1 and fp.sylow_q_normal

    def test_other_bucket_for_noncyclic_sylow(self):
        table = _direct_product_table([3, 3, 2])
        res = classify_iso_type(table)
        assert res.iso_type == "Other"
        assert res.fingerprint.abelian and not res.fingerprint.has_p2_element

    def test_rejects_non_group(self):
        table = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
        with pytest.raises(ValueError):
            classify_iso_type(_pad_to_order6(table))

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            classify_iso_type(np.zeros((8, 8), dtype=int))

    def test_json_round_trip(self):
        spec = make_group("P2Q-Type4", 3, 2)
        text = cayley_to_json(spec.mul_table)
        back = groups.cayley_from_json(text)
        assert np.array_equal(back, spec.mul_table)
        assert json.loads(text)["n"] == 18

    def test_json_shape_mismatch(self):
        with pytest.raises(ValueError):
            groups.cayley_from_json('{"n": 3, "table": [[0, 1], [1, 0]]}')


# C_2^3 with one intercalate switched: a loop whose greedy generators are
# 1, 2, 4; (x y) g = x (y g) holds for all x, y at g = 1, not at 2 or 4
_LOOP_8 = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 0, 1, 6, 7, 4, 5],
    [3, 2, 1, 0, 7, 6, 5, 4],
    [4, 5, 6, 7, 1, 0, 2, 3],
    [5, 4, 7, 6, 0, 1, 3, 2],
    [6, 7, 4, 5, 2, 3, 0, 1],
    [7, 6, 5, 4, 3, 2, 1, 0],
]


@st.composite
def identity_tables(draw):
    """Order 2..8, a two-sided identity at 0 and one identity entry per row."""
    n = draw(st.integers(min_value=2, max_value=8))
    table = np.empty((n, n), dtype=np.int32)
    table[0] = table[:, 0] = np.arange(n)
    for i in range(1, n):
        row = draw(st.lists(st.integers(1, n - 1), min_size=n - 1, max_size=n - 1))
        row[draw(st.integers(0, n - 2))] = 0
        table[i, 1:] = row
    return table


class TestValidateGroupTable:
    @given(table=identity_tables())
    @example(table=make_group("PQ-Metacyclic", 3, 2).mul_table)  # S_3
    @example(table=(np.arange(8)[:, None] + np.arange(8)) % 8)  # C_8
    @example(table=np.arange(8)[:, None] ^ np.arange(8))  # C_2^3: exactly log2 8 generators
    @example(table=np.array(_LOOP_8))  # a later generator fails, the first passes
    def test_rejects_exactly_the_non_associative_tables(self, table):
        if is_associative(table):
            assert groups._validate_group_table(table) == 0
        else:
            with pytest.raises(ValueError, match="^table is not associative$"):
                groups._validate_group_table(table)

    @pytest.mark.parametrize("family,p,q", ALL_DESK_SPECS)
    def test_generating_set_stays_within_the_bound(self, family, p, q):
        spec = make_group(family, p, q)
        gens = groups._generating_set(spec.mul_table, 0)
        assert 2 ** len(gens) <= spec.n
        assert gens[0] == 1 and gens == sorted(gens)


def _direct_product_table(orders):
    sizes = list(orders)
    n = int(np.prod(sizes))
    combos = [[]]
    for m in sizes:
        combos = [c + [r] for c in combos for r in range(m)]
    index = {tuple(c): i for i, c in enumerate(combos)}
    table = np.zeros((n, n), dtype=np.int32)
    for i, x in enumerate(combos):
        for j, y in enumerate(combos):
            table[i, j] = index[tuple((a + b) % m for a, b, m in zip(x, y, sizes))]
    return table


def _pad_to_order6(t3):
    # embed a broken order-3 latin square diagonally into order 6 so the
    # order check passes and the axiom check is exercised
    table = np.zeros((6, 6), dtype=np.int32)
    table[:3, :3] = t3
    table[3:, 3:] = t3 + 3
    table[:3, 3:] = (t3 + 3).T
    table[3:, :3] = t3.T
    return table


class TestBuildPeaks:
    """Traced allocation peaks on Type1 (3,397): |G| = 3,573, |Aut| = 2,376."""

    @staticmethod
    def traced_peak(build):
        tracemalloc.start()
        try:
            out = build()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_mul_table_is_built_in_row_blocks(self):
        spec = make_group.__wrapped__("P2Q-Type1", 3, 397)
        table, peak = self.traced_peak(lambda: spec.mul_table)
        assert peak <= 1.75 * table.nbytes

    def test_comp_is_filled_in_row_blocks(self):
        spec = make_group.__wrapped__("P2Q-Type1", 3, 397)
        ag = aut_group.__wrapped__(spec)
        comp, peak = self.traced_peak(lambda: ag.comp)
        assert peak <= 1.05 * comp.nbytes

    def test_aut_group_peak_is_bounded_by_its_result(self):
        spec = make_group.__wrapped__("P2Q-Type1", 3, 397)
        spec.mul_table, spec.inv_table, spec.orders
        ag, peak = self.traced_peak(lambda: aut_group.__wrapped__(spec))
        assert peak <= 2.5 * ag.aperm.nbytes
