import json

import numpy as np
import pytest

from p2qbrace import groups
from p2qbrace.groups import GroupElement as E
from p2qbrace.groups import aut_group, classify_iso_type, iota, make_group, psi_for_A

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
        for x in spec.elements():
            assert spec.mul(spec.identity, x) == x
            assert spec.mul(x, spec.identity) == x

    def test_type4_normal_form_rewrite(self):
        spec = make_group("P2Q-Type4", 3, 2)
        assert spec.mul(E(1, 1), E(1, 0)) == E(0, 8)

    def test_type1_is_componentwise(self):
        spec = make_group("P2Q-Type1", 3, 7)
        for v1, u1, v2, u2 in [(0, 3, 4, 2), (8, 6, 1, 1), (5, 0, 5, 5)]:
            assert spec.mul(E(v1, u1), E(v2, u2)) == E((v1 + v2) % 9, (u1 + u2) % 7)

    def test_generator_orders_type4(self):
        spec = make_group("P2Q-Type4", 3, 2)
        assert spec.elem_order(E(1, 0)) == 2
        assert spec.elem_order(E(0, 1)) == 9

    def test_all_inverses_type4(self):
        spec = make_group("P2Q-Type4", 3, 2)
        for x in spec.elements():
            assert spec.mul(x, spec.inv_elem(x)) == spec.identity
            assert spec.mul(spec.inv_elem(x), x) == spec.identity

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

    def test_non_homomorphic_row_is_rejected(self, monkeypatch):
        # swap two images of the automorphism a -> ab, b -> b: still a
        # bijection, but two automorphisms agree on a subgroup, so a
        # permutation two points away from one is no automorphism
        build = groups._build_perm

        def tampered(spec, img_a, img_b):
            perm = build(spec, img_a, img_b)
            if (img_a, img_b) == (E(1, 1), E(0, 1)):
                perm[[3, 4]] = perm[[4, 3]]
            return perm

        monkeypatch.setattr(groups, "_build_perm", tampered)
        with pytest.raises(groups.AutSizeMismatchError, match="^aut-not-homomorphism:"):
            aut_group.__wrapped__(make_group("P2Q-Type4", 3, 2))

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
        partial = groups.AutGroup(ag.spec, [a for k, a in enumerate(ag.auts) if k != drop])
        with pytest.raises(groups.AutSizeMismatchError, match="^aut-not-closed:"):
            partial.comp

    def test_table_gate_is_checked_before_search(self, monkeypatch):
        spec = make_group("P2Q-Type4", 3, 2)
        need = 4 * 54 * 54  # 4 |Aut| max(|Aut|, |G|) with |Aut| = 54, |G| = 18
        monkeypatch.setattr(groups, "AUT_TABLE_MAX_BYTES", need)
        assert aut_group.__wrapped__(spec).size == 54

        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(groups, "AUT_TABLE_MAX_BYTES", need - 1)
        monkeypatch.setattr(groups, "_build_perm", no_search)
        with pytest.raises(groups.AutTooLargeError, match="^aut-too-large:"):
            aut_group.__wrapped__(spec)


class TestIota:
    def test_identity_maps_to_identity_automorphism(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        assert ag.index_of(iota(spec, spec.identity)) == ag.identity_idx

    def test_type4_conjugation_by_a(self):
        spec = make_group("P2Q-Type4", 3, 2)
        io = iota(spec, E(1, 0))
        assert io.perm[spec.idx(E(0, 1))] == spec.idx(E(0, 8))

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
        psi = psi_for_A(spec, E(1, 0))
        assert psi.perm[spec.idx(E(0, 1))] == spec.idx(E(0, 4))
        assert psi.perm[spec.idx(E(1, 0))] == spec.idx(E(1, 0))

    def test_type4_order_p(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        assert ag.order_of(ag.index_of(psi_for_A(spec, E(1, 0)))) == 3

    def test_type4_fixes_related_sylow_complements(self):
        # psi is the identity on each subgroup <a b^(p i)>
        spec = make_group("P2Q-Type4", 3, 2)
        psi = psi_for_A(spec, E(1, 0))
        p = spec.p
        for i in range(p):
            gen = spec.mul(E(1, 0), spec.power(E(0, 1), p * i))
            for member in spec.cyclic_subgroup(spec.idx(gen)):
                assert psi.perm[member] == member

    def test_type2_fixes_b_and_powers_every_p2_element(self):
        spec = make_group("P2Q-Type2", 3, 7)
        psi = psi_for_A(spec, E(1, 0))
        assert psi.perm[spec.idx(E(0, 1))] == spec.idx(E(0, 1))
        for i in spec.elements_of_order(9):
            x = spec.el(i)
            assert psi.perm[i] == spec.idx(spec.power(x, 1 + spec.p))

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
        text = groups.cayley_to_json(spec.mul_table)
        back = groups.cayley_from_json(text)
        assert np.array_equal(back, spec.mul_table)
        assert json.loads(text)["n"] == 18

    def test_json_shape_mismatch(self):
        with pytest.raises(ValueError):
            groups.cayley_from_json('{"n": 3, "table": [[0, 1], [1, 0]]}')


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
