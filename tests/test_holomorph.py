import numpy as np
import pytest

from p2qbrace import enumerate as routes
from p2qbrace import groups, holomorph
from p2qbrace.enumerate import gfe_search
from p2qbrace.groups import GroupElement as E
from p2qbrace.groups import GroupSpec, aut_group, classify_iso_type, make_group
from p2qbrace.holomorph import closure_search_regular, holo
from reference import (
    HolElement,
    act,
    brute_force_regular,
    conjugate_by_inv,
    elements,
    flatten,
    identity,
    inv,
    inv_elem,
    is_regular,
    lambda_rep,
    mul,
    rho,
    scalar_semiregular,
    subgroup_view,
    unflatten,
)


def abstract_type_of(spec, members):
    """Isomorphism class of a regular subgroup, read off its own action."""
    H = holo(spec)
    flat = {m.g: flatten(H, m) for m in members}
    n = spec.n
    table = np.empty((n, n), dtype=np.int32)
    for x in range(n):
        kx = flat[x]
        for y in range(n):
            table[x, y] = H.mul(kx, flat[y]) % n
    return classify_iso_type(table).iso_type


class TestHolStructure:
    def test_size(self):
        spec = make_group("P2Q-Type4", 3, 2)
        assert holo(spec).size == aut_group(spec).size * spec.n

    def test_product_law_associative_exhaustive_small(self):
        spec = make_group("P2Q-Type1", 3, 2)  # |Hol| = 108, all 108^3 triples
        H = holo(spec)
        ks = np.arange(H.size)
        A, B, C = np.meshgrid(ks, ks, ks, indexing="ij")
        assert np.array_equal(H.mul(H.mul(A, B), C), H.mul(A, H.mul(B, C)))

    def test_product_law_associative_sampled_medium(self):
        spec = make_group("P2Q-Type4", 3, 2)  # |Hol| = 972
        H = holo(spec)
        rng = np.random.RandomState(3)
        a, b, c = (rng.randint(0, H.size, 50) for _ in range(3))
        A, B, C = np.meshgrid(a, b, c, indexing="ij")
        assert np.array_equal(H.mul(H.mul(A, B), C), H.mul(A, H.mul(B, C)))

    def test_inverses(self):
        spec = make_group("P2Q-Type4", 3, 2)
        H = holo(spec)
        ks = np.arange(H.size)
        assert (H.mul(ks, inv(H, ks)) == H.identity).all()

    def test_action_is_permutation(self):
        spec = make_group("P2Q-Type2", 3, 7)
        H = holo(spec)
        xs = np.arange(spec.n)
        for k in (0, 17, H.size - 1):
            assert sorted(act(H, k, xs).tolist()) == list(range(spec.n))


class TestRhoLambda:
    def test_rho_identity(self):
        spec = make_group("P2Q-Type4", 3, 2)
        H = holo(spec)
        assert flatten(H, rho(spec, identity(spec))) == H.identity

    def test_rho_equals_lambda_on_abelian(self):
        spec = make_group("P2Q-Type1", 3, 7)
        for g in elements(spec):
            assert rho(spec, g) == lambda_rep(spec, g)

    def test_lambda_left_translation_type4(self):
        spec = make_group("P2Q-Type4", 3, 2)
        H = holo(spec)
        b = E(0, 1)
        k = flatten(H, lambda_rep(spec, b))
        for x in range(spec.n):
            assert act(H, k, x) == spec.mul_table[spec.idx(b), x]

    def test_rho_is_homomorphism(self):
        spec = make_group("PQ-Metacyclic", 3, 2)
        H = holo(spec)
        for g in elements(spec):
            for h in elements(spec):
                lhs = H.mul(flatten(H, rho(spec, g)), flatten(H, rho(spec, h)))
                assert lhs == flatten(H, rho(spec, mul(spec, g, h)))


class TestConjugateByInv:
    def test_sends_rho_to_left_translations(self):
        spec = make_group("P2Q-Type4", 3, 2)
        H = holo(spec)
        for g in elements(spec):
            image = conjugate_by_inv(spec, rho(spec, g))
            k = flatten(H, image)
            ginv = inv_elem(spec, g)
            for x in range(spec.n):
                assert act(H, k, x) == spec.mul_table[spec.idx(ginv), x]

    def test_involution(self):
        spec = make_group("P2Q-Type2", 3, 7)
        H = holo(spec)
        rng = np.random.RandomState(5)
        for k in rng.randint(0, H.size, 25):
            h = unflatten(H, k)
            assert conjugate_by_inv(spec, conjugate_by_inv(spec, h)) == h

    def test_preserves_regularity(self):
        spec = make_group("P2Q-Type4", 3, 2)
        subs = [subgroup_view(spec, flat) for flat in closure_search_regular(spec)]
        keys = {key for _members, key in subs}
        for members, _key in subs:
            image = frozenset(conjugate_by_inv(spec, m) for m in members)
            assert is_regular(spec, image)
            assert tuple(sorted((m.alpha, m.g) for m in image)) in keys


class TestIsRegular:
    def test_rho_image_is_regular(self):
        spec = make_group("P2Q-Type1", 3, 7)
        assert is_regular(spec, [rho(spec, g) for g in elements(spec)])

    def test_point_stabilizer_is_not(self):
        spec = make_group("P2Q-Type1", 3, 2)
        ag = aut_group(spec)
        members = [HolElement(k, spec.identity_idx) for k in range(ag.size)]
        assert not is_regular(spec, members)

    def test_wrong_size_is_not(self):
        spec = make_group("P2Q-Type1", 3, 2)
        assert not is_regular(spec, [rho(spec, g) for g in elements(spec)[:5]])


class TestClosureSearch:
    def test_cyclic_pq_holomorph(self):
        spec = make_group("PQ-Cyclic", 3, 2)
        subs = [subgroup_view(spec, flat)[0] for flat in closure_search_regular(spec)]
        assert len(subs) == 2
        types = sorted(abstract_type_of(spec, members) for members in subs)
        assert types == ["PQ-Cyclic", "PQ-Metacyclic"]

    def test_metacyclic_pq_holomorph(self):
        spec = make_group("PQ-Metacyclic", 3, 2)
        subs = [subgroup_view(spec, flat)[0] for flat in closure_search_regular(spec)]
        assert len(subs) == 8
        types = [abstract_type_of(spec, members) for members in subs]
        assert types.count("PQ-Cyclic") == 6
        assert types.count("PQ-Metacyclic") == 2

    def test_cyclic_p2q_holomorph(self):
        spec = make_group("P2Q-Type1", 3, 2)
        subs = [subgroup_view(spec, flat)[0] for flat in closure_search_regular(spec)]
        assert len(subs) == 4
        types = [abstract_type_of(spec, members) for members in subs]
        assert types.count("Type1") == 3 and types.count("Type4") == 1

    def test_all_candidates_regular_with_stable_keys(self):
        spec = make_group("PQ-Metacyclic", 7, 3)
        subs = [subgroup_view(spec, flat) for flat in closure_search_regular(spec)]
        assert len(subs) == 30
        for members, key in subs:
            assert is_regular(spec, members)
            assert key == tuple(sorted((m.alpha, m.g) for m in members))

    def test_size_gate(self):
        spec = make_group("P2Q-Type2", 3, 7)  # |Hol| = 7938
        with pytest.raises(holomorph.OracleTooLargeError):
            closure_search_regular(spec)

    @pytest.mark.parametrize("family,p,q", [
        ("P2Q-Type1", 3, 2), ("PQ-Metacyclic", 7, 3), ("P2Q-Type2", 3, 7),
    ])
    def test_fixed_point_free_mask(self, family, p, q):
        spec = make_group(family, p, q)
        H = holo(spec)
        mask = H.fixed_point_free_mask
        xs = np.arange(spec.n)
        for k in range(H.size):
            assert mask[k] == bool((act(H, k, xs) != xs).all())


class TestSemiregularMask:
    """The closure search's filter: the orders of the k with every power but
    1 fixed-point-free, 0 for the other k."""

    @pytest.mark.parametrize("family,p,q", [
        ("P2Q-Type4", 3, 2), ("PQ-Metacyclic", 7, 3), ("PQ-Cyclic", 7, 3), ("P2Q-Type1", 3, 2),
    ])
    def test_matches_scalar_power_walk(self, family, p, q):
        H = holo(make_group(family, p, q))
        assert np.array_equal(H.semiregular_orders, scalar_semiregular(H))

    @pytest.mark.parametrize("family,p,q", [("P2Q-Type4", 3, 2), ("PQ-Metacyclic", 7, 3)])
    def test_invariant_under_every_automorphism(self, family, p, q):
        H = holo(make_group(family, p, q))
        orders = H.semiregular_orders
        images = H.conjugate_by_aut(np.arange(H.size), np.arange(H.aut.size)[:, None])
        assert (orders[images] == orders).all()

    @pytest.mark.parametrize("family,p,q", [
        ("P2Q-Type4", 3, 2), ("PQ-Metacyclic", 7, 3), ("P2Q-Type1", 3, 2), ("PQ-Cyclic", 7, 3),
    ])
    def test_every_regular_subgroup_lies_in_it(self, family, p, q):
        """Soundness of the filter: the search route's regular subgroups,
        {(gamma(g), g)}, found without the holomorph, and the oracle's."""
        spec = make_group(family, p, q)
        mask = holo(spec).semiregular_orders > 0
        searched = {tuple(sorted(a * spec.n + g for g, a in enumerate(table)))
                    for table in gfe_search(spec).gammas.tolist()}
        assert all(mask[list(members)].all() for members in searched)
        assert {tuple(flat.tolist()) for flat in closure_search_regular(spec)} == searched


class TestElementarySylow:
    """Groups outside the families, of order p^2 q with an elementary
    abelian Sylow p-subgroup, where some regular subgroups of Hol(G) have
    one too: C3 x C6 and C3 x S3 each have one that no generator pair
    reaches, and on C2 x C6 a second generator inside a found subgroup
    still starts a new one with a third generator."""

    @pytest.mark.parametrize("name,p,q,n_mod,c_mod,t,aut,tables", [
        ("C3xC6", 3, 2, 6, 3, 1, 48, 46),
        ("C3xS3", 3, 2, 3, 6, 2, 12, 32),
        ("C2xC6", 2, 3, 6, 2, 1, 12, 12),
    ])
    def test_oracle_equals_search(self, name, p, q, n_mod, c_mod, t, aut, tables):
        # a hand-built spec states its own |Aut|
        spec = GroupSpec(name, p, q, n_mod=n_mod, c_mod=c_mod, t=t, aut_order=aut)
        searched = routes.gfe_search(spec).gammas
        assert len(searched) == tables
        assert np.array_equal(routes.closure_oracle(spec).gammas, searched)

    def test_one_name_two_presentations(self):
        # C2 x C6 and D12 under one family name are two groups, each with
        # its own cached Aut(G)
        c2c6 = GroupSpec("one-name", 2, 3, n_mod=6, c_mod=2, t=1, aut_order=12)
        d12 = GroupSpec("one-name", 2, 3, n_mod=6, c_mod=2, t=5, aut_order=12)
        assert len(routes.gfe_search(c2c6).gammas) == 12
        searched = routes.gfe_search(d12).gammas
        assert len(searched) == 28
        assert np.array_equal(routes.closure_oracle(d12).gammas, searched)
        assert c2c6 != d12 and groups.aut_group(d12) is not groups.aut_group(c2c6)


class TestClosurePruning:
    """The orbit and coverage pruning keep every regular subgroup."""

    @pytest.mark.parametrize("family,p,q", [
        ("PQ-Metacyclic", 3, 2), ("P2Q-Type1", 3, 2), ("PQ-Cyclic", 7, 3),
    ])
    def test_same_subgroups_as_every_pair_closed(self, family, p, q):
        spec = make_group(family, p, q)
        keys = {subgroup_view(spec, flat)[1] for flat in closure_search_regular(spec)}
        assert keys == brute_force_regular(spec)

    @pytest.mark.parametrize("family,p,q,attempts", [
        ("P2Q-Type4", 3, 2, 34), ("PQ-Metacyclic", 7, 3, 60),
    ], ids=["P2Q-Type4-3-2", "PQ-Metacyclic-7-3"])  # ids that outlive a re-pin
    def test_attempt_counts(self, monkeypatch, family, p, q, attempts):
        calls = []
        closure = holomorph._closure_within

        def counting(*args):
            calls.append(args)
            return closure(*args)

        monkeypatch.setattr(holomorph, "_closure_within", counting)
        closure_search_regular(make_group(family, p, q))
        assert len(calls) == attempts

    def test_stabiliser_of_each_first_generator(self):
        spec = make_group("P2Q-Type4", 3, 2)
        H = holo(spec)
        betas = range(H.aut.size)
        fpf = np.flatnonzero(H.fixed_point_free_mask)
        reps = holomorph._orbit_reps(H, fpf, betas)
        orbits = {frozenset(int(H.conjugate_by_aut(k, b)) for b in betas) for k in fpf}
        assert sorted(reps.tolist()) == sorted(min(orbit) for orbit in orbits)
        for r in reps.tolist():
            want = [b for b in betas if H.conjugate_by_aut(r, b) == r]
            assert H.stabiliser(r).tolist() == want
