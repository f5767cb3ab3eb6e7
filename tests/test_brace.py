import tracemalloc

import numpy as np
import pytest

from p2qbrace import brace
from p2qbrace.brace import (
    GammaFunction,
    brace_from_gamma,
    check_gfe,
    circle_table,
    conjugate_gamma,
    dual_gamma,
    find_gfe_violation,
    gamma_from_regular,
    identity_gamma,
    lift_rgf,
    rgf_from_generator,
)
from p2qbrace.groups import GroupElement as E
from p2qbrace.groups import aut_group, classify_iso_type, make_group
from p2qbrace.holomorph import holo
from reference import (
    all_pairs_classify,
    check_rgf_gfe,
    circle,
    circle_inverse,
    conjugate_by_inv,
    elements,
    es,
    flatten,
    identity,
    inversion_gamma,
    is_morphism,
    is_regular,
    lambda_rep,
    mul,
    nu_subgroup,
    power,
    rgf_by_partial_sums,
    rgf_is_morphism,
    rho,
    scalar_lift,
)


def iota_idx(spec, el):
    return int(aut_group(spec).iota_map[spec.idx(el)])


def aut_power(spec, k, e):
    ag = aut_group(spec)
    acc = ag.identity_idx
    for _ in range(e):
        acc = int(ag.comp[acc, k])
    return acc


class TestGfe:
    def test_identity_gamma(self):
        assert check_gfe(identity_gamma(make_group("P2Q-Type2", 3, 7)))

    def test_inversion_gamma_gives_opposite_group(self):
        spec = make_group("P2Q-Type4", 3, 2)
        gm = inversion_gamma(spec)
        assert check_gfe(gm)
        assert np.array_equal(circle_table(gm), spec.mul_table.T)

    def test_perturbed_table_fails_with_witness(self):
        spec = make_group("P2Q-Type2", 3, 7)
        gm = inversion_gamma(spec)
        bad = list(gm.table)
        bad[5] = (bad[5] + 1) % aut_group(spec).size
        witness = find_gfe_violation(GammaFunction(spec, tuple(bad)))
        assert witness is not None
        g, h = witness
        assert 0 <= g < spec.n and 0 <= h < spec.n


class TestCircle:
    def test_identity_gamma_circle_is_mul(self):
        spec = make_group("P2Q-Type4", 3, 2)
        gm = identity_gamma(spec)
        for x in elements(spec)[:6]:
            for y in elements(spec)[:6]:
                assert circle(gm, x, y) == mul(spec, x, y)

    def test_circle_inverse_identity(self):
        gm = identity_gamma(make_group("P2Q-Type1", 3, 7))
        spec = gm.spec
        assert circle_inverse(gm, identity(spec)) == identity(spec)

    def test_closed_form_inverse_matches_table(self, enum_cache):
        result = enum_cache("P2Q-Type4", 3, 2)
        spec = result.spec
        for rec in result.braces:
            circ = circle_table(rec.gamma)
            for x in range(spec.n):
                z = circle_inverse(rec.gamma, spec.el(x))
                assert circ[spec.idx(z), x] == spec.identity_idx


# the structured groups of the verify ladder
LADDER = [("P2Q-Type4", 3, 2), ("P2Q-Type1", 3, 7), ("P2Q-Type2", 3, 7),
          ("P2Q-Type2", 3, 19), ("P2Q-Type3", 3, 19)]


class TestGeneratorCheck:
    """Records check and classify (G, o) on its generators only; the
    references read every pair of the full circle table."""

    @pytest.mark.parametrize("family,p,q", LADDER)
    def test_type_and_fingerprint_match_the_all_pairs_reference(
            self, enum_cache, family, p, q):
        # every table, so inherited types are compared as well
        for rec in enum_cache(family, p, q).braces:
            want = all_pairs_classify(circle_table(rec.gamma))
            assert rec.circle_type == want.iso_type
            assert classify_iso_type(brace.CircleLaw(rec.gamma)) == want

    @pytest.mark.parametrize("family,p,q", LADDER)
    def test_corrupted_tables_fail_with_the_full_scans_pair(
            self, enum_cache, family, p, q):
        result = enum_cache(family, p, q)
        spec = result.spec
        m = aut_group(spec).size
        tables = sorted(result.gammas)
        rs = np.random.RandomState(spec.n)
        rejected = 0
        for i in range(150):
            table = np.array(tables[rs.randint(len(tables))])
            if i % 3 == 0:  # a few entries changed, the identity's included
                cells = rs.randint(0, spec.n, 1 + i % 4)
                table[cells] = rs.randint(0, m, cells.size)
            elif i % 3 == 1:  # two entries swapped
                x, y = rs.randint(0, spec.n, 2)
                table[[x, y]] = table[[y, x]]
            else:  # the head of one valid table on the tail of another
                cut = rs.randint(1, spec.n)
                table[cut:] = tables[rs.randint(len(tables))][cut:]
            gm = GammaFunction(spec, tuple(table.tolist()))
            violation = find_gfe_violation(gm)
            if violation is None:
                assert brace_from_gamma(gm).circle_type
                continue
            with pytest.raises(brace.GfeError) as err:
                brace_from_gamma(gm)
            assert str(err.value) == f"gamma functional equation fails at pair {violation}"
            rejected += 1
        assert rejected >= 100

    def test_a_law_walked_past_the_generator_bound_fails_with_the_full_scans_pair(self):
        # gamma(1) = 1 and inversion elsewhere on C_6: the greedy walk of
        # its law needs more than floor(log2 6) picks
        spec = make_group("PQ-Cyclic", 3, 2)
        ag = aut_group(spec)
        alpha = 1 - ag.identity_idx
        gm = GammaFunction(spec, (ag.identity_idx,) + (alpha,) * (spec.n - 1))
        with pytest.raises(ValueError, match="^table is not associative$"):
            brace.CircleLaw(gm).generators
        violation = find_gfe_violation(gm)
        assert violation is not None
        with pytest.raises(brace.GfeError) as err:
            brace_from_gamma(gm)
        assert str(err.value) == f"gamma functional equation fails at pair {violation}"

    def test_records_allocate_no_circle_table(self, enum_cache):
        result = enum_cache("P2Q-Type1", 31, 2)
        n = result.spec.n
        leaders = {}
        for rec in result.braces:  # also builds every table a record reads
            leaders.setdefault(rec.orbit_id, rec.gamma)
        for gm in leaders.values():
            tracemalloc.start()
            try:
                brace_from_gamma(gm)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * n * n


class TestBraceRecords:
    def test_identity_gamma_record(self):
        spec = make_group("P2Q-Type2", 3, 7)
        rec = brace_from_gamma(identity_gamma(spec))
        assert rec.circle_type == "Type2"
        assert brace.kernel(rec.gamma) == frozenset(range(spec.n))

    def test_type4_inverse_inner_twist_gives_cyclic(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        eta = int(ag.ainv[iota_idx(spec, E(1, 0))])
        rgf = rgf_from_generator(spec, E(1, 0), eta)
        gm = lift_rgf(spec, rgf, spec.cyclic_subgroup(spec.idx(E(0, 1))))
        rec = brace_from_gamma(gm)
        assert rec.circle_type == "Type1"
        assert set(spec.cyclic_subgroup(spec.idx(E(0, 1)))) <= brace.kernel(rec.gamma)

    def test_type3_unit_twist_gives_cyclic(self):
        spec = make_group("P2Q-Type3", 3, 19)
        ag = aut_group(spec)
        eta = int(ag.ainv[iota_idx(spec, E(1, 0))])  # iota(a^-1)
        rgf = rgf_from_generator(spec, E(1, 0), eta)
        gm = lift_rgf(spec, rgf, spec.cyclic_subgroup(spec.idx(E(0, 1))))
        assert brace_from_gamma(gm).circle_type == "Type1"

    def test_gfe_violation_is_rejected(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        alpha = (ag.identity_idx + 1) % ag.size
        gm = GammaFunction(spec, (alpha,) * spec.n)  # alpha alpha != alpha
        assert find_gfe_violation(gm) is not None
        with pytest.raises(brace.GfeError):
            brace_from_gamma(gm)

    def test_records_do_not_check_the_kernel(self, monkeypatch):
        def no_check(*args):
            raise AssertionError("the kernel was checked")

        monkeypatch.setattr(brace, "_check_kernel", no_check)
        spec = make_group("P2Q-Type2", 3, 7)
        assert brace_from_gamma(inversion_gamma(spec)).circle_type == "Type2"

    def test_records_hold_no_arrays(self, enum_cache):
        for rec in enum_cache("P2Q-Type2", 3, 7).braces:
            assert not any(isinstance(v, np.ndarray) for v in vars(rec).values())

    def test_json_field_order(self):
        spec = make_group("P2Q-Type4", 3, 2)
        rec = brace_from_gamma(identity_gamma(spec))
        text = rec.to_json()
        assert text.startswith('{"group": {"family": "P2Q-Type4", "p": 3, "q": 2, "t": 8}, "gamma":')
        assert '"circle_type"' in text and '"kernel_size": 18' in text
        assert text.rstrip().endswith('"orbit_id": null}')

    def test_brace_axiom_exhaustive_small(self):
        spec = make_group("P2Q-Type4", 3, 2)
        brace.verify_brace_axiom(inversion_gamma(spec), exhaustive=True)


class TestNuSubgroup:
    def test_identity_gamma_gives_right_translations(self):
        spec = make_group("P2Q-Type1", 3, 2)
        assert nu_subgroup(identity_gamma(spec)) == {
            rho(spec, g) for g in elements(spec)
        }

    def test_inversion_gamma_gives_left_translations(self):
        spec = make_group("P2Q-Type4", 3, 2)
        assert nu_subgroup(inversion_gamma(spec)) == {
            lambda_rep(spec, g) for g in elements(spec)
        }

    def test_regular_and_injective_over_enumeration(self, enum_cache):
        result = enum_cache("P2Q-Type1", 3, 2)
        spec = result.spec
        seen = set()
        for rec in result.braces:
            nu = frozenset(nu_subgroup(rec.gamma))
            assert is_regular(spec, nu)
            assert nu not in seen
            seen.add(nu)

    def test_round_trip_through_regular_subgroup(self, enum_cache):
        result = enum_cache("P2Q-Type4", 3, 2)
        spec = result.spec
        H = holo(spec)
        for rec in result.braces:
            flat = [flatten(H, m) for m in nu_subgroup(rec.gamma)]
            back = gamma_from_regular(spec, flat)
            assert back.table == rec.gamma.table

    def test_non_regular_flat_arrays_are_rejected(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ident = aut_group(spec).identity_idx
        flat = ident * spec.n + np.arange(spec.n)  # the right translations
        assert gamma_from_regular(spec, flat).table == (ident,) * spec.n
        repeated = flat.copy()
        repeated[1] = flat[0]  # two members send the identity to the identity
        with pytest.raises(ValueError, match="not regular: repeated identity image"):
            gamma_from_regular(spec, repeated)
        with pytest.raises(ValueError, match="not regular: misses identity images"):
            gamma_from_regular(spec, flat[:-1])


class TestDuality:
    def test_dual_of_identity_is_inversion(self):
        spec = make_group("P2Q-Type4", 3, 2)
        assert dual_gamma(identity_gamma(spec)).table == inversion_gamma(spec).table

    def test_involution_over_enumeration(self, enum_cache):
        for rec in enum_cache("P2Q-Type4", 3, 2).braces:
            assert dual_gamma(dual_gamma(rec.gamma)).table == rec.gamma.table

    def test_abelian_dual_is_composition_with_inversion(self):
        spec = make_group("P2Q-Type1", 3, 7)
        gm = identity_gamma(spec)
        ag = aut_group(spec)
        eta = next(k for k in range(ag.size) if ag.order_of(k) == 3)
        rgf = rgf_from_generator(spec, E(1, 0), eta)
        gm = lift_rgf(spec, rgf, spec.cyclic_subgroup(spec.idx(E(0, 1))))
        dual = dual_gamma(gm)
        inv = spec.inv_table
        assert dual.table == tuple(gm.table[inv[x]] for x in range(spec.n))

    def test_dual_matches_inversion_conjugate_of_subgroup(self):
        spec = make_group("P2Q-Type4", 3, 2)
        gm = inversion_gamma(spec)
        lhs = nu_subgroup(dual_gamma(gm))
        rhs = {conjugate_by_inv(spec, h) for h in nu_subgroup(gm)}
        assert lhs == rhs


class TestConjugation:
    def test_conjugate_by_identity(self):
        spec = make_group("P2Q-Type2", 3, 7)
        gm = inversion_gamma(spec)
        assert conjugate_gamma(gm, aut_group(spec).identity_idx).table == gm.table

    def test_trivial_gamma_is_fixed_by_everything(self):
        spec = make_group("P2Q-Type4", 3, 2)
        gm = identity_gamma(spec)
        for beta in range(aut_group(spec).size):
            assert conjugate_gamma(gm, beta).table == gm.table

    def test_conjugation_preserves_gfe(self):
        spec = make_group("P2Q-Type4", 3, 2)
        gm = inversion_gamma(spec)
        for beta in aut_group(spec).generators():
            assert check_gfe(conjugate_gamma(gm, beta))


class TestRgf:
    def test_identity_image_gives_trivial_rgf(self):
        spec = make_group("P2Q-Type1", 3, 7)
        ag = aut_group(spec)
        rgf = rgf_from_generator(spec, E(1, 0), ag.identity_idx)
        assert all(v == ag.identity_idx for v in rgf.values.values())

    def test_type1_twist_follows_partial_sums(self):
        spec = make_group("P2Q-Type1", 3, 7)
        ag = aut_group(spec)
        a_idx, b_idx = spec.idx(E(1, 0)), spec.idx(E(0, 1))
        eta = next(
            k for k, (img_a, img_b) in enumerate(ag.aperm[:, [a_idx, b_idx]])
            if img_a == spec.idx(power(spec, E(1, 0), 4)) and img_b == b_idx
        )
        rgf = rgf_from_generator(spec, E(1, 0), eta)
        for k in range(9):
            el = spec.idx(power(spec, E(1, 0), es(k, 4, 9)))
            assert rgf.values[el] == aut_power(spec, eta, k)

    @pytest.mark.parametrize("family,p,q", [
        ("P2Q-Type1", 3, 7), ("P2Q-Type2", 3, 7), ("P2Q-Type3", 3, 19), ("P2Q-Type4", 3, 2),
    ])
    def test_walk_matches_partial_sums(self, family, p, q):
        # every (element of order p, p^2 or q, automorphism) pair: the same
        # error class and message, or the same domain and values
        spec = make_group(family, p, q)

        def outcome(build, g, eta):
            try:
                rgf = build(spec, spec.el(g), eta)
            except (brace.NotInvariantError, brace.OrderTooBigError) as exc:
                return type(exc), str(exc)
            return rgf.domain, rgf.values

        built = 0
        for g in (g for k in (p, p * p, q) for g in spec.elements_of_order(k)):
            for eta in range(aut_group(spec).size):
                want = outcome(rgf_by_partial_sums, g, eta)
                assert outcome(rgf_from_generator, g, eta) == want
                built += isinstance(want[0], tuple)
        assert built > 0

    def test_rejects_order_not_dividing(self):
        spec = make_group("P2Q-Type1", 3, 7)
        ag = aut_group(spec)
        eta = next(k for k in range(ag.size) if ag.order_of(k) == 2)
        with pytest.raises(brace.OrderTooBigError):
            rgf_from_generator(spec, E(1, 0), eta)  # 2 does not divide 9

    def test_rejects_moved_subgroup(self):
        spec = make_group("P2Q-Type3", 3, 19)
        sylows = spec.sylow_subgroups(9)
        # conjugation by a generator of one Sylow subgroup moves the others
        eta = iota_idx(spec, spec.el(sylows[0][0]))
        with pytest.raises(brace.NotInvariantError):
            rgf_from_generator(spec, spec.el(sylows[1][0]), eta)

    def test_invariant_sylow_is_unique_for_full_order_twists(self):
        # a full-order twist admits an RGF on exactly one of the q Sylow
        # p-subgroups; order-p twists from the center-avoiding factor
        # work on every one of them
        spec = make_group("P2Q-Type3", 3, 19)
        ag = aut_group(spec)
        sylows = spec.sylow_subgroups(9)
        assert len(sylows) == 19
        eta = iota_idx(spec, E(1, 0))  # inner, order 9
        hits = 0
        for gen_idx, _members in sylows:
            try:
                rgf_from_generator(spec, spec.el(gen_idx), eta)
                hits += 1
            except brace.NotInvariantError:
                pass
        assert hits == 1

    def test_psi_twists_work_on_every_sylow(self):
        from p2qbrace.groups import psi_for_A

        spec = make_group("P2Q-Type2", 3, 7)
        psi = psi_for_A(spec, E(1, 0))
        for gen_idx, _members in spec.sylow_subgroups(9):
            rgf_from_generator(spec, spec.el(gen_idx), psi)  # must not raise

    def test_inner_twist_admits_one_sylow_choice_of_seven(self):
        # building the same twisted map from each of the q = 7 Sylow
        # complements succeeds exactly once, for the complement the inner
        # automorphism actually normalizes
        spec = make_group("P2Q-Type2", 3, 7)
        sylows = spec.sylow_subgroups(9)
        assert len(sylows) == 7
        eta = iota_idx(spec, spec.el(sylows[0][0]))
        outcomes = []
        for gen_idx, _members in sylows:
            try:
                rgf_from_generator(spec, spec.el(gen_idx), eta)
                outcomes.append(gen_idx)
            except brace.NotInvariantError:
                pass
        assert outcomes == [sylows[0][0]]

    def test_order_p_images_give_morphisms(self):
        # when the generator image has order exactly p, the resulting
        # map on the cyclic subgroup is multiplicative
        for family, p, q, order in [("P2Q-Type4", 3, 2, 9), ("P2Q-Type2", 3, 7, 9)]:
            spec = make_group(family, p, q)
            ag = aut_group(spec)
            gen_idx, members = spec.sylow_subgroups(order)[0]
            gen = spec.el(gen_idx)
            for eta in range(ag.size):
                if ag.order_of(eta) != p:
                    continue
                if int(ag.aperm[eta, gen_idx]) not in members:
                    continue
                assert rgf_is_morphism(rgf_from_generator(spec, gen, eta))

    @pytest.mark.parametrize(
        "family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7), ("P2Q-Type3", 3, 19)]
    )
    def test_every_structured_rgf_satisfies_the_relative_equation(
        self, monkeypatch, family, p, q
    ):
        # construction does not re-check the relative equation; the
        # reference does, on every RGF the structured route builds
        from p2qbrace import enumerate as routes

        build = routes.rgf_from_generator
        checked = []

        def checking(spec, a_gen, eta_idx):
            rgf = build(spec, a_gen, eta_idx)
            check_rgf_gfe(rgf)
            checked.append(rgf)
            return rgf

        monkeypatch.setattr(routes, "rgf_from_generator", checking)
        routes.structured_enumerate(make_group(family, p, q))
        assert checked

    def test_reference_rejects_a_broken_rgf(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        rgf = rgf_from_generator(spec, E(1, 0), int(ag.iota_map[spec.idx(E(1, 0))]))
        other = next(k for k in range(ag.size) if k not in rgf.values.values())
        bad = brace.RGF(spec, rgf.domain, {**rgf.values, rgf.domain[1]: other})
        with pytest.raises(brace.GfeError):
            check_rgf_gfe(bad)


class TestLift:
    def test_lift_of_trivial_rgf(self):
        spec = make_group("P2Q-Type1", 3, 7)
        ag = aut_group(spec)
        rgf = rgf_from_generator(spec, E(1, 0), ag.identity_idx)
        gm = lift_rgf(spec, rgf, spec.cyclic_subgroup(spec.idx(E(0, 1))))
        assert gm.table == identity_gamma(spec).table

    def test_lift_kernel_contains_complement(self):
        spec = make_group("P2Q-Type1", 3, 7)
        ag = aut_group(spec)
        eta = next(k for k in range(ag.size) if ag.order_of(k) == 3)
        B = spec.cyclic_subgroup(spec.idx(E(0, 1)))
        gm = lift_rgf(spec, rgf_from_generator(spec, E(1, 0), eta), B)
        from p2qbrace.brace import kernel

        assert set(B) <= kernel(gm)

    def test_complement_invariance_failure(self):
        # lifting from <b> against a non-normal complement <a> in the
        # dihedral-like group: conjugation by b moves <a>
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        rgf = rgf_from_generator(spec, E(0, 1), ag.identity_idx)
        bad_rgf = brace.RGF(
            spec=spec,
            domain=rgf.domain,
            values={k: iota_idx(spec, spec.el(k)) for k in rgf.domain},
        )
        A = spec.cyclic_subgroup(spec.idx(E(1, 0)))
        with pytest.raises(brace.LiftPreconditionError, match="invariant"):
            lift_rgf(spec, bad_rgf, A)

    def test_ambiguous_factorization(self):
        # <a^3> kills the intersection and is characteristic, but gamma'
        # differs on a and a^4 = a a^3, which share the cell a^4
        spec = make_group("P2Q-Type1", 3, 2)
        ag = aut_group(spec)
        eta = next(k for k in range(ag.size) if ag.order_of(k) == 3)
        A = spec.cyclic_subgroup(spec.idx(E(1, 0)))
        a3 = spec.cyclic_subgroup(spec.idx(E(3, 0)))
        values = {x: ag.identity_idx for x in A}
        values[spec.idx(E(1, 0))] = eta
        rgf = brace.RGF(spec=spec, domain=A, values=values)
        for lift in (lift_rgf, scalar_lift):
            with pytest.raises(brace.LiftPreconditionError, match="ambiguous"):
                lift(spec, rgf, a3)

    def test_factors_must_cover(self):
        spec = make_group("P2Q-Type1", 3, 2)
        ag = aut_group(spec)
        rgf = rgf_from_generator(spec, E(1, 0), ag.identity_idx)
        A = spec.cyclic_subgroup(spec.idx(E(1, 0)))
        for lift in (lift_rgf, scalar_lift):
            with pytest.raises(brace.LiftPreconditionError, match="do not cover"):
                lift(spec, rgf, A)

    def test_intersection_failure(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        eta = int(ag.ainv[iota_idx(spec, E(1, 0))])
        rgf = rgf_from_generator(spec, E(1, 0), eta)
        with pytest.raises(brace.LiftPreconditionError, match="intersection"):
            lift_rgf(spec, rgf, range(spec.n))  # complement = all of G


class TestInvariantSubgroups:
    @pytest.mark.parametrize("family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7)])
    def test_invariant_sylows_are_circle_subgroups(self, enum_cache, family, p, q):
        # a Sylow subgroup stable under its own gamma images is also a
        # subgroup for the circle operation
        result = enum_cache(family, p, q)
        spec = result.spec
        ag = aut_group(spec)
        sylows = [m for order in (spec.p * spec.p, spec.q)
                  for _gen, m in spec.sylow_subgroups(order)]
        for rec in result.braces:
            gt = rec.gamma.arr()
            circ = circle_table(rec.gamma)
            for members in sylows:
                marr = np.array(members)
                images = ag.aperm[gt[marr][:, None], marr[None, :]]
                if np.isin(images, marr).all():
                    assert np.isin(circ[np.ix_(marr, marr)], marr).all()

    @pytest.mark.parametrize("family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7)])
    def test_invariant_cyclic_generators_keep_their_order(self, enum_cache, family, p, q):
        # under the circle operation, a generator of an invariant cyclic
        # Sylow subgroup has the same order as under the group operation
        result = enum_cache(family, p, q)
        spec = result.spec
        ag = aut_group(spec)
        sylows = [gm for order in (spec.p * spec.p, spec.q)
                  for gm in spec.sylow_subgroups(order)]
        for rec in result.braces:
            gt = rec.gamma.arr()
            circ = circle_table(rec.gamma)
            for gen, members in sylows:
                marr = np.array(members)
                images = ag.aperm[gt[marr][:, None], marr[None, :]]
                if not np.isin(images, marr).all():
                    continue
                k, cur = 1, gen
                while cur != spec.identity_idx:
                    cur = int(circ[cur, gen])
                    k += 1
                assert k == int(spec.orders[gen])


class TestMorphism:
    def test_identity_gamma(self):
        assert is_morphism(identity_gamma(make_group("P2Q-Type2", 3, 7)))

    def test_two_of_three_exchange(self, enum_cache):
        # for a gamma function that is also a morphism, the twisted
        # commutators x^-1 x^gamma(y) all land in the kernel
        result = enum_cache("P2Q-Type4", 3, 2)
        spec = result.spec
        ag = aut_group(spec)
        mt = spec.mul_table
        inv = spec.inv_table
        for rec in result.braces:
            if not is_morphism(rec.gamma):
                continue
            gt = rec.gamma.arr()
            for x in range(spec.n):
                for y in range(spec.n):
                    comm = int(mt[inv[x], ag.aperm[gt[y], x]])
                    assert gt[comm] == ag.identity_idx
