import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from p2qbrace import arith, brace
from p2qbrace import enumerate as routes
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
from p2qbrace.groups import (FAMILIES, P2Q_FAMILIES, AutTooLargeError, _generating_set,
                             aut_group, check_aut_gate, classify_iso_type, make_group)
from p2qbrace.holomorph import holo
from reference import (
    RGF,
    all_pairs_classify,
    check_rgf_gfe,
    circle,
    circle_inverse,
    conjugate_by_inv,
    elements,
    es,
    flatten,
    greedy_generators,
    identity,
    inversion_gamma,
    is_morphism,
    is_regular,
    kernel,
    lambda_rep,
    mul,
    nu_subgroup,
    power,
    record_line,
    rgf_by_partial_sums,
    rgf_is_morphism,
    rgf_rows,
    rho,
    scalar_lift,
)


def iota_idx(spec, el):
    return int(aut_group(spec).iota_map[spec.idx(el)])


def lift_one(spec, a_gen, eta, complement):
    """The gamma function lifted from the relative one with gamma(a) = eta."""
    batch = rgf_from_generator(spec, spec.idx(a_gen), [eta])
    return GammaFunction(spec, lift_rgf(spec, *batch, complement)[0])


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
        bad = gm.row.copy()
        bad[5] = (bad[5] + 1) % aut_group(spec).size
        witness = find_gfe_violation(GammaFunction(spec, bad))
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
            assert classify_iso_type(brace.CircleLaw(rec.gamma.spec, rec.gamma.row[None])) == [want]

    @pytest.mark.parametrize("family,p,q", LADDER)
    def test_corrupted_tables_fail_with_the_full_scans_pair(
            self, enum_cache, family, p, q):
        result = enum_cache(family, p, q)
        spec = result.spec
        m = aut_group(spec).size
        tables = result.gammas
        rs = np.random.RandomState(spec.n)
        rejected = 0
        for i in range(150):
            table = tables[rs.randint(len(tables))].copy()
            if i % 3 == 0:  # a few entries changed, the identity's included
                cells = rs.randint(0, spec.n, 1 + i % 4)
                table[cells] = rs.randint(0, m, cells.size)
            elif i % 3 == 1:  # two entries swapped
                x, y = rs.randint(0, spec.n, 2)
                table[[x, y]] = table[[y, x]]
            else:  # the head of one valid table on the tail of another
                cut = rs.randint(1, spec.n)
                table[cut:] = tables[rs.randint(len(tables))][cut:]
            gm = GammaFunction(spec, table)
            violation = find_gfe_violation(gm)
            if violation is None:
                assert brace_from_gamma(gm.spec, gm.row).circle_type
                continue
            with pytest.raises(brace.GfeError) as err:
                brace_from_gamma(gm.spec, gm.row)
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
        gens, bounded = brace.CircleLaw(spec, gm.row[None]).generators
        assert gens.shape == (1, (spec.n).bit_length() - 1) and not bounded[0]
        violation = find_gfe_violation(gm)
        assert violation is not None
        with pytest.raises(brace.GfeError) as err:
            brace_from_gamma(gm.spec, gm.row)
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
                brace_from_gamma(gm.spec, gm.row)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * n * n


# the largest order the record sweep reaches
SWEEP_MAX_ORDER = 300


def _sweep_groups():
    """Every family group of order at most ``SWEEP_MAX_ORDER`` within the
    Aut(G) gate, and for order pq within the search budget too."""
    primes = [r for r in range(2, SWEEP_MAX_ORDER) if arith.is_prime(r)]
    specs = []
    for family in FAMILIES:
        for p in primes:
            for q in primes:
                if (p * p * q if family in P2Q_FAMILIES else p * q) > SWEEP_MAX_ORDER:
                    continue
                try:
                    spec = make_group(family, p, q)
                    check_aut_gate(spec)
                except (ValueError, AutTooLargeError):
                    continue
                if family in P2Q_FAMILIES or spec.n * spec.aut_order <= routes.GFE_SEARCH_BUDGET:
                    specs.append(spec)
    return specs


class TableBlock:
    """A stack of Cayley tables with identity 0, read as a block of laws."""

    def __init__(self, tables):
        self.tables, self.shape = tables, tables.shape

    def __getitem__(self, rxy):
        return self.tables[rxy]

    @cached_property
    def generators(self):
        return _generating_set(self.tables, 0)


class TestBatchedRecords:
    """``brace_from_gamma`` checks and classifies a block of tables in one
    pass; every row must come out as it would alone."""

    def test_leaders_match_the_all_pairs_reference_on_every_small_group(self, enum_cache):
        # 28 structured p^2 q sets and 112 searched pq sets, about 1.2 s
        swept = []
        for spec in _sweep_groups():
            method = "structured" if spec.family in P2Q_FAMILIES else "search"
            result = enum_cache(spec.family, spec.p, spec.q, method=method)
            leaders = {}
            for rec in result.braces:
                leaders.setdefault(rec.orbit_id, rec)
            for rec in leaders.values():
                circ = circle_table(rec.gamma)
                assert rec.circle_type == all_pairs_classify(circ).iso_type, (spec, rec.orbit_id)
                # g is in the kernel when x o g = x g for every x
                assert rec.kernel_size == int((circ == spec.mul_table).all(axis=0).sum())
            swept.append(method)
        assert (swept.count("structured"), swept.count("search")) == (28, 112)

    @pytest.mark.parametrize("family,p,q,method", [
        ("P2Q-Type2", 3, 7, "structured"), ("P2Q-Type4", 3, 2, "structured"),
        ("PQ-Metacyclic", 7, 3, "search"), ("P2Q-Type3", 3, 19, "structured"),
    ])
    def test_each_rows_picks_are_its_own_walk(self, enum_cache, family, p, q, method):
        # the set's tables, then random rows with gamma(1) = 1: laws that
        # are no groups and need other numbers of picks
        result = enum_cache(family, p, q, method=method)
        spec, bound, m = result.spec, result.spec.n.bit_length() - 1, aut_group(result.spec).size
        noise = np.random.RandomState(spec.n).randint(0, m, (40, spec.n)).astype(np.int32)
        noise[:, 0] = aut_group(spec).identity_idx
        tables = np.vstack([result.gammas, noise])
        gens, bounded = brace.CircleLaw(spec, tables).generators
        lengths = set()
        for row, picks, ok in zip(tables, gens.tolist(), bounded.tolist()):
            alone, alone_ok = brace.CircleLaw(spec, row[None]).generators
            want = greedy_generators(circle_table(GammaFunction(spec, row)), 0)[:bound + 1]
            lengths.add(len(want))
            assert ok == alone_ok[0] == (len(want) <= bound)
            assert alone[0].tolist() == want[:bound]
            # a row done early repeats its first pick
            assert picks == want[:bound] + [want[0]] * (len(picks) - len(want[:bound]))
        assert len(lengths) > 1

    def test_a_failing_row_between_valid_leaders_is_named(self, enum_cache):
        result = enum_cache("P2Q-Type2", 3, 19)
        spec, block = result.spec, result.gammas[:40].copy()
        # row 20 splices two tables: it holds on its first pick, not its second
        block[20, :38], block[20, 38:] = result.gammas[0, :38], result.gammas[1, 38:]
        block[30, 40] = (block[30, 40] + 1) % aut_group(spec).size
        first, later = (find_gfe_violation(GammaFunction(spec, block[i])) for i in (20, 30))
        assert first is not None and later is not None and first != later
        with pytest.raises(brace.GfeError) as err:
            brace_from_gamma(spec, block)
        assert str(err.value) == f"gamma functional equation fails at pair {first}"

    def test_a_row_past_the_pick_bound_fails_inside_a_block(self, enum_cache):
        # gamma(1) = 1 and one automorphism elsewhere on C_6: its law's
        # greedy walk needs more than floor(log2 6) = 2 picks
        valid = enum_cache("PQ-Cyclic", 3, 2, method="search").gammas
        spec = make_group("PQ-Cyclic", 3, 2)
        ag = aut_group(spec)
        bad = np.array([ag.identity_idx] + [1 - ag.identity_idx] * (spec.n - 1), dtype=np.int32)
        block = np.vstack([valid[:1], bad, valid[1:]])
        gens, bounded = brace.CircleLaw(spec, block).generators
        assert bounded.tolist() == [True, False] + [True] * (len(valid) - 1)
        assert gens.shape == (len(block), 2)
        violation = find_gfe_violation(GammaFunction(spec, bad))
        assert violation is not None
        with pytest.raises(brace.GfeError) as err:
            brace_from_gamma(spec, block)
        assert str(err.value) == f"gamma functional equation fails at pair {violation}"

    def test_blocks_give_the_records_of_one_row_at_a_time(self, enum_cache, monkeypatch):
        want = enum_cache("P2Q-Type2", 3, 19)
        spec = want.spec
        blocks, record = [], routes.brace_from_gamma

        def counting(spec, block):
            blocks.append(len(block))
            return record(spec, block)

        monkeypatch.setattr(routes, "_COMP_BLOCK_ENTRIES", 4 * spec.n)
        monkeypatch.setattr(routes, "brace_from_gamma", counting)
        got = routes.EnumerationResult(spec, "structured", want.gammas).braces
        assert blocks == [4] * 7 + [2]  # 30 orbit leaders
        assert [(r.circle_type, r.kernel_size, r.orbit_id) for r in got] == \
            [(r.circle_type, r.kernel_size, r.orbit_id) for r in want.braces]
        for rec in got:
            alone = record(spec, rec.gamma.row)
            assert (alone.circle_type, alone.kernel_size) == (rec.circle_type, rec.kernel_size)

    def test_one_table_gives_one_record_and_a_block_a_list(self):
        spec = make_group("P2Q-Type4", 3, 2)
        row = identity_gamma(spec).row
        one, block = brace_from_gamma(spec, row), brace_from_gamma(spec, row[None])
        assert isinstance(block, list) and len(block) == 1
        assert (one.circle_type, one.kernel_size) == (block[0].circle_type, 18)

    def test_a_block_of_relabelled_tables_is_classified_row_by_row(self):
        # the records' circle laws all share their picks; relabelled
        # Cayley tables of the two groups of order 63 do not
        tables = []
        rs = np.random.RandomState(63)
        for family in ("P2Q-Type1", "P2Q-Type2"):
            mt = make_group(family, 3, 7).mul_table
            for _ in range(4):
                perm = np.concatenate([[0], 1 + rs.permutation(62)])  # the identity stays 0
                relabelled = np.empty_like(mt)
                relabelled[perm[:, None], perm] = perm[mt]
                tables.append(relabelled)
        block = TableBlock(np.stack(tables))
        assert len({tuple(row) for row in block.generators[0].tolist()}) > 1
        assert classify_iso_type(block) == [classify_iso_type(t) for t in tables]

    def test_a_cayley_table_is_a_block_of_one(self):
        spec = make_group("P2Q-Type3", 3, 19)
        gens, bounded = _generating_set(spec.mul_table[None], 0)
        assert bounded.tolist() == [True]
        assert gens[0].tolist() == greedy_generators(spec.mul_table, 0)
        law = brace.CircleLaw(spec, identity_gamma(spec).row[None])
        assert classify_iso_type(law) == [classify_iso_type(spec.mul_table)]


class TestBraceRecords:
    def test_identity_gamma_record(self):
        spec = make_group("P2Q-Type2", 3, 7)
        rec = brace_from_gamma(spec, identity_gamma(spec).row)
        assert rec.circle_type == "Type2"
        assert kernel(rec.gamma) == frozenset(range(spec.n))

    def test_type4_inverse_inner_twist_gives_cyclic(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        eta = int(ag.ainv[iota_idx(spec, E(1, 0))])
        gm = lift_one(spec, E(1, 0), eta, spec.cyclic_subgroup(spec.idx(E(0, 1))))
        rec = brace_from_gamma(gm.spec, gm.row)
        assert rec.circle_type == "Type1"
        assert set(spec.cyclic_subgroup(spec.idx(E(0, 1)))) <= kernel(rec.gamma)

    def test_type3_unit_twist_gives_cyclic(self):
        spec = make_group("P2Q-Type3", 3, 19)
        ag = aut_group(spec)
        eta = int(ag.ainv[iota_idx(spec, E(1, 0))])  # iota(a^-1)
        gm = lift_one(spec, E(1, 0), eta, spec.cyclic_subgroup(spec.idx(E(0, 1))))
        assert brace_from_gamma(gm.spec, gm.row).circle_type == "Type1"

    def test_gfe_violation_is_rejected(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        alpha = (ag.identity_idx + 1) % ag.size
        gm = GammaFunction(spec, (alpha,) * spec.n)  # alpha alpha != alpha
        assert find_gfe_violation(gm) is not None
        with pytest.raises(brace.GfeError):
            brace_from_gamma(gm.spec, gm.row)

    def test_records_do_not_check_the_kernel(self, monkeypatch):
        def no_check(*args):
            raise AssertionError("the kernel was checked")

        monkeypatch.setattr(brace, "_check_kernel", no_check)
        spec = make_group("P2Q-Type2", 3, 7)
        assert brace_from_gamma(spec, inversion_gamma(spec).row).circle_type == "Type2"

    def test_records_hold_no_arrays(self, enum_cache):
        for rec in enum_cache("P2Q-Type2", 3, 7).braces:
            assert not any(isinstance(v, np.ndarray) for v in vars(rec).values())

    def test_json_field_order(self):
        spec = make_group("P2Q-Type4", 3, 2)
        rec = brace_from_gamma(spec, identity_gamma(spec).row)
        text = record_line(rec)
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
            assert np.array_equal(gamma_from_regular(spec, flat), rec.gamma.row)

    def test_non_regular_flat_arrays_are_rejected(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ident = aut_group(spec).identity_idx
        flat = ident * spec.n + np.arange(spec.n)  # the right translations
        assert (gamma_from_regular(spec, flat) == ident).all()
        repeated = flat.copy()
        repeated[1] = flat[0]  # two members send the identity to the identity
        with pytest.raises(ValueError, match="not regular: repeated identity image"):
            gamma_from_regular(spec, repeated)
        with pytest.raises(ValueError, match="not regular: misses identity images"):
            gamma_from_regular(spec, flat[:-1])


class TestDuality:
    def test_dual_of_identity_is_inversion(self):
        spec = make_group("P2Q-Type4", 3, 2)
        assert np.array_equal(dual_gamma(spec, identity_gamma(spec).row), inversion_gamma(spec).row)

    def test_involution_over_enumeration(self, enum_cache):
        result = enum_cache("P2Q-Type4", 3, 2)
        tables = result.gammas
        assert np.array_equal(dual_gamma(result.spec, dual_gamma(result.spec, tables)), tables)

    @pytest.mark.parametrize("family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7)])
    def test_set_gather_matches_the_pointwise_formula(self, enum_cache, family, p, q):
        # x -> gamma(x^-1) iota(x^-1), table by table and cell by cell
        result = enum_cache(family, p, q)
        spec, ag = result.spec, aut_group(result.spec)
        duals = dual_gamma(spec, result.gammas)
        inv = spec.inv_table.tolist()
        for table, dual in zip(result.gammas.tolist(), duals.tolist()):
            assert dual == [int(ag.comp[table[inv[x]], ag.iota_map[inv[x]]])
                            for x in range(spec.n)]

    def test_abelian_dual_is_composition_with_inversion(self):
        spec = make_group("P2Q-Type1", 3, 7)
        gm = identity_gamma(spec)
        ag = aut_group(spec)
        eta = next(k for k in range(ag.size) if ag.order_of(k) == 3)
        gm = lift_one(spec, E(1, 0), eta, spec.cyclic_subgroup(spec.idx(E(0, 1))))
        assert np.array_equal(dual_gamma(spec, gm.row), gm.row[spec.inv_table])

    def test_dual_matches_inversion_conjugate_of_subgroup(self):
        spec = make_group("P2Q-Type4", 3, 2)
        gm = inversion_gamma(spec)
        lhs = nu_subgroup(GammaFunction(spec, dual_gamma(spec, gm.row)))
        rhs = {conjugate_by_inv(spec, h) for h in nu_subgroup(gm)}
        assert lhs == rhs


class TestConjugation:
    def test_conjugate_by_identity(self):
        spec = make_group("P2Q-Type2", 3, 7)
        gm = inversion_gamma(spec)
        assert np.array_equal(conjugate_gamma(spec, gm.row, aut_group(spec).identity_idx), gm.row)

    def test_trivial_gamma_is_fixed_by_everything(self):
        spec = make_group("P2Q-Type4", 3, 2)
        gm = identity_gamma(spec)
        for beta in range(aut_group(spec).size):
            assert np.array_equal(conjugate_gamma(spec, gm.row, beta), gm.row)

    def test_conjugation_preserves_gfe(self):
        spec = make_group("P2Q-Type4", 3, 2)
        gm = inversion_gamma(spec)
        for beta in aut_group(spec).generators():
            assert check_gfe(GammaFunction(spec, conjugate_gamma(spec, gm.row, beta)))

    @pytest.mark.parametrize("family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7)])
    def test_set_gather_matches_the_pointwise_formula(self, enum_cache, family, p, q):
        # g -> beta^-1 gamma(g^(beta^-1)) beta, table by table and cell by
        # cell, for every automorphism beta
        result = enum_cache(family, p, q)
        spec, ag = result.spec, aut_group(result.spec)
        comp, aperm = ag.comp.tolist(), ag.aperm.tolist()
        tables = result.gammas.tolist()
        for beta in range(ag.size):
            binv = int(ag.ainv[beta])
            images = conjugate_gamma(spec, result.gammas, beta).tolist()
            for table, image in zip(tables, images):
                assert image == [comp[comp[binv][table[aperm[binv][g]]]][beta]
                                 for g in range(spec.n)]


def assert_batch_fails_on_one_row(build, error, prefix, good, bad):
    """``build`` raises ``error`` with ``prefix`` on the rows ``good``
    with ``bad`` first or last among them, and nothing on ``good`` alone."""
    assert len(good) >= 2
    build(good)
    for at in (0, len(good)):
        with pytest.raises(error, match=f"^{prefix}"):
            build(good[:at] + [bad] + good[at:])


class TestRgf:
    def test_identity_image_gives_trivial_rgf(self):
        spec = make_group("P2Q-Type1", 3, 7)
        ag = aut_group(spec)
        _, eta_pows = rgf_from_generator(spec, spec.idx(E(1, 0)), [ag.identity_idx])
        assert (eta_pows == ag.identity_idx).all()

    def test_type1_twist_follows_partial_sums(self):
        spec = make_group("P2Q-Type1", 3, 7)
        ag = aut_group(spec)
        a_idx, b_idx = spec.idx(E(1, 0)), spec.idx(E(0, 1))
        eta = next(
            k for k, (img_a, img_b) in enumerate(ag.aperm[:, [a_idx, b_idx]])
            if img_a == spec.idx(power(spec, E(1, 0), 4)) and img_b == b_idx
        )
        (rgf,) = rgf_rows(spec, *rgf_from_generator(spec, a_idx, [eta]))
        for k in range(9):
            el = spec.idx(power(spec, E(1, 0), es(k, 4, 9)))
            assert rgf.values[el] == aut_power(spec, eta, k)

    @pytest.mark.parametrize("family,p,q", [
        ("P2Q-Type1", 3, 7), ("P2Q-Type2", 3, 7), ("P2Q-Type3", 3, 19), ("P2Q-Type4", 3, 2),
    ])
    def test_walk_matches_partial_sums(self, family, p, q):
        # every (element of order p, p^2 or q, automorphism) pair: the same
        # error class and message, or the same domain and values.  The
        # automorphisms that build share one batch, and each one that
        # fails is a batch of its own.
        spec = make_group(family, p, q)

        def outcome(g, eta):
            try:
                return rgf_by_partial_sums(spec, spec.el(g), eta)
            except (brace.NotInvariantError, brace.OrderTooBigError) as exc:
                return type(exc), str(exc)

        built = 0
        for g in (g for k in (p, p * p, q) for g in np.flatnonzero(spec.orders == k).tolist()):
            want = {eta: outcome(g, eta) for eta in range(aut_group(spec).size)}
            builds = [eta for eta, rgf in want.items() if isinstance(rgf, RGF)]
            rows = rgf_rows(spec, *rgf_from_generator(spec, g, builds))
            assert [(r.domain, r.values) for r in rows] == \
                [(want[eta].domain, want[eta].values) for eta in builds]
            for eta in want.keys() - set(builds):
                try:
                    rgf_from_generator(spec, g, [eta])
                except (brace.NotInvariantError, brace.OrderTooBigError) as exc:
                    assert (type(exc), str(exc)) == want[eta]
                else:
                    pytest.fail(f"the twist {eta} of {g} built")
            built += len(builds)
        assert built > 0

    def test_rejects_order_not_dividing(self):
        spec = make_group("P2Q-Type1", 3, 7)
        ag = aut_group(spec)
        good = [k for k in range(ag.size) if ag.order_of(k) in (1, 3)]
        bad = next(k for k in range(ag.size) if ag.order_of(k) == 2)  # 2 does not divide 9
        assert_batch_fails_on_one_row(
            lambda etas: rgf_from_generator(spec, spec.idx(E(1, 0)), etas),
            brace.OrderTooBigError, "order-too-big: ord\\(eta\\) = 2", good, bad)

    def test_rejects_moved_subgroup(self):
        spec = make_group("P2Q-Type3", 3, 19)
        ag = aut_group(spec)
        sylows = spec.sylow_subgroups(9)
        a_idx = sylows[1][0]
        # conjugation by a generator of one Sylow subgroup moves the others,
        # and by its own generator leaves it in place
        good = [ag.identity_idx, iota_idx(spec, spec.el(a_idx))]
        bad = iota_idx(spec, spec.el(sylows[0][0]))
        assert_batch_fails_on_one_row(
            lambda etas: rgf_from_generator(spec, a_idx, etas),
            brace.NotInvariantError, "not-invariant:", good, bad)

    def test_invariant_sylow_is_unique_for_full_order_twists(self):
        # a full-order twist admits an RGF on exactly one of the q Sylow
        # p-subgroups; order-p twists from the center-avoiding factor
        # work on every one of them
        spec = make_group("P2Q-Type3", 3, 19)
        sylows = spec.sylow_subgroups(9)
        assert len(sylows) == 19
        eta = iota_idx(spec, E(1, 0))  # inner, order 9
        hits = 0
        for gen_idx, _members in sylows:
            try:
                rgf_from_generator(spec, gen_idx, [eta])
                hits += 1
            except brace.NotInvariantError:
                pass
        assert hits == 1

    def test_psi_twists_work_on_every_sylow(self):
        from p2qbrace.groups import psi_for_A

        spec = make_group("P2Q-Type2", 3, 7)
        psi = psi_for_A(spec, E(1, 0))
        for gen_idx, _members in spec.sylow_subgroups(9):
            rgf_from_generator(spec, gen_idx, [psi])  # must not raise

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
                rgf_from_generator(spec, gen_idx, [eta])
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
            etas = [eta for eta in range(ag.size)
                    if ag.order_of(eta) == p and int(ag.aperm[eta, gen_idx]) in members]
            rgfs = rgf_rows(spec, *rgf_from_generator(spec, gen_idx, etas))
            assert rgfs and all(rgf_is_morphism(rgf) for rgf in rgfs)

    @pytest.mark.parametrize("family,p,q", [
        ("P2Q-Type1", 3, 7), ("P2Q-Type2", 3, 7), ("P2Q-Type3", 3, 19), ("P2Q-Type4", 3, 2),
    ])
    def test_every_structured_rgf_satisfies_the_relative_equation(
        self, monkeypatch, family, p, q
    ):
        # construction does not re-check the relative equation; the
        # reference does, on every row of every batch the structured
        # route builds
        from p2qbrace import enumerate as routes

        build = routes.rgf_from_generator
        checked = []

        def checking(spec, a_idx, etas):
            batch = build(spec, a_idx, etas)
            for rgf in rgf_rows(spec, *batch):
                check_rgf_gfe(rgf)
                checked.append(rgf)
            return batch

        monkeypatch.setattr(routes, "rgf_from_generator", checking)
        spec = make_group(family, p, q)
        routes.structured_enumerate(spec)
        # every table but Type4's broadcast kernel-p branch is a lift
        lifted = {k: v for k, v in routes._formulas(spec).items() if k != "type4/kernel-p"}
        assert len(checked) == sum(lifted.values()) > 0

    def test_reference_rejects_a_broken_rgf(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        a_idx = spec.idx(E(1, 0))
        (rgf,) = rgf_rows(spec, *rgf_from_generator(spec, a_idx, [int(ag.iota_map[a_idx])]))
        other = next(k for k in range(ag.size) if k not in rgf.values.values())
        bad = RGF(spec, rgf.domain, {**rgf.values, rgf.domain[1]: other})
        with pytest.raises(brace.GfeError):
            check_rgf_gfe(bad)


def lift_rows(spec, circle_pows, eta_pows, complement, rows):
    """``lift_rgf`` on the chosen rows of a batch."""
    return lift_rgf(spec, circle_pows[rows], eta_pows[rows], complement)


class TestLift:
    def test_lift_of_trivial_rgf(self):
        spec = make_group("P2Q-Type1", 3, 7)
        ag = aut_group(spec)
        gm = lift_one(spec, E(1, 0), ag.identity_idx, spec.cyclic_subgroup(spec.idx(E(0, 1))))
        assert np.array_equal(gm.row, identity_gamma(spec).row)

    def test_lift_kernel_contains_complement(self):
        spec = make_group("P2Q-Type1", 3, 7)
        ag = aut_group(spec)
        eta = next(k for k in range(ag.size) if ag.order_of(k) == 3)
        B = spec.cyclic_subgroup(spec.idx(E(0, 1)))
        gm = lift_one(spec, E(1, 0), eta, B)
        assert set(B) <= kernel(gm)

    def test_lift_along_factors_that_meet(self):
        # G = <a> <a^3 b> in the cyclic group of order 18, the factors
        # meeting in <a^3>, which every twist of order 3 kills
        spec = make_group("P2Q-Type1", 3, 2)
        ag = aut_group(spec)
        etas = [k for k in range(ag.size) if ag.order_of(k) in (1, 3)]
        batch = rgf_from_generator(spec, spec.idx(E(1, 0)), etas)
        B = spec.cyclic_subgroup(spec.idx(E(3, 1)))
        tables = lift_rgf(spec, *batch, B)
        assert len(tables) == 3
        for table, rgf in zip(tables, rgf_rows(spec, *batch)):
            assert np.array_equal(table, scalar_lift(spec, rgf, B).row)

    def test_complement_invariance_failure(self):
        # lifting from <b> against the non-normal complement <a> in the
        # dihedral group: a twist that moves a as iota(b^-1) does makes
        # every gamma'(x) iota(x) fix <a>; the trivial one lets
        # conjugation by b move it
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        a_idx, b_idx = spec.idx(E(1, 0)), spec.idx(E(0, 1))
        a_image = ag.aperm[ag.ainv[ag.iota_map[b_idx]], a_idx]
        good = np.flatnonzero((ag.aperm[:, a_idx] == a_image) & (9 % ag.orders == 0)).tolist()
        batch = rgf_from_generator(spec, b_idx, good + [ag.identity_idx])
        A = spec.cyclic_subgroup(a_idx)
        assert_batch_fails_on_one_row(
            lambda rows: lift_rows(spec, *batch, A, rows), brace.LiftPreconditionError,
            "lift-precondition-failed: complement is not invariant", list(range(len(good))),
            len(good))

    def test_ambiguous_factorization(self):
        # <a^3 b> meets <a> in <a^3>; a row that differs on a and on
        # a^4 = a a^3, which share the cell a^4, is ambiguous
        spec = make_group("P2Q-Type1", 3, 2)
        ag = aut_group(spec)
        etas = [k for k in range(ag.size) if ag.order_of(k) in (1, 3)]
        circle_pows, eta_pows = rgf_from_generator(spec, spec.idx(E(1, 0)), etas)
        B = spec.cyclic_subgroup(spec.idx(E(3, 1)))
        circle_pows = np.vstack([circle_pows, circle_pows[1]])
        eta_pows = np.vstack([eta_pows, eta_pows[1]])
        eta_pows[3, 1] = eta_pows[2, 1]  # gamma'(a) only
        assert_batch_fails_on_one_row(
            lambda rows: lift_rows(spec, circle_pows, eta_pows, B, rows),
            brace.LiftPreconditionError, "lift-precondition-failed: factorization is ambiguous",
            [0, 1, 2], 3)
        with pytest.raises(brace.LiftPreconditionError, match="ambiguous"):
            scalar_lift(spec, rgf_rows(spec, circle_pows, eta_pows)[3], B)  # the reference agrees

    def test_factors_must_cover(self):
        # a row that walks one member of <a> twice, with the same value,
        # misses the coset of another
        spec = make_group("P2Q-Type1", 3, 2)
        ag = aut_group(spec)
        etas = [k for k in range(ag.size) if ag.order_of(k) in (1, 3)]
        circle_pows, eta_pows = rgf_from_generator(spec, spec.idx(E(1, 0)), etas)
        B = spec.cyclic_subgroup(spec.idx(E(0, 1)))
        circle_pows = np.vstack([circle_pows, circle_pows[1]])
        eta_pows = np.vstack([eta_pows, eta_pows[1]])
        twin = next(i for i in range(1, 8) if eta_pows[3, i] == eta_pows[3, 8])
        circle_pows[3, 8] = circle_pows[3, twin]
        assert_batch_fails_on_one_row(
            lambda rows: lift_rows(spec, circle_pows, eta_pows, B, rows),
            brace.LiftPreconditionError, "lift-precondition-failed: the factors do not cover",
            [0, 1, 2], 3)
        with pytest.raises(brace.LiftPreconditionError, match="do not cover"):
            scalar_lift(spec, rgf_rows(spec, circle_pows, eta_pows)[3], B)  # the reference agrees

    def test_intersection_failure(self):
        # <a^3 b> meets <a> in <a^3>, which a row with gamma'(a^3) != 1
        # does not kill
        spec = make_group("P2Q-Type1", 3, 2)
        ag = aut_group(spec)
        etas = [k for k in range(ag.size) if ag.order_of(k) in (1, 3)]
        circle_pows, eta_pows = rgf_from_generator(spec, spec.idx(E(1, 0)), etas)
        B = spec.cyclic_subgroup(spec.idx(E(3, 1)))
        circle_pows = np.vstack([circle_pows, circle_pows[1]])
        eta_pows = np.vstack([eta_pows, eta_pows[1]])
        a3 = list(circle_pows[3]).index(spec.idx(E(3, 0)))
        eta_pows[3, a3] = etas[1]
        assert_batch_fails_on_one_row(
            lambda rows: lift_rows(spec, circle_pows, eta_pows, B, rows),
            brace.LiftPreconditionError, "lift-precondition-failed: intersection",
            [0, 1, 2], 3)


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
            gt = rec.gamma.row
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
            gt = rec.gamma.row
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
            gt = rec.gamma.row
            for x in range(spec.n):
                for y in range(spec.n):
                    comm = int(mt[inv[x], ag.aperm[gt[y], x]])
                    assert gt[comm] == ag.identity_idx
