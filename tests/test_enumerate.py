import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from p2qbrace import brace, holomorph
from p2qbrace import enumerate as routes
from p2qbrace.brace import dual_gamma
from p2qbrace.groups import AutTooLargeError, GroupSpec, aut_group, make_group
from reference import all_pairs_propagate, all_pairs_search, scalar_lift, search_candidates


@pytest.fixture(scope="module")
def search_counters():
    path = Path(__file__).resolve().parents[1] / "scripts" / "search_counters.py"
    spec = importlib.util.spec_from_file_location("search_counters", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def orbit_shape(result):
    return Counter((o.circle_type, o.length) for o in result.orbits)


class TestStructured:
    def test_type1_medium_counts(self, enum_cache):
        result = enum_cache("P2Q-Type1", 3, 7)
        assert result.counts_by_type() == {"Type1": 3, "Type2": 6}

    def test_type4_small_counts(self, enum_cache):
        result = enum_cache("P2Q-Type4", 3, 2)
        assert result.counts_by_type() == {"Type1": 54, "Type4": 2}

    def test_type2_medium_counts(self, enum_cache):
        result = enum_cache("P2Q-Type2", 3, 7)
        assert result.counts_by_type() == {"Type1": 42, "Type2": 48}

    def test_trivial_gamma_always_present(self, enum_cache):
        from p2qbrace.brace import identity_gamma

        for fam, p, q in [("P2Q-Type1", 3, 7), ("P2Q-Type4", 3, 2)]:
            result = enum_cache(fam, p, q)
            assert identity_gamma(result.spec).table in result.keys()

    @pytest.mark.parametrize("family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7)])
    def test_one_record_check_per_orbit(self, monkeypatch, family, p, q):
        # lifts and the kernel-p branch are checked only when records are
        # built, on the least table of each conjugation orbit, and the
        # check reads the circle group's generators, never its full table
        tables, checked = [], []
        table, record = brace.circle_table, routes.brace_from_gamma

        def counting_table(gamma):
            tables.append(gamma.key)
            return table(gamma)

        def counting_record(gamma):
            checked.append(gamma.key)
            return record(gamma)

        monkeypatch.setattr(brace, "circle_table", counting_table)
        monkeypatch.setattr(routes, "brace_from_gamma", counting_record)
        result = routes.structured_enumerate(make_group(family, p, q))
        assert checked == []
        records = result.braces
        leaders = {}
        for rec in records:
            leaders.setdefault(rec.orbit_id, rec.gamma.key)
        assert checked == [leaders[orb.orbit_id] for orb in result.orbits]
        assert len(checked) < len(records)
        assert tables == []

    def test_braces_are_canonically_sorted_and_distinct(self, enum_cache):
        result = enum_cache("P2Q-Type2", 3, 7)
        keys = [rec.gamma.key for rec in result.braces]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_type4_at_independent_primes(self, enum_cache):
        # same formulas at (5,2): 2p^3 cyclic braces, 2(p^2 q - 2p^2 + 1)
        # of the group's own type
        result = enum_cache("P2Q-Type4", 5, 2)
        assert result.counts_by_type() == {"Type1": 250, "Type4": 2}
        assert orbit_shape(result) == Counter(
            {("Type1", 25): 2, ("Type1", 100): 2, ("Type4", 1): 2}
        )

    def test_type2_at_independent_primes(self, enum_cache):
        from p2qbrace import counts

        result = enum_cache("P2Q-Type2", 5, 11)
        table = counts.count_table(5, 11)
        assert result.counts_by_type() == {
            "Type1": table.e_prime_at(1, 2),  # 2pq = 110
            "Type2": table.e_prime_at(2, 2),  # 2p(pq - 2q + 1) = 340
        }
        assert orbit_shape(result) == Counter(
            {("Type1", 11): 10, ("Type2", 1): 10, ("Type2", 11): 30}
        )

    def test_type1_at_independent_primes(self, enum_cache):
        result = enum_cache("P2Q-Type1", 5, 11)
        assert result.counts_by_type() == {"Type1": 5, "Type2": 20}
        searched = enum_cache("P2Q-Type1", 5, 11, "search")
        assert searched.keys() == result.keys()

    @pytest.mark.slow
    def test_type4_with_odd_acting_prime(self, enum_cache):
        # (7,3) is the smallest case where the acting prime q exceeds 2,
        # so the ker = Sylow-p branch contributes braces of the group's
        # own type: p^2 (q-2) of them
        result = enum_cache("P2Q-Type4", 7, 3)
        assert result.counts_by_type() == {"Type1": 686, "Type4": 100}
        assert orbit_shape(result) == Counter({
            ("Type1", 49): 2, ("Type1", 294): 2,
            ("Type4", 1): 2, ("Type4", 49): 2,
        })

    @pytest.mark.slow
    def test_type2_within_default_search_gates(self, enum_cache):
        # (3,13) keeps |G| x |Aut| under the default budget, so the
        # constraint search needs no overrides here
        base = enum_cache("P2Q-Type2", 3, 13)
        assert base.counts_by_type() == {"Type1": 78, "Type2": 84}
        searched = enum_cache("P2Q-Type2", 3, 13, "search")
        assert searched.keys() == base.keys()
        assert orbit_shape(base) == Counter({
            ("Type1", 13): 6, ("Type2", 1): 6, ("Type2", 13): 6,
        })

    @pytest.mark.parametrize("family,p,q", [
        ("P2Q-Type1", 3, 7), ("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7), ("P2Q-Type3", 3, 19),
    ])
    def test_lifts_match_the_scalar_reference(self, monkeypatch, family, p, q):
        agrees = []
        lift = routes.lift_rgf

        def checked(spec, rgf, complement):
            gm = lift(spec, rgf, complement)
            agrees.append(gm.key == scalar_lift(spec, rgf, complement).key)
            return gm

        monkeypatch.setattr(routes, "lift_rgf", checked)
        routes.structured_enumerate(make_group(family, p, q))
        assert agrees and all(agrees)

    def test_rejects_pq_families(self):
        with pytest.raises(ValueError):
            routes.structured_enumerate(make_group("PQ-Cyclic", 3, 2))

    @pytest.mark.parametrize("family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7)])
    def test_no_route_calls_the_scalar_group_law(self, family, p, q):
        # the scalar law lives only in tests/reference.py, as the tests' reference
        for name in ("mul", "power", "inv_elem", "elem_order"):
            assert not hasattr(GroupSpec, name)
        spec = make_group.__wrapped__(family, p, q)  # no cached tables
        ag = aut_group.__wrapped__(spec)
        assert ag.aperm.tobytes() == aut_group(spec).aperm.tobytes()
        result = routes.structured_enumerate(spec)
        assert len(result.braces) == len(result.gammas)


class TestGfeSearch:
    def test_agrees_with_structured_small(self, enum_cache):
        base = enum_cache("P2Q-Type4", 3, 2)
        searched = enum_cache("P2Q-Type4", 3, 2, method="search")
        assert searched.keys() == base.keys()

    def test_agrees_with_structured_medium(self, enum_cache):
        base = enum_cache("P2Q-Type2", 3, 7)
        searched = enum_cache("P2Q-Type2", 3, 7, method="search")
        assert searched.keys() == base.keys()

    def test_finds_exactly_p_on_rigid_case(self, enum_cache):
        result = enum_cache("P2Q-Type1", 5, 3, method="search")
        assert result.counts_by_type() == {"Type1": 5}

    def test_size_gate(self):
        # |G| x |Aut| = 583 x 520 = 303,160, the least group over the budget
        with pytest.raises(routes.SearchTooLargeError, match="^search-too-large: .*303160"):
            routes.gfe_search(make_group("PQ-Cyclic", 53, 11))

    def test_gate_is_overridable(self, monkeypatch):
        # covered at full scale by the acceptance suite; here just that the
        # budget is read at call time, at |G| x |Aut| = 18 x 6
        spec = make_group("P2Q-Type1", 3, 2)
        monkeypatch.setattr(routes, "GFE_SEARCH_BUDGET", 108)
        result = routes.gfe_search(spec)
        assert len(result.braces) == 4
        monkeypatch.setattr(routes, "GFE_SEARCH_BUDGET", 107)
        with pytest.raises(routes.SearchTooLargeError):
            routes.gfe_search(spec)

    @pytest.mark.parametrize("family,p,q", [
        ("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7), ("PQ-Metacyclic", 7, 3),
    ])
    def test_candidate_filter_is_sound(self, enum_cache, family, p, q):
        # the filter drops exactly the automorphisms alpha for which
        # y -> y^alpha x fixes a point, and every found gamma(x) survives it
        spec = make_group(family, p, q)
        fpf = aut_group(spec).fixed_point_free
        nonidentity = [x for x in range(spec.n) if x != spec.identity_idx]
        cands = {x: search_candidates(spec, x) for x in nonidentity}
        for x in nonidentity:
            assert np.flatnonzero(fpf[:, x]).tolist() == sorted(cands[x])
        searched = enum_cache(family, p, q, method="search")
        assert searched.gammas
        for key in searched.keys():
            assert all(key[x] in cands[x] for x in nonidentity)

    def test_search_never_reads_the_oracle_layer(self, enum_cache, monkeypatch):
        def oracle(*args, **kwargs):
            raise AssertionError("the search reached the holomorph")

        monkeypatch.setattr(holomorph, "holo", oracle)
        for name, attr in list(vars(holomorph.Holomorph).items()):
            if isinstance(attr, property):
                monkeypatch.setattr(holomorph.Holomorph, name, property(oracle))
            elif callable(attr):
                monkeypatch.setattr(holomorph.Holomorph, name, oracle)
        result = routes.gfe_search(make_group("P2Q-Type2", 3, 7))
        assert result.keys() == enum_cache("P2Q-Type2", 3, 7).keys()

    def test_keys_share_the_aut_group_ints(self, enum_cache):
        # |Aut| = 342, so most entries are past the interpreter's small-int
        # cache; searched, dual and conjugated tables all reuse AutGroup.ints
        spec = make_group("P2Q-Type3", 3, 19)
        ints = aut_group(spec).ints
        searched = enum_cache("P2Q-Type3", 3, 19, method="search")
        gm = searched.gammas[max(searched.gammas)]
        built = [dual_gamma(gm).key, brace.conjugate_gamma(gm, 1).key]
        assert max(map(max, built)) > 256
        for key in [*searched.keys(), *built]:
            assert all(v is ints[v] for v in key)

    def test_pinned_propagation_and_node_counts(self, monkeypatch):
        # one _propagate call per node, the root included, closing one row
        # per candidate the batched first round keeps; a row that closes
        # without a conflict opens one DFS node
        propagate = routes._propagate
        for family, p, q, tables, pinned in [
            ("P2Q-Type2", 3, 7, 90, Counter(propagations=272, nodes=96, calls=7)),
            ("P2Q-Type2", 3, 19, 918, Counter(propagations=2108, nodes=936, calls=19)),
        ]:
            calls = Counter()

            def counting(mt, aperm, comp, table, x, decided):
                alive = propagate(mt, aperm, comp, table, x, decided)
                calls["propagations"] += len(table)
                calls["nodes"] += int(alive.sum())
                calls["calls"] += 1
                return alive

            monkeypatch.setattr(routes, "_propagate", counting)
            result = routes.gfe_search(make_group(family, p, q))
            assert len(result.gammas) == tables
            assert calls == pinned

    def test_empty_batch_gives_an_empty_mask(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        table = np.empty((0, spec.n), dtype=np.int32)
        alive = routes._propagate(spec.mul_table, ag.aperm, ag.comp, table, 1, [])
        assert alive.shape == (0,) and alive.dtype == bool

    def test_node_with_every_candidate_dropped(self, monkeypatch, enum_cache):
        # on Type4 (3,2) the first round keeps no candidate at six nodes;
        # the kernel closes their empty batches and they have no children
        propagate = routes._propagate
        empty = []

        def recording(mt, aperm, comp, table, x, decided):
            alive = propagate(mt, aperm, comp, table, x, decided)
            if not len(table):
                empty.append(alive)
            return alive

        monkeypatch.setattr(routes, "_propagate", recording)
        result = routes.gfe_search(make_group("P2Q-Type4", 3, 2))
        assert [alive.shape for alive in empty] == [(0,)] * 6
        assert result.keys() == enum_cache("P2Q-Type4", 3, 2).keys()

    def test_batch_rows_close_as_single_rows(self, monkeypatch, search_counters):
        # every candidate of x at each node, unfiltered by the first round,
        # so that rows die in round 1 (on Type4 (3,2)) and only in a later
        # round (on Type2 (3,7)); each row's verdict and table must be what
        # closing it alone gives
        propagate = routes._propagate
        died_in = Counter()
        for family, p, q in [("P2Q-Type2", 3, 7), ("P2Q-Type4", 3, 2)]:
            spec = make_group(family, p, q)
            ag = aut_group(spec)
            mt, aperm, comp = spec.mul_table, ag.aperm, ag.comp
            nodes = []

            def recording(mt, aperm, comp, table, x, decided):
                if len(table):
                    gamma = table[0].copy()
                    gamma[x] = -1
                    nodes.append((gamma, x, list(decided)))
                return propagate(mt, aperm, comp, table, x, decided)

            monkeypatch.setattr(routes, "_propagate", recording)
            routes.gfe_search(spec)
            for gamma, x, decided in nodes:
                alphas = np.flatnonzero(ag.fixed_point_free[:, x])
                batch = np.tile(gamma, (alphas.size, 1))
                batch[:, x] = alphas
                alive = propagate(mt, aperm, comp, batch, x, decided)
                for alpha, row, ok in zip(alphas.tolist(), batch, alive.tolist()):
                    single = gamma[None, :].copy()
                    single[0, x] = alpha
                    counts = Counter()
                    closing = search_counters.counted(propagate, counts)
                    assert closing(mt, aperm, comp, single, x, decided).tolist() == [ok]
                    assert np.array_equal(single[0], row)
                    if not ok:
                        died_in["round 1" if counts["rounds"] == 1 else "later"] += 1
        assert died_in["round 1"] > 0 and died_in["later"] > 0

    REFERENCE_GROUPS = [
        ("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7), ("PQ-Metacyclic", 7, 3), ("P2Q-Type3", 3, 19),
    ]

    @pytest.mark.parametrize("family,p,q", REFERENCE_GROUPS)
    def test_every_node_matches_the_all_pairs_reference(self, monkeypatch, family, p, q):
        # closing under the decided elements gives the all-pairs answer on
        # every branch, and the batched first round drops only branches
        # that the all-pairs rule rejects
        propagate, first_round = routes._propagate, routes._first_round
        seen = Counter()

        def checked(mt, aperm, comp, table, x, decided):
            want = table.copy()
            oks = [all_pairs_propagate(mt, aperm, comp, row, [x]) for row in want]
            alive = propagate(mt, aperm, comp, table, x, decided)
            assert alive.tolist() == oks
            assert np.array_equal(table[alive], want[alive])
            seen["propagations"] += len(table)
            return alive

        def filtered(mt, aperm, comp, gamma, x, alphas):
            keep = first_round(mt, aperm, comp, gamma, x, alphas)
            for alpha in alphas[~keep].tolist():
                branch = gamma.copy()
                branch[x] = alpha
                assert not all_pairs_propagate(mt, aperm, comp, branch, [x])
                seen["dropped"] += 1
            return keep

        monkeypatch.setattr(routes, "_propagate", checked)
        monkeypatch.setattr(routes, "_first_round", filtered)
        result = routes.gfe_search(make_group(family, p, q))
        assert result.gammas and seen["propagations"] > len(result.gammas)
        assert seen["dropped"] > 0

    @pytest.mark.parametrize("family,p,q", REFERENCE_GROUPS)
    def test_key_sequence_matches_the_all_pairs_search(self, family, p, q):
        spec = make_group(family, p, q)
        assert list(routes.gfe_search(spec).gammas) == all_pairs_search(spec)


class TestSearchCounters:
    def test_pinned_counts(self, search_counters):
        assert search_counters.count("P2Q-Type2", 3, 7) == {
            "propagations": 272, "nodes": 96, "calls": 7, "rounds": 25, "tables": 90,
        }


class TestClosureOracle:
    def test_small_cyclic(self, enum_cache):
        result = enum_cache("P2Q-Type1", 3, 2, method="oracle")
        assert result.counts_by_type() == {"Type1": 3, "Type4": 1}

    def test_small_type4(self, enum_cache):
        result = enum_cache("P2Q-Type4", 3, 2, method="oracle")
        base = enum_cache("P2Q-Type4", 3, 2)
        assert result.keys() == base.keys()

    def test_near_gate_holomorph_order(self, enum_cache):
        # |Hol(C50)| = 1000, just under the default gate of 1200
        result = enum_cache("P2Q-Type1", 5, 2, method="oracle")
        assert result.counts_by_type() == {"Type1": 5, "Type4": 1}

    def test_gamma_tables_satisfy_gfe(self, enum_cache):
        from p2qbrace.brace import check_gfe

        result = enum_cache("P2Q-Type1", 3, 2, method="oracle")
        for rec in result.braces:
            assert check_gfe(rec.gamma)

    def test_size_gate(self):
        with pytest.raises(holomorph.OracleTooLargeError):
            routes.closure_oracle(make_group("P2Q-Type2", 3, 7))

    def test_never_consults_the_search(self, enum_cache, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle ran the functional-equation search")

        monkeypatch.setattr(routes, "gfe_search", refuse)
        result = routes.closure_oracle(make_group("P2Q-Type4", 3, 2))
        assert len(result.braces) == 56
        assert result.keys() == enum_cache("P2Q-Type4", 3, 2).keys()


class TestGatesBeforeAut:
    """The search's budget and the oracle's limit are checked on the
    closed-form |Aut|, before Aut(G) or Hol(G) is built."""

    @pytest.mark.parametrize("route,error,prefix", [
        (routes.gfe_search, routes.SearchTooLargeError, "search-too-large: "),
        (routes.closure_oracle, holomorph.OracleTooLargeError, "oracle-too-large: "),
    ], ids=["search", "oracle"])
    @pytest.mark.parametrize("family,p,q,aut_gated", [
        ("P2Q-Type1", 3, 397, False),  # |G| x |Aut| = 3,573 x 2,376
        ("P2Q-Type4", 11, 5, True),  # |Aut| = 13,310: over the table gate
    ], ids=["Type1-3-397", "Type4-11-5"])
    def test_gated_route_builds_no_aut_group(self, route, error, prefix, family, p, q, aut_gated):
        # the caches are read, not cleared: other tests hold results built
        # on the cached groups; no hit and no miss means no call at all
        before = aut_group.cache_info(), holomorph.holo.cache_info()
        if aut_gated:
            error, prefix = AutTooLargeError, "aut-too-large: "
        with pytest.raises(error, match=f"^{prefix}"):
            route(make_group(family, p, q))
        assert (aut_group.cache_info(), holomorph.holo.cache_info()) == before


class TestOrbits:
    def test_type1_medium_orbit_shape(self, enum_cache):
        result = enum_cache("P2Q-Type1", 3, 7)
        assert orbit_shape(result) == Counter(
            {("Type1", 1): 1, ("Type1", 2): 1, ("Type2", 2): 3}
        )

    def test_type4_small_orbit_shape(self, enum_cache):
        result = enum_cache("P2Q-Type4", 3, 2)
        assert orbit_shape(result) == Counter(
            {("Type1", 9): 2, ("Type1", 18): 2, ("Type4", 1): 2}
        )

    def test_trivial_gamma_is_singleton_orbit(self, enum_cache):
        from p2qbrace.brace import identity_gamma

        result = enum_cache("P2Q-Type4", 3, 2)
        trivial_key = identity_gamma(result.spec).table
        rec = next(r for r in result.braces if r.gamma.key == trivial_key)
        orb = result.orbits[rec.orbit_id]
        assert orb.length == 1

    def test_orbit_ids_cover_all_records(self, enum_cache):
        result = enum_cache("P2Q-Type2", 3, 7)
        assert all(rec.orbit_id is not None for rec in result.braces)
        sizes = Counter(rec.orbit_id for rec in result.braces)
        for orb in result.orbits:
            assert sizes[orb.orbit_id] == orb.length

    def test_orbit_lengths_divide_aut_order(self, enum_cache):
        from p2qbrace.groups import aut_group

        result = enum_cache("P2Q-Type2", 3, 7)
        m = aut_group(result.spec).size
        for orb in result.orbits:
            assert m % orb.length == 0

    @pytest.mark.parametrize("family,p,q,method", [
        ("P2Q-Type4", 3, 2, "structured"), ("P2Q-Type1", 3, 7, "structured"),
        ("P2Q-Type2", 3, 7, "structured"), ("P2Q-Type3", 3, 19, "structured"),
        ("P2Q-Type4", 5, 2, "structured"), ("PQ-Metacyclic", 7, 3, "oracle"),
    ])
    def test_inherited_type_and_kernel_match_a_direct_record(
            self, enum_cache, family, p, q, method):
        # only orbit leaders are classified; every member checked directly
        result = enum_cache(family, p, q, method=method)
        for rec in result.braces:
            direct = brace.brace_from_gamma(rec.gamma)
            assert (rec.circle_type, rec.kernel_size) == (
                direct.circle_type, len(brace.kernel(rec.gamma)))
        assert len(result.orbits) < len(result.braces)

    def test_set_not_closed_keeps_one_record_per_table(self, enum_cache):
        full = enum_cache("P2Q-Type4", 3, 2)
        by_key = {rec.gamma.key: rec for rec in full.braces}
        dropped = next(rec.gamma.key for rec in full.braces
                       if full.orbits[rec.orbit_id].length > 1)
        result = routes.structured_enumerate(full.spec)
        del result.gammas[dropped]
        keys = [rec.gamma.key for rec in result.braces]
        assert keys == sorted(set(by_key) - {dropped})
        for rec in result.braces:
            want = by_key[rec.gamma.key]
            assert (rec.circle_type, rec.kernel_size) == (want.circle_type, want.kernel_size)
        assert result.orbits is None
        with pytest.raises(routes.MethodDisagreementError,
                           match="conjugation left the enumerated set"):
            routes.aut_orbits(result)

    def test_every_table_is_checked_against_the_equation(self):
        # a table violating the equation is no conjugate of a valid one, so
        # it leads its own orbit and its record's check rejects it
        spec = make_group("P2Q-Type4", 3, 2)
        result = routes.structured_enumerate(spec)
        bad = max(result.gammas)[:-1] + (aut_group(spec).identity_idx,)
        assert bad not in result.gammas
        gm = brace.GammaFunction(spec, bad)
        assert brace.find_gfe_violation(gm) is not None
        result.gammas[bad] = gm
        with pytest.raises(brace.GfeError):
            result.braces


class TestDualityOnEnumerations:
    @pytest.mark.parametrize("family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7)])
    def test_dual_permutes_brace_set(self, enum_cache, family, p, q):
        result = enum_cache(family, p, q)
        keys = result.keys()
        by_key = {rec.gamma.key: rec for rec in result.braces}
        for rec in result.braces:
            dual = dual_gamma(rec.gamma)
            assert dual.key in keys
            assert by_key[dual.key].circle_type == rec.circle_type

    def test_dual_preserves_orbit_shape(self, enum_cache):
        result = enum_cache("P2Q-Type4", 3, 2)
        by_key = {rec.gamma.key: rec for rec in result.braces}
        lengths = {o.orbit_id: o.length for o in result.orbits}
        for rec in result.braces:
            dual_rec = by_key[dual_gamma(rec.gamma).key]
            assert lengths[dual_rec.orbit_id] == lengths[rec.orbit_id]


class TestNilpotentConsistency:
    @pytest.mark.parametrize("p,q", [(3, 2), (3, 7), (5, 3)])
    def test_cyclic_brace_count_is_product_over_primes(self, enum_cache, p, q):
        # the cyclic group is the direct product of its Sylow subgroups,
        # so its cyclic-circle count is the product of the per-prime
        # counts: p for the p-part, 1 for the q-part
        result = enum_cache("P2Q-Type1", p, q)
        assert result.counts_by_type()["Type1"] == p * 1


class TestPqEnumerate:
    def test_both_pq_groups_at_another_prime(self, enum_cache):
        from p2qbrace import counts

        results = routes.pq_enumerate(7, 2)
        table = counts.pq_tables(7, 2)
        for family, result in results.items():
            want = {
                gt: table.e_prime_at(gt, family)
                for gt in ("PQ-Cyclic", "PQ-Metacyclic")
                if table.e_prime_at(gt, family)
            }
            assert result.counts_by_type() == want

    def test_small(self, enum_cache):
        results = routes.pq_enumerate(3, 2)
        cyc = results["PQ-Cyclic"]
        meta = results["PQ-Metacyclic"]
        assert cyc.counts_by_type() == {"PQ-Cyclic": 1, "PQ-Metacyclic": 1}
        assert meta.counts_by_type() == {"PQ-Cyclic": 6, "PQ-Metacyclic": 2}
        assert orbit_shape(meta) == Counter(
            {("PQ-Cyclic", 3): 2, ("PQ-Metacyclic", 1): 2}
        )

    def test_rigid_case_has_only_the_trivial_brace(self):
        results = routes.pq_enumerate(5, 3)
        assert list(results) == ["PQ-Cyclic"]
        assert results["PQ-Cyclic"].counts_by_type() == {"PQ-Cyclic": 1}

    def test_requires_p_larger(self):
        with pytest.raises(ValueError):
            routes.pq_enumerate(3, 7)

    def test_gated_route_raises_its_gate_error(self):
        # the search answers PQ-Cyclic (13,5), but |Hol| = 3,120 is past the oracle's gate
        with pytest.raises(holomorph.OracleTooLargeError):
            routes.pq_enumerate(13, 5)
        assert set(routes.pq_enumerate(13, 5, max_hol_order=3120)) == {"PQ-Cyclic"}

    def test_search_disagreement_raises(self, monkeypatch):
        search = routes.gfe_search

        def drop_one(spec, *args, **kwargs):
            result = search(spec, *args, **kwargs)
            result.gammas.popitem()
            return result

        monkeypatch.setattr(routes, "gfe_search", drop_one)
        with pytest.raises(routes.MethodDisagreementError):
            routes.pq_enumerate(3, 2)


class TestRunRoutes:
    def test_route_order_and_gate_errors(self):
        spec = make_group("P2Q-Type4", 3, 2)
        outcomes = list(routes.run_routes(spec))
        assert [m for m, _, _ in outcomes] == ["structured", "gfe-search", "closure-oracle"]
        assert [r.method for _, r, _ in outcomes] == [m for m, _, _ in outcomes]
        base = outcomes[0][1]
        assert all(b is base and r.keys() == base.keys() for _, r, b in outcomes)
        (_, searched, base), (_, gated, _) = routes.run_routes(make_group("PQ-Cyclic", 13, 5))
        assert searched is base and searched.method == "gfe-search"
        assert isinstance(gated, holomorph.OracleTooLargeError)

    def test_base_is_none_until_a_route_ran(self, monkeypatch):
        def gated(spec):
            raise routes.SearchTooLargeError("search-too-large: test")

        monkeypatch.setattr(routes, "gfe_search", gated)
        (_, first, none), (_, oracle, base) = routes.run_routes(make_group("PQ-Cyclic", 3, 2))
        assert isinstance(first, routes.SearchTooLargeError) and none is None
        assert oracle is base and base.method == "closure-oracle"

    def test_routes_are_looked_up_when_they_run(self, monkeypatch):
        calls = []
        search = routes.gfe_search
        monkeypatch.setattr(routes, "gfe_search", lambda spec: calls.append(spec) or search(spec))
        spec = make_group("PQ-Cyclic", 3, 2)
        assert [m for m, _, _ in routes.run_routes(spec)] == ["gfe-search", "closure-oracle"]
        assert calls == [spec]


class TestExports:
    def test_jsonl_round_trip(self, enum_cache):
        result = enum_cache("P2Q-Type4", 3, 2)
        lines = result.to_jsonl().strip().split("\n")
        assert len(lines) == len(result.braces) + 1
        for line, rec in zip(lines, result.braces):
            data = json.loads(line)
            assert data["gamma"] == list(rec.gamma.key)
            assert data["circle_type"] == rec.circle_type
            assert data["orbit_id"] == rec.orbit_id
        summary = json.loads(lines[-1])
        assert summary["total"] == 56
        assert summary["counts"] == {"Type1": 54, "Type4": 2}
        assert {(o["circle_type"], o["length"], o["size"]) for o in summary["orbits"]} == {
            ("Type1", 9, 2), ("Type1", 18, 2), ("Type4", 1, 2)
        }

    def test_deterministic_output(self, enum_cache):
        result = enum_cache("P2Q-Type1", 3, 7)
        fresh = routes.structured_enumerate(make_group("P2Q-Type1", 3, 7))
        routes.aut_orbits(fresh)
        assert fresh.to_jsonl() == result.to_jsonl()
