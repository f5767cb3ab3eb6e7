import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from p2qbrace import arith, brace, holomorph
from p2qbrace import enumerate as routes
from p2qbrace.brace import dual_gamma, identity_gamma
from p2qbrace.groups import (P2Q_FAMILIES, AutTooLargeError, GroupElement, GroupSpec, aut_group,
                             make_group)
from reference import (all_pairs_propagate, all_pairs_search, kernel, orbit_walk, record_line,
                       rgf_by_partial_sums, scalar_lift, search_candidates)


@pytest.fixture(scope="module")
def search_counters():
    path = Path(__file__).resolve().parents[1] / "scripts" / "search_counters.py"
    spec = importlib.util.spec_from_file_location("search_counters", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def orbit_shape(result):
    return Counter((o.circle_type, o.length) for o in result.orbits)


def key(gamma):
    """A record's table as a tuple, the order ``gamma_set`` sorts rows in."""
    return tuple(gamma.row.tolist())


def same_set(a, b):
    return np.array_equal(a.gammas, b.gammas)


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
        for fam, p, q in [("P2Q-Type1", 3, 7), ("P2Q-Type4", 3, 2)]:
            result = enum_cache(fam, p, q)
            assert (result.gammas == identity_gamma(result.spec).row).all(axis=1).any()

    @pytest.mark.parametrize("family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7)])
    def test_one_record_check_per_orbit(self, monkeypatch, family, p, q):
        # lifts and the kernel-p branch are checked only when records are
        # built, on the least table of each conjugation orbit, and the
        # check reads the circle group's generators, never its full table
        tables, checked = [], []
        table, record = brace.circle_table, routes.brace_from_gamma

        def counting_table(gamma):
            tables.append(key(gamma))
            return table(gamma)

        def counting_record(spec, block):
            checked.extend(tuple(row) for row in block.tolist())
            return record(spec, block)

        monkeypatch.setattr(brace, "circle_table", counting_table)
        monkeypatch.setattr(routes, "brace_from_gamma", counting_record)
        result = routes.structured_enumerate(make_group(family, p, q))
        assert checked == []
        records = result.braces
        leaders = {}
        for rec in records:
            leaders.setdefault(rec.orbit_id, key(rec.gamma))
        assert checked == [leaders[orb.orbit_id] for orb in result.orbits]
        assert len(checked) < len(records)
        assert tables == []

    def test_braces_are_canonically_sorted_and_distinct(self, enum_cache):
        result = enum_cache("P2Q-Type2", 3, 7)
        keys = [key(rec.gamma) for rec in result.braces]
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
        assert same_set(searched, result)

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
        assert same_set(searched, base)
        assert orbit_shape(base) == Counter({
            ("Type1", 13): 6, ("Type2", 1): 6, ("Type2", 13): 6,
        })

    @pytest.mark.parametrize("family,p,q", [
        ("P2Q-Type1", 3, 7), ("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7), ("P2Q-Type3", 3, 19),
    ])
    def test_lifts_match_the_scalar_reference(self, monkeypatch, family, p, q):
        # every row of every branch, against the pair-by-pair lift of the
        # relative gamma function the partial sums give for its a and eta
        agrees = []
        lift = routes.lift_rgf

        def checked(spec, circle_pows, eta_pows, complement):
            tables = lift(spec, circle_pows, eta_pows, complement)
            for table, a_idx, eta in zip(tables, circle_pows[:, 1], eta_pows[:, 1]):
                rgf = rgf_by_partial_sums(spec, spec.el(int(a_idx)), int(eta))
                agrees.append(np.array_equal(table, scalar_lift(spec, rgf, complement).row))
            return tables

        monkeypatch.setattr(routes, "lift_rgf", checked)
        spec = make_group(family, p, q)
        routes.structured_enumerate(spec)
        # every table but Type4's broadcast kernel-p branch is a lift
        lifted = {k: v for k, v in routes._formulas(spec).items() if k != "type4/kernel-p"}
        assert len(agrees) == sum(lifted.values()) > 0 and all(agrees)

    @pytest.mark.parametrize("family,p,q,branches", [
        # b fixed, b of order p, b of order p^2
        ("P2Q-Type1", 3, 7, 3),
        # and the a-kernel branch when q | p - 1
        ("P2Q-Type1", 3, 2, 4),
        # the psi branch, then order p and order p^2 twists on each Sylow p-subgroup
        ("P2Q-Type2", 3, 7, 1 + 2 * 7),
        # one branch per Sylow p-subgroup
        ("P2Q-Type3", 3, 19, 19),
        # kernel-p2 on each Sylow q-subgroup; the kernel-p branches lift nothing
        ("P2Q-Type4", 7, 3, 49),
    ])
    def test_one_lift_per_branch(self, monkeypatch, family, p, q, branches):
        calls = []
        lift = routes.lift_rgf

        def counting(spec, circle_pows, eta_pows, complement):
            calls.append(len(circle_pows))
            return lift(spec, circle_pows, eta_pows, complement)

        monkeypatch.setattr(routes, "lift_rgf", counting)
        routes.structured_enumerate(make_group(family, p, q))
        assert len(calls) == branches
        assert max(calls) > 1  # a branch's twists are one batch

    def test_a_self_dual_table_fails_the_doubling(self, monkeypatch):
        dual = routes.dual_gamma

        def one_self_dual(spec, tables):
            duals = dual(spec, tables)
            duals[0] = tables[0]
            return duals

        monkeypatch.setattr(routes, "dual_gamma", one_self_dual)
        with pytest.raises(routes.StructuredCountMismatchError, match="self-dual gamma function"):
            routes.structured_enumerate(make_group("P2Q-Type4", 3, 2))

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


class TestGammaSet:
    # entries of up to three bytes, 255 and 256 among them, so that the
    # order is read across the bytes of a cell
    ROWS = np.array([[v, w, x] for v in (0, 255, 256) for w in (1, 70000) for x in (256, 255)])

    def test_canonical_form_is_sorted_and_distinct(self):
        rows = np.random.RandomState(0).permutation(np.vstack([self.ROWS, self.ROWS[::3]]))
        got = routes.gamma_set(rows)
        assert got.dtype == np.int32 and got.flags.c_contiguous
        assert [tuple(r) for r in got.tolist()] == sorted({tuple(r) for r in rows.tolist()})

    def test_lookup_is_exact(self):
        tables = routes.gamma_set(self.ROWS)
        at = {tuple(r): i for i, r in enumerate(tables.tolist())}
        probes = np.vstack([tables, tables + 1, tables - 1, [[0, 0, 0], [10**6] * 3]])
        want = [at.get(tuple(r), -1) for r in probes.tolist()]
        assert routes._lookup(routes._row_keys(tables), probes).tolist() == want
        assert want.count(-1) > len(tables)

    @pytest.mark.parametrize("family,p,q", [
        ("P2Q-Type1", 3, 7), ("P2Q-Type2", 3, 7), ("P2Q-Type4", 3, 2), ("PQ-Metacyclic", 7, 3),
    ])
    def test_every_route_returns_the_canonical_form(self, family, p, q):
        spec = make_group(family, p, q)
        methods = []
        for method, result, base in routes.run_routes(spec, max_hol_order=10_000):
            tables = result.gammas
            assert tables.dtype == np.int32 and tables.flags.c_contiguous
            assert tables.ndim == 2 and tables.shape[1] == spec.n and len(tables) > 1
            rows = [tuple(r) for r in tables.tolist()]
            assert all(a < b for a, b in zip(rows, rows[1:]))
            assert np.array_equal(tables, base.gammas)
            methods.append(method)
        assert len(methods) == (3 if family in P2Q_FAMILIES else 2)


class TestGfeSearch:
    def test_agrees_with_structured_small(self, enum_cache):
        base = enum_cache("P2Q-Type4", 3, 2)
        searched = enum_cache("P2Q-Type4", 3, 2, method="search")
        assert same_set(searched, base)

    def test_agrees_with_structured_medium(self, enum_cache):
        base = enum_cache("P2Q-Type2", 3, 7)
        searched = enum_cache("P2Q-Type2", 3, 7, method="search")
        assert same_set(searched, base)

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
        assert len(searched.gammas)
        for table in searched.gammas.tolist():
            assert all(table[x] in cands[x] for x in nonidentity)

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
        assert same_set(result, enum_cache("P2Q-Type2", 3, 7))

    def test_search_never_consults_the_structured_route(self, enum_cache, monkeypatch):
        want = enum_cache("P2Q-Type2", 3, 7)

        def structured(*args, **kwargs):
            raise AssertionError("the search reached the structured route")

        monkeypatch.setattr(routes, "structured_enumerate", structured)
        for name in ("rgf_from_generator", "lift_rgf", "dual_gamma"):
            monkeypatch.setattr(brace, name, structured)
            monkeypatch.setattr(routes, name, structured)
        result = routes.gfe_search(make_group("P2Q-Type2", 3, 7))
        assert same_set(result, want)

    @pytest.mark.slow
    def test_search_equals_structured_on_every_admitted_p2q_group(self):
        # every p^2 q group within the Aut(G) gate and the search budget
        primes = [r for r in range(2, 80) if arith.is_prime(r)]
        checked = 0
        for family in P2Q_FAMILIES:
            for p in primes:
                for q in primes:
                    try:
                        spec = make_group(family, p, q)
                    except ValueError:
                        continue
                    if spec.n * spec.aut_order > routes.GFE_SEARCH_BUDGET:
                        continue
                    base = routes.structured_enumerate(spec)
                    assert same_set(routes.gfe_search(spec), base), spec
                    checked += 1
        assert checked == 48

    def test_pinned_propagation_and_node_counts(self, monkeypatch):
        # one _propagate call per batch of at most |Aut| rows, one row per
        # branch; a row that closes without a conflict is a node
        propagate = routes._propagate
        for family, p, q, tables, pinned in [
            ("P2Q-Type2", 3, 7, 90, Counter(propagations=435, nodes=51, calls=5)),
            ("P2Q-Type2", 3, 19, 918, Counter(propagations=4233, nodes=177, calls=6)),
        ]:
            spec = make_group(family, p, q)
            calls = Counter()

            def counting(mt, aperm, comp, table, gens):
                assert len(table) <= spec.aut_order
                alive = propagate(mt, aperm, comp, table, gens)
                calls["propagations"] += len(table)
                calls["nodes"] += int(alive.sum())
                calls["calls"] += 1
                return alive

            monkeypatch.setattr(routes, "_propagate", counting)
            result = routes.gfe_search(spec)
            assert len(result.gammas) == tables
            assert calls == pinned

    def test_empty_batch_gives_an_empty_mask(self):
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        table = np.empty((0, spec.n), dtype=np.int32)
        gens = np.empty((0, 2), dtype=np.int32)
        alive = routes._propagate(spec.mul_table, ag.aperm, ag.comp, table, gens)
        assert alive.shape == (0,) and alive.dtype == bool

    def test_every_batch_holds_the_identity_automorphism(self, monkeypatch, enum_cache):
        # y -> y x has no fixed point for x != 1, so every node's branches
        # hold the identity automorphism at x, the identity is its own
        # Stab(a)-orbit at the root, and no batch is empty; on Type4 (3,2)
        # a pre-filter once left six empty ones. No row branches on 1
        # itself: gamma(1) = 1 is set in the root row
        spec = make_group("P2Q-Type4", 3, 2)
        ag = aut_group(spec)
        propagate = routes._propagate
        branched = {}  # (parent table with x unset, x) -> gamma(x) of its branches

        def recording(mt, aperm, comp, table, gens):
            assert 0 < len(table) <= ag.size
            for row, x in zip(table.tolist(), gens[:, -1].tolist()):
                assert x != spec.identity_idx
                assert row[spec.identity_idx] == ag.identity_idx
                alpha, row[x] = row[x], -1
                branched.setdefault((tuple(row), x), []).append(alpha)
            return propagate(mt, aperm, comp, table, gens)

        monkeypatch.setattr(routes, "_propagate", recording)
        result = routes.gfe_search(spec)
        assert len(branched) > 1
        assert all(ag.identity_idx in alphas for alphas in branched.values())
        assert same_set(result, enum_cache("P2Q-Type4", 3, 2))

    def test_batch_rows_close_as_single_rows(self, monkeypatch, search_counters):
        # every batch the search closes, so that rows die in round 1 (on
        # Type4 (3,2)) and only in a later round (on Type2 (3,7)), and one
        # batch holds rows of two x and of other assigned sets (depth 1 of
        # PQ-Metacyclic (11,2)); each row's verdict and table must be what
        # closing it alone, with its own generators, gives
        propagate = routes._propagate
        died_in = Counter()
        mixed = []

        def checked(mt, aperm, comp, table, gens):
            entry = table.copy()
            alive = propagate(mt, aperm, comp, table, gens)
            for r, (row, ok) in enumerate(zip(table, alive.tolist())):
                single = entry[r:r + 1].copy()
                counts = Counter()
                closing = search_counters.counted(propagate, counts)
                assert closing(mt, aperm, comp, single, gens[r:r + 1]).tolist() == [ok]
                assert np.array_equal(single[0], row)
                if not ok:
                    died_in["round 1" if counts["rounds"] == 1 else "later"] += 1
            assigned = {row.tobytes() for row in entry >= 0}
            mixed.append(len(set(gens[:, -1].tolist())) > 1 and len(assigned) > 1)
            return alive

        monkeypatch.setattr(routes, "_propagate", checked)
        for family, p, q in [("P2Q-Type2", 3, 7), ("P2Q-Type4", 3, 2), ("PQ-Metacyclic", 11, 2)]:
            routes.gfe_search(make_group(family, p, q))
        assert died_in["round 1"] > 0 and died_in["later"] > 0
        assert any(mixed)

    @pytest.mark.parametrize("family,p,q,cut", [
        ("P2Q-Type4", 3, 2, True), ("P2Q-Type2", 3, 7, True), ("PQ-Metacyclic", 7, 3, True),
        ("P2Q-Type1", 3, 7, False), ("PQ-Cyclic", 7, 3, False),
    ])
    def test_root_branches_once_per_stabiliser_orbit(self, monkeypatch, family, p, q, cut):
        # the first batch is the root's: gamma(a) runs over the least
        # candidate of each orbit of {beta : a^beta = a} acting by
        # alpha -> beta^-1 alpha beta, found here by a plain loop; where
        # no orbit has two candidates, the root is the least
        # non-identity element with its whole column
        spec = make_group(family, p, q)
        ag = aut_group(spec)
        a = spec.idx(GroupElement(1, 0))
        column = np.flatnonzero(ag.fixed_point_free[:, a]).tolist()
        comp, ainv = ag.comp.tolist(), ag.ainv.tolist()
        stab = [beta for beta in range(ag.size) if ag.aperm[beta, a] == a]
        reps = sorted({min(comp[comp[ainv[beta]][alpha]][beta] for beta in stab)
                       for alpha in column})
        assert (len(reps) < len(column)) == cut
        if not cut:
            a = 1
            reps = np.flatnonzero(ag.fixed_point_free[:, a]).tolist()
        propagate = routes._propagate
        batches = []

        def recording(mt, aperm, comp, table, gens):
            batches.append((gens.tolist(), table[:, a].tolist()))
            return propagate(mt, aperm, comp, table, gens)

        monkeypatch.setattr(routes, "_propagate", recording)
        routes.gfe_search(spec)
        gens, alphas = batches[0]
        assert gens == [[a]] * len(reps) and alphas == reps

    REFERENCE_GROUPS = [
        ("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7), ("PQ-Metacyclic", 7, 3), ("P2Q-Type3", 3, 19),
        ("PQ-Metacyclic", 11, 2),
    ]

    @pytest.mark.parametrize("family,p,q", REFERENCE_GROUPS)
    def test_every_node_matches_the_all_pairs_reference(self, monkeypatch, family, p, q):
        # every row branches on its least unassigned element over one of
        # its fixed-point-free candidates, and closing it under its own
        # generators gives the all-pairs answer, row by row
        spec = make_group(family, p, q)
        fpf = aut_group(spec).fixed_point_free
        propagate = routes._propagate
        seen = Counter()

        def checked(mt, aperm, comp, table, gens):
            xs = gens[:, -1]
            assert fpf[table[np.arange(len(table)), xs], xs].all()
            want = table.copy()
            oks = [all_pairs_propagate(mt, aperm, comp, row, gen.tolist())
                   for row, gen in zip(want, gens)]
            alive = propagate(mt, aperm, comp, table, gens)
            assert alive.tolist() == oks
            assert np.array_equal(table[alive], want[alive])
            seen["propagations"] += len(table)
            return alive

        monkeypatch.setattr(routes, "_propagate", checked)
        result = routes.gfe_search(spec)
        assert len(result.gammas) and seen["propagations"] > 0

    @pytest.mark.parametrize("family,p,q", REFERENCE_GROUPS)
    def test_key_sequence_matches_the_all_pairs_search(self, monkeypatch, family, p, q):
        # the canonical key sequence, the set in sorted order, equals the
        # set the uncut all-pairs DFS finds
        spec = make_group(family, p, q)
        want = routes.gamma_set(all_pairs_search(spec))
        assert np.array_equal(routes.gfe_search(spec).gammas, want)


class TestSearchCounters:
    def test_pinned_counts(self, search_counters):
        assert search_counters.count("P2Q-Type2", 3, 7) == {
            "root": {"element": 7, "candidates": 126, "representatives": 36},
            "depths": {"0": {"calls": 1, "propagations": 36, "nodes": 27},
                       "1": {"calls": 4, "propagations": 399, "nodes": 24}},
            "calls": 5, "propagations": 435, "nodes": 51, "rounds": 26,
            "leaves": 30, "closure_added": 60, "tables": 90,
        }

    def test_loop_line_is_read_off_the_running_code(self, search_counters):
        # compiled from a string, so no source file can be read for it
        namespace: dict = {}
        exec(compile("def walk(k):\n    total = 0\n    while k:\n"
                     "        total += k\n        k -= 1\n    return total\n",
                     "<no file>", "exec"), namespace)
        assert search_counters.loop_body_line(namespace["walk"]) == 4


class TestClosureOracle:
    def test_small_cyclic(self, enum_cache):
        result = enum_cache("P2Q-Type1", 3, 2, method="oracle")
        assert result.counts_by_type() == {"Type1": 3, "Type4": 1}

    def test_small_type4(self, enum_cache):
        result = enum_cache("P2Q-Type4", 3, 2, method="oracle")
        base = enum_cache("P2Q-Type4", 3, 2)
        assert same_set(result, base)

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
        assert same_set(result, enum_cache("P2Q-Type4", 3, 2))

    def test_never_consults_the_structured_route(self, enum_cache, monkeypatch):
        structured = enum_cache("P2Q-Type4", 3, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle ran another route")

        for route in ("gfe_search", "structured_enumerate"):
            monkeypatch.setattr(routes, route, refuse)
        assert same_set(routes.closure_oracle(make_group("P2Q-Type4", 3, 2)), structured)


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
        result = enum_cache("P2Q-Type4", 3, 2)
        trivial_key = key(identity_gamma(result.spec))
        rec = next(r for r in result.braces if key(r.gamma) == trivial_key)
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
            direct = brace.brace_from_gamma(result.spec, rec.gamma.row)
            assert (rec.circle_type, rec.kernel_size) == (
                direct.circle_type, len(kernel(rec.gamma)))
        assert len(result.orbits) < len(result.braces)

    def test_set_not_closed_keeps_one_record_per_table(self, enum_cache):
        full = enum_cache("P2Q-Type4", 3, 2)
        by_key = {key(rec.gamma): rec for rec in full.braces}
        at = next(i for i, rec in enumerate(full.braces) if full.orbits[rec.orbit_id].length > 1)
        dropped = key(full.braces[at].gamma)
        result = routes.EnumerationResult(full.spec, "structured",
                                          np.delete(full.gammas, at, axis=0))
        keys = [key(rec.gamma) for rec in result.braces]
        assert keys == sorted(set(by_key) - {dropped})
        for rec in result.braces:
            want = by_key[key(rec.gamma)]
            assert (rec.circle_type, rec.kernel_size) == (want.circle_type, want.kernel_size)
        assert result.orbits is None
        with pytest.raises(routes.MethodDisagreementError,
                           match="conjugation left the enumerated set"):
            routes.aut_orbits(result)

    # the verify ladder's nine groups, then the largest groups in the benchmark
    PARTITION_GROUPS = [
        ("P2Q-Type1", 3, 2), ("P2Q-Type4", 3, 2), ("PQ-Cyclic", 3, 2), ("PQ-Metacyclic", 3, 2),
        ("P2Q-Type1", 3, 7), ("P2Q-Type2", 3, 7),
        ("P2Q-Type1", 3, 19), ("P2Q-Type2", 3, 19), ("P2Q-Type3", 3, 19),
        ("P2Q-Type4", 7, 3), ("P2Q-Type2", 5, 11), ("PQ-Metacyclic", 7, 3), ("PQ-Cyclic", 7, 3),
    ]

    @pytest.mark.parametrize("family,p,q", PARTITION_GROUPS)
    def test_partition_matches_the_breadth_first_walk(self, enum_cache, family, p, q):
        # every row's orbit id and orbit length
        result = enum_cache(family, p, q, method="structured" if family in P2Q_FAMILIES else "search")
        want, closed = orbit_walk(result.spec, result.gammas.tolist())
        assert closed
        got = {key(rec.gamma): (rec.orbit_id, result.orbits[rec.orbit_id].length)
               for rec in result.braces}
        assert got == want

    def test_one_gather_per_generator_and_per_doubled_set(self, monkeypatch):
        calls = Counter()
        conjugate, dual = routes.conjugate_gamma, routes.dual_gamma
        monkeypatch.setattr(routes, "conjugate_gamma",
                            lambda *args: calls.update(["conjugate"]) or conjugate(*args))
        monkeypatch.setattr(routes, "dual_gamma",
                            lambda *args: calls.update(["dual"]) or dual(*args))
        spec = make_group("P2Q-Type2", 3, 7)
        result = routes.structured_enumerate(spec)
        routes.aut_orbits(result)
        assert calls == {"dual": 1, "conjugate": len(aut_group(spec).generators())}

    def test_every_table_is_checked_against_the_equation(self):
        # a table violating the equation is no conjugate of a valid one, so
        # it leads its own orbit and its record's check rejects it
        spec = make_group("P2Q-Type4", 3, 2)
        tables = routes.structured_enumerate(spec).gammas
        bad = tables[-1].copy()
        bad[-1] = aut_group(spec).identity_idx
        assert not (tables == bad).all(axis=1).any()
        assert brace.find_gfe_violation(brace.GammaFunction(spec, bad)) is not None
        result = routes.EnumerationResult(spec, "structured", routes.gamma_set([*tables, bad]))
        with pytest.raises(brace.GfeError):
            result.braces


class TestDualityOnEnumerations:
    @pytest.mark.parametrize("family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7)])
    def test_dual_permutes_brace_set(self, enum_cache, family, p, q):
        result = enum_cache(family, p, q)
        by_key = {key(rec.gamma): rec for rec in result.braces}
        for rec in result.braces:
            dual = tuple(dual_gamma(result.spec, rec.gamma.row).tolist())
            assert by_key[dual].circle_type == rec.circle_type

    def test_dual_preserves_orbit_shape(self, enum_cache):
        result = enum_cache("P2Q-Type4", 3, 2)
        by_key = {key(rec.gamma): rec for rec in result.braces}
        lengths = {o.orbit_id: o.length for o in result.orbits}
        for rec in result.braces:
            dual_rec = by_key[tuple(dual_gamma(result.spec, rec.gamma.row).tolist())]
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
            result.gammas = result.gammas[:-1]
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
        assert all(b is base and same_set(r, base) for _, r, b in outcomes)
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
            assert data["gamma"] == rec.gamma.row.tolist()
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


def reference_jsonl(result):
    """The records' lines as ``json.dumps`` writes them, then the summary."""
    lines = [record_line(rec) for rec in result.braces]
    return "\n".join([*lines, json.dumps(result.summary_dict())]) + "\n"


class TestWriter:
    """``to_jsonl`` writes each line from the gamma set through a byte
    table; it must give the bytes ``json.dumps`` gives of every record."""

    @pytest.mark.parametrize("family,p,q,method", [
        *((f, p, q, "structured" if f in P2Q_FAMILIES else "search")
          for f, p, q in TestOrbits.PARTITION_GROUPS),
        ("P2Q-Type4", 3, 2, "oracle"),
    ])
    def test_bytes_equal_the_reference_lines(self, enum_cache, family, p, q, method):
        result = enum_cache(family, p, q, method=method)
        assert result.to_jsonl() == reference_jsonl(result)

    @pytest.mark.parametrize("entries", [1, 4, 7], ids=["rows-1", "rows-4", "rows-7"])
    def test_blocks_give_the_same_bytes_and_partition(self, enum_cache, monkeypatch, entries):
        # 90 rows of 63 cells: one block at the default size, 90, 23 or 13 here
        want = enum_cache("P2Q-Type2", 3, 7)
        spec, calls = want.spec, []
        conjugate = routes.conjugate_gamma
        monkeypatch.setattr(routes, "_COMP_BLOCK_ENTRIES", entries * spec.n + spec.n // 2)
        monkeypatch.setattr(routes, "conjugate_gamma",
                            lambda spec, tables, beta: calls.append(len(tables))
                            or conjugate(spec, tables, beta))
        result = routes.EnumerationResult(spec, "structured", want.gammas)
        blocks = list(result.jsonl_blocks())
        n_blocks = -(-len(want.gammas) // entries)
        assert len(blocks) == n_blocks + 1 and blocks[-1] == json.dumps(want.summary_dict()) + "\n"
        assert "".join(blocks) == want.to_jsonl() == reference_jsonl(want)
        assert len(calls) == n_blocks * len(aut_group(spec).generators())
        assert max(calls) == entries and sum(calls) == len(calls) // n_blocks * len(want.gammas)
        (got_of, got_records, got_lengths, _), (want_of, want_records, want_lengths, _) = \
            result.partition, want.partition
        assert np.array_equal(got_of, want_of) and np.array_equal(got_lengths, want_lengths)
        assert [(r.circle_type, r.kernel_size, r.orbit_id) for r in got_records] == \
            [(r.circle_type, r.kernel_size, r.orbit_id) for r in want_records]

    @pytest.mark.parametrize("family,p,q,method", [
        ("P2Q-Type4", 3, 2, "structured"), ("P2Q-Type2", 5, 11, "structured"),
        ("P2Q-Type3", 3, 19, "structured"), ("PQ-Metacyclic", 7, 3, "search"),
    ])
    def test_counts_and_summary_equal_a_count_over_every_row(self, enum_cache, family, p, q,
                                                             method):
        result = enum_cache(family, p, q, method=method)
        types = Counter(rec.circle_type for rec in result.braces)
        assert result.counts_by_type() == dict(sorted(types.items()))
        members = Counter(rec.orbit_id for rec in result.braces)
        circle = {rec.orbit_id: rec.circle_type for rec in result.braces}
        shapes = Counter((circle[oid], length) for oid, length in members.items())
        assert result.summary_dict() == {
            "group": result.spec.to_json_dict(), "method": result.method,
            "total": len(result.braces), "counts": dict(sorted(types.items())),
            "orbits": [{"length": length, "circle_type": ctype, "size": count}
                       for (ctype, length), count in sorted(shapes.items())],
        }

    def test_unclosed_set_writes_every_row_and_no_orbits(self, enum_cache):
        full = enum_cache("P2Q-Type4", 3, 2)
        result = routes.EnumerationResult(full.spec, "structured", full.gammas[:-1])
        assert result.orbits is None
        assert result.to_jsonl() == reference_jsonl(result)
        assert json.loads(result.to_jsonl().splitlines()[-1])["orbits"] == []
