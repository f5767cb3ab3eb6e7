import json
from collections import Counter

import pytest

from p2qbrace import brace, holomorph
from p2qbrace import enumerate as routes
from p2qbrace.brace import dual_gamma
from p2qbrace.groups import make_group


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
    def test_one_circle_table_per_record(self, monkeypatch, family, p, q):
        # lifts and the kernel-p branch are checked only when records are built
        calls = []
        table = brace.circle_table

        def counting(gamma):
            calls.append(gamma.key)
            return table(gamma)

        monkeypatch.setattr(brace, "circle_table", counting)
        result = routes.structured_enumerate(make_group(family, p, q))
        assert calls == []
        records = result.braces
        assert sorted(calls) == [rec.canonical_key for rec in records]

    def test_braces_are_canonically_sorted_and_distinct(self, enum_cache):
        result = enum_cache("P2Q-Type2", 3, 7)
        keys = [rec.canonical_key for rec in result.braces]
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
        searched = enum_cache("P2Q-Type1", 5, 11, "search", max_group_order=300)
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
        # (3,13) keeps |G| and |Aut| under the default gates, so the
        # constraint search needs no overrides here
        base = enum_cache("P2Q-Type2", 3, 13)
        assert base.counts_by_type() == {"Type1": 78, "Type2": 84}
        searched = enum_cache("P2Q-Type2", 3, 13, "search")
        assert searched.keys() == base.keys()
        assert orbit_shape(base) == Counter({
            ("Type1", 13): 6, ("Type2", 1): 6, ("Type2", 13): 6,
        })

    def test_rejects_pq_families(self):
        with pytest.raises(ValueError):
            routes.structured_enumerate(make_group("PQ-Cyclic", 3, 2))


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
        with pytest.raises(routes.SearchTooLargeError):
            routes.gfe_search(make_group("P2Q-Type2", 3, 19))

    def test_gate_is_overridable(self):
        # covered at full scale by the acceptance suite; here just the
        # signature contract
        spec = make_group("P2Q-Type1", 3, 2)
        result = routes.gfe_search(spec, max_group_order=50, max_aut_order=50)
        assert len(result.braces) == 4


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
        rec = next(r for r in result.braces if r.canonical_key == trivial_key)
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


class TestDualityOnEnumerations:
    @pytest.mark.parametrize("family,p,q", [("P2Q-Type4", 3, 2), ("P2Q-Type2", 3, 7)])
    def test_dual_permutes_brace_set(self, enum_cache, family, p, q):
        result = enum_cache(family, p, q)
        keys = result.keys()
        by_key = {rec.canonical_key: rec for rec in result.braces}
        for rec in result.braces:
            dual = dual_gamma(rec.gamma)
            assert dual.key in keys
            assert by_key[dual.key].circle_type == rec.circle_type

    def test_dual_preserves_orbit_shape(self, enum_cache):
        result = enum_cache("P2Q-Type4", 3, 2)
        by_key = {rec.canonical_key: rec for rec in result.braces}
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

    def test_search_disagreement_raises(self, monkeypatch):
        search = routes.gfe_search

        def drop_one(spec, *args, **kwargs):
            result = search(spec, *args, **kwargs)
            result.gammas.popitem()
            return result

        monkeypatch.setattr(routes, "gfe_search", drop_one)
        with pytest.raises(routes.MethodDisagreementError):
            routes.pq_enumerate(3, 2)


class TestExports:
    def test_jsonl_round_trip(self, enum_cache):
        result = enum_cache("P2Q-Type4", 3, 2)
        lines = result.to_jsonl().strip().split("\n")
        assert len(lines) == len(result.braces) + 1
        for line, rec in zip(lines, result.braces):
            data = json.loads(line)
            assert data["gamma"] == list(rec.canonical_key)
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
