import pytest

from p2qbrace import arith, counts
from p2qbrace.groups import aut_order, make_group
from reference import totals

DESK_PAIRS = [(3, 2), (3, 7), (3, 19), (5, 2), (5, 3), (5, 11), (7, 3), (3, 31), (7, 2)]


class TestEPrime:
    def test_spec_values(self):
        assert counts.count_table(3, 7).e_prime_at(2, 2) == 48
        t32 = counts.count_table(3, 2)
        assert t32.e_prime_at(1, 4) == 54
        assert t32.e_prime_at(4, 1) == 1
        assert counts.count_table(3, 19).e_prime_at(3, 3) == 192

    def test_inapplicable_cells_are_zero(self):
        t53 = counts.count_table(5, 3)
        assert t53.e_prime_at(1, 2) == 0
        assert t53.e_prime_at(4, 4) == 0

    def test_out_of_scope_types_are_zero(self):
        t = counts.count_table(3, 7)
        for other in (5, 6, 7, 11):
            assert t.e_prime_at(other, 1) == 0
            assert t.e_at(1, other) == 0
            assert t.classes_at(other, other) == ()

    def test_invalid_primes(self):
        with pytest.raises(ValueError):
            counts.count_table(3, 4)
        with pytest.raises(ValueError):
            counts.count_table(2, 3)


class TestE:
    def test_spec_values(self):
        assert counts.count_table(3, 2).e_at(1, 4) == 6
        assert counts.count_table(3, 7).e_at(2, 1) == 21

    def test_scaling_identity_with_formula_aut_sizes(self):
        for p, q in DESK_PAIRS:
            table = counts.count_table(p, q)
            auts = {t: aut_order(make_group(f"P2Q-Type{t}", p, q))
                    for t in arith.divisibility_profile(p, q).g_types}
            for (gt, g), ep in table.e_prime.items():
                assert table.e[(gt, g)] * auts[g] == auts[gt] * ep

    def test_cyclic_extensions_have_p_cyclic_structures(self):
        for p, q in DESK_PAIRS:
            assert counts.count_table(p, q).e_at(1, 1) == p


class TestClasses:
    def test_spec_values(self):
        t = counts.count_table(3, 19)
        assert t.classes_at(3, 3) == ((2, 1), (10, 19))
        assert counts.count_table(3, 2).classes_at(1, 4) == ((2, 9), (2, 18))
        assert counts.count_table(5, 3).classes_at(1, 1) == ((1, 1), (1, 4))

    def test_class_sums_reconcile_with_e_prime(self):
        for p, q in DESK_PAIRS:
            table = counts.count_table(p, q)
            for key, pairs in table.classes.items():
                assert sum(c * l for c, l in pairs) == table.e_prime[key]

    def test_no_zero_count_entries(self):
        for p, q in DESK_PAIRS:
            for pairs in counts.count_table(p, q).classes.values():
                assert all(c > 0 for c, _ in pairs)


class TestTotals:
    def test_spec_values(self):
        assert totals(5, 3, 1) == 5
        assert totals(3, 7, 1) == 15
        assert totals(3, 2, 4) == 11

    def test_totals_are_row_sums(self):
        for p, q in DESK_PAIRS:
            table = counts.count_table(p, q)
            for gt in table.types:
                assert table.total_for(gt) == sum(
                    table.e_at(gt, g) for g in table.types
                )

    def test_out_of_scope_zero(self):
        assert totals(3, 7, 4) == 0
        assert totals(3, 7, 9) == 0


class TestPqTables:
    def test_spec_values(self):
        t32 = counts.pq_tables(3, 2)
        assert t32.e_prime_at("PQ-Metacyclic", "PQ-Metacyclic") == 2
        t73 = counts.pq_tables(7, 3)
        assert t73.e_at("PQ-Metacyclic", "PQ-Cyclic") == 7
        assert t73.e_prime_at("PQ-Cyclic", "PQ-Metacyclic") == 14
        t53 = counts.pq_tables(5, 3)
        assert t53.types == ("PQ-Cyclic",)
        assert t53.e_prime_at("PQ-Cyclic", "PQ-Cyclic") == 1
        assert t53.e_prime_at("PQ-Cyclic", "PQ-Metacyclic") == 0

    def test_class_sums(self):
        for p, q in [(3, 2), (5, 2), (7, 3), (11, 5), (7, 2)]:
            table = counts.pq_tables(p, q)
            for key, pairs in table.classes.items():
                assert sum(c * l for c, l in pairs) == table.e_prime[key]

    def test_scaling_identity(self):
        for p, q in [(3, 2), (5, 2), (7, 3), (11, 5)]:
            table = counts.pq_tables(p, q)
            auts = {"PQ-Cyclic": (p - 1) * (q - 1), "PQ-Metacyclic": p * (p - 1)}
            for (gt, g), ep in table.e_prime.items():
                assert table.e[(gt, g)] * auts[g] == auts[gt] * ep

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            counts.pq_tables(3, 7)
        with pytest.raises(ValueError):
            counts.pq_tables(9, 2)
        with pytest.raises(ValueError):
            counts.pq_tables(arith.PRIME_TEST_BOUND + 2, 2)


class TestRenderings:
    def test_csv_header_and_known_row(self):
        text = counts.table_csv(counts.count_table(3, 7))
        lines = text.splitlines()
        assert lines[0] == "gamma_type,g_type,e_prime,e,classes"
        assert "2,2,48,48,6x1;6x7" in lines
        assert "1,15" in lines  # totals block

    def test_json_contains_totals(self):
        import json

        data = json.loads(counts.table_json(counts.count_table(3, 2)))
        assert data["totals"] == {"1": 9, "4": 11}
        assert {row["g_type"] for row in data["table"]} == {1, 4}

    def test_pq_csv(self):
        text = counts.table_csv(counts.pq_tables(3, 2))
        assert "PQ-Metacyclic,PQ-Metacyclic,2,2,2x1" in text.splitlines()

    def test_pq_json_fields_in_order_without_totals(self):
        import json

        data = json.loads(counts.table_json(counts.pq_tables(7, 3)))
        assert list(data) == ["p", "q", "metacyclic_exists", "table"]
        assert data["metacyclic_exists"] is True

    def test_pq_without_metacyclic_renders_one_row(self):
        import json

        table = counts.pq_tables(5, 3)
        assert counts.table_csv(table).splitlines() == [
            "gamma_type,g_type,e_prime,e,classes",
            "PQ-Cyclic,PQ-Cyclic,1,1,1x1",
        ]
        data = json.loads(counts.table_json(table))
        assert data["metacyclic_exists"] is False
        assert data["table"] == [{
            "gamma_type": "PQ-Cyclic", "g_type": "PQ-Cyclic",
            "e_prime": 1, "e": 1, "classes": ["1x1"],
        }]

    def test_renderings_are_deterministic(self):
        a = counts.table_csv(counts.count_table(3, 19))
        b = counts.table_csv(counts.count_table(3, 19))
        assert a == b
