import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from p2qbrace import arith, cli, counts, groups
from p2qbrace import enumerate as routes
from reference import cayley_to_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTables:
    def test_csv_known_row(self, capsys):
        code, out, _ = run(capsys, "tables", "--p", "3", "--q", "7")
        assert code == 0
        assert out.splitlines()[0] == "gamma_type,g_type,e_prime,e,classes"
        assert "2,2,48,48,6x1;6x7" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "tables", "--p", "3", "--q", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["totals"]["4"] == 11

    def test_nonprime_q(self, capsys):
        code, _, err = run(capsys, "tables", "--p", "3", "--q", "4")
        assert code == 2
        assert "prime" in err

    def test_even_p(self, capsys):
        code, _, err = run(capsys, "tables", "--p", "2", "--q", "3")
        assert code == 2
        assert "odd" in err

    def test_huge_prime_is_rejected_promptly(self, capsys):
        # the p^2 q bound is checked before primality
        start = time.perf_counter()
        code, out, err = run(capsys, "tables", "--p", "1000000000000000003", "--q", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "exceeds the supported bound" in err

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "tables", "--p", "3", "--q", "19")
        _, out2, _ = run(capsys, "tables", "--p", "3", "--q", "19")
        assert out1 == out2


class TestEnumerate:
    def test_structured_type4_record_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "3", "--q", "2",
                           "--type", "4", "--method", "structured")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 57  # 56 records + summary
        summary = json.loads(lines[-1])
        assert summary["total"] == 56
        first = json.loads(lines[0])
        assert list(first) == ["group", "gamma", "circle_type", "kernel_size", "orbit_id"]

    def test_inapplicable_type(self, capsys):
        code, _, err = run(capsys, "enumerate", "--p", "3", "--q", "7", "--type", "3")
        assert code == 2
        assert "p^2 | q-1" in err

    def test_oracle_gate_exit_code(self, capsys):
        code, _, err = run(capsys, "enumerate", "--p", "3", "--q", "7",
                           "--type", "2", "--method", "oracle")
        assert code == 3
        assert "oracle-too-large" in err

    def test_search_gate_exit_code(self, capsys):
        # |G| x |Aut| = 637 x 504 = 321,048: the least group of order p^2 q
        # over the search budget
        code, out, err = run(capsys, "enumerate", "--p", "7", "--q", "13",
                             "--type", "1", "--method", "search")
        assert code == 3
        assert out == ""
        assert err.startswith("error: search-too-large: ")
        assert "321048" in err and "302526" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("method,message", [
        ("oracle", "error: oracle-too-large: |Hol(G)| = 8489448 exceeds the limit 1200\n"),
        ("search", "error: search-too-large: |G| x |Aut| = 3573 x 2376 = 8489448 "
                   "exceeds the budget 302526\n"),
    ], ids=["oracle", "search"])
    def test_gates_answer_before_aut_is_built(self, capsys, method, message):
        # Type1 (3, 397) passes the table gate, so only the closed-form
        # |Aut| keeps the 2,376 automorphisms from being searched
        before = groups.aut_group.cache_info()
        start = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "--p", "3", "--q", "397",
                             "--type", "1", "--method", method)
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (3, "", message)
        assert groups.aut_group.cache_info() == before  # never called

    def test_type1_rgfs_are_built_promptly(self, capsys):
        # the RGFs on <a> of order 961 are walked in O(d) steps; partial
        # sums recomputed for each power took about 2 s
        start = time.perf_counter()
        code, _, _ = run(capsys, "enumerate", "--p", "31", "--q", "2", "--type", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 0

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "braces.jsonl"
        code, out, _ = run(capsys, "enumerate", "--p", "3", "--q", "2",
                           "--type", "1", "--method", "search", "--out", str(target))
        assert code == 0
        lines = target.read_text().strip().split("\n")
        assert len(lines) == 5  # 4 records + summary
        assert json.loads(out)["total"] == 4

    def test_square_division_summary_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "3", "--q", "19",
                           "--type", "3", "--method", "structured")
        assert code == 0
        summary = json.loads(out.strip().split("\n")[-1])
        assert summary["counts"] == {"Type1": 38, "Type2": 76, "Type3": 192}

    def test_methods_agree_on_small_case(self, capsys):
        outs = []
        for method in ("structured", "search", "oracle"):
            code, out, _ = run(capsys, "enumerate", "--p", "3", "--q", "2",
                               "--type", "4", "--method", method)
            assert code == 0
            records = [json.loads(l) for l in out.strip().split("\n")[:-1]]
            outs.append(sorted(tuple(r["gamma"]) for r in records))
        assert outs[0] == outs[1] == outs[2]


class TestVerify:
    def test_small_pair_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "3", "--q", "2", "--pq")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        names = {c["name"] for c in report["checks"]}
        assert "type4/closure-oracle-agrees" in names
        assert "pq/PQ-Metacyclic/counts-vs-e-prime" in names
        assert all(c["status"] != "fail" for c in report["checks"])

    def test_oracle_skip_is_not_failure(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "5", "--q", "3")
        assert code == 0
        report = json.loads(out)
        oracle = next(c for c in report["checks"]
                      if c["name"] == "type1/closure-oracle-agrees")
        assert oracle["status"] == "skipped"
        assert "oracle-too-large" in oracle["reason"]

    def test_invalid_input(self, capsys):
        code, _, err = run(capsys, "verify", "--p", "15", "--q", "2")
        assert code == 2

    def test_pq_flag_needs_larger_p(self, capsys, monkeypatch):
        def refuse(spec):
            raise AssertionError("a route ran before the input was rejected")

        monkeypatch.setattr(routes, "structured_enumerate", refuse)
        code, _, _ = run(capsys, "verify", "--p", "3", "--q", "7", "--pq")
        assert code == 2

    def test_pq_route_disagreement_is_a_failed_check(self, capsys, monkeypatch):
        oracle = routes.closure_oracle

        def drop_one_on_pq(spec, *args, **kwargs):
            result = oracle(spec, *args, **kwargs)
            if spec.family.startswith("PQ-"):
                result.gammas.popitem()
            return result

        monkeypatch.setattr(routes, "closure_oracle", drop_one_on_pq)
        code, out, _ = run(capsys, "verify", "--p", "3", "--q", "2", "--pq")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        failed = checks["pq/PQ-Metacyclic/closure-oracle-agrees"]
        assert failed["status"] == "fail"
        assert failed["detail"] == {"search": 8, "oracle": 7}
        # the search is each pq group's base, so its checks still run
        for family in ("PQ-Cyclic", "PQ-Metacyclic"):
            assert checks[f"pq/{family}/counts-vs-e-prime"]["status"] == "pass"
            assert checks[f"pq/{family}/orbits-vs-class-table"]["status"] == "pass"
        assert checks["type4/closure-oracle-agrees"]["status"] == "pass"
        assert all(c["status"] == "pass" for name, c in checks.items()
                   if not name.startswith("pq/"))

    def test_pq_group_past_the_oracle_gate_is_still_checked(self, capsys):
        # |Hol| = 65 x 48 is past the oracle's gate, but the search runs
        code, out, _ = run(capsys, "verify", "--p", "13", "--q", "5", "--pq")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["pq/PQ-Cyclic/counts-vs-e-prime"]["status"] == "pass"
        assert checks["pq/PQ-Cyclic/orbits-vs-class-table"]["status"] == "pass"
        oracle = checks["pq/PQ-Cyclic/closure-oracle-agrees"]
        assert oracle["status"] == "skipped"
        assert oracle["reason"].startswith("oracle-too-large:")
        assert "pq/enumeration" not in checks

    def test_group_with_every_route_gated_reports_only_skips(self, monkeypatch):
        monkeypatch.setattr(routes, "GFE_SEARCH_BUDGET", 0)
        report = cli.verify_run(3, 2, oracle_limit=0, with_pq=True)
        assert report["ok"] is True
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["type4/structured-vs-e-prime"] == "pass"
        assert statuses["type4/orbits-vs-class-table"] == "pass"
        assert {n: s for n, s in statuses.items() if n.startswith("pq/PQ-Cyclic/")} == {
            "pq/PQ-Cyclic/gfe-search-agrees": "skipped",
            "pq/PQ-Cyclic/closure-oracle-agrees": "skipped",
        }

    def test_pq_checks_follow_the_p2q_report(self):
        plain = cli.verify_run(3, 2)["checks"]
        both = cli.verify_run(3, 2, with_pq=True)["checks"]
        assert both[:len(plain)] == plain
        assert plain[-2:] == [c for c in plain if "/" not in c["name"]]
        assert len(both) > len(plain)
        assert all(c["name"].startswith("pq/PQ-") for c in both[len(plain):])

    def test_records_are_built_only_for_each_groups_first_route(self, monkeypatch):
        # later routes are compared with the first as key sets, so no
        # record is built for them
        built = []
        build = routes.brace_from_gamma

        def counting(gamma):
            built.append(gamma.spec.family)
            return build(gamma)

        monkeypatch.setattr(routes, "brace_from_gamma", counting)
        report = cli.verify_run(3, 2, with_pq=True)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["type4/gfe-search-agrees"] == "pass"
        assert statuses["type4/closure-oracle-agrees"] == "pass"
        assert statuses["pq/PQ-Metacyclic/closure-oracle-agrees"] == "pass"
        reported = sum(
            sum(c["detail"]["got"].values()) for c in report["checks"]
            if c["name"].endswith(("/structured-vs-e-prime", "/counts-vs-e-prime"))
        )
        assert reported == 4 + 56 + 2 + 8
        # one record is built per orbit: its least table is checked and
        # classified, and the other members inherit the circle type
        orbits = sum(
            sum(c["detail"]["got"].values()) for c in report["checks"]
            if c["name"].endswith("/orbits-vs-class-table")
        )
        assert len(built) == orbits

    def test_incomplete_orbit_is_a_failed_check(self, capsys, monkeypatch):
        structured = routes.structured_enumerate

        def drop_last(spec):
            result = structured(spec)
            if spec.family == "P2Q-Type4":
                del result.gammas[max(result.gammas)]  # its conjugates now leave the set
            return result

        monkeypatch.setattr(routes, "structured_enumerate", drop_last)
        code, out, _ = run(capsys, "verify", "--p", "3", "--q", "2")
        assert code == 1
        check = next(c for c in json.loads(out)["checks"]
                     if c["name"] == "type4/orbits-vs-class-table")
        assert check["status"] == "fail"
        assert "conjugation left the enumerated set" in check["detail"]

    @pytest.mark.slow
    def test_square_division_pair_searches_every_group(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "3", "--q", "19")
        assert code == 0
        report = json.loads(out)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["type3/closure-oracle-agrees"] == "skipped"
        assert statuses["type2/gfe-search-agrees"] == "pass"
        assert statuses["type3/gfe-search-agrees"] == "pass"

    @pytest.mark.slow
    def test_type4_with_odd_acting_prime_is_searched(self, capsys):
        # |G| x |Aut| = 147 x 2058 = 302,526 is within the search budget
        code, out, _ = run(capsys, "verify", "--p", "7", "--q", "3")
        assert code == 0
        report = json.loads(out)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["type4/gfe-search-agrees"] == "pass"

    @pytest.mark.slow
    def test_raised_oracle_limit_covers_medium_pair(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "3", "--q", "7",
                           "--oracle-limit", "8000")
        assert code == 0
        report = json.loads(out)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["type1/closure-oracle-agrees"] == "pass"
        assert statuses["type2/closure-oracle-agrees"] == "pass"


class TestBenchmarkPins:
    # the benchmark's byte pins, checked here on every test run; the pins
    # file is read, never written
    PINS = json.loads(
        (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text()
    )

    ARGV = {
        "structured-type4-7-3": ("--p", "7", "--q", "3", "--type", "4"),
        "structured-type2-5-11": ("--p", "5", "--q", "11", "--type", "2"),
        "oracle-type4-3-2": ("--p", "3", "--q", "2", "--type", "4", "--method", "oracle"),
    }

    @pytest.mark.parametrize("op_id", list(ARGV))
    def test_enumerate_output_matches_pinned_sha256(self, capsys, op_id):
        code, out, _ = run(capsys, "enumerate", *self.ARGV[op_id])
        assert code == 0
        pin = self.PINS[op_id]
        assert len(out.encode()) == pin["jsonl_bytes"]
        assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]


class TestOracleLimit:
    @pytest.mark.parametrize("argv", [
        ("enumerate", "--p", "3", "--q", "2", "--type", "4", "--method", "oracle"),
        ("verify", "--p", "3", "--q", "2"),
    ])
    def test_negative_limit_is_bad_input(self, capsys, monkeypatch, argv):
        def refuse(spec):
            raise AssertionError("a route ran before the input was rejected")

        monkeypatch.setattr(routes, "structured_enumerate", refuse)
        code, out, err = run(capsys, *argv, "--oracle-limit", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --oracle-limit")

    def test_zero_limit_gates_the_oracle(self, capsys):
        code, _, err = run(capsys, "enumerate", "--p", "3", "--q", "2", "--type", "4",
                           "--method", "oracle", "--oracle-limit", "0")
        assert code == 3
        assert err.startswith("error: oracle-too-large:")


class TestAutGate:
    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--p", "11", "--q", "5", "--type", "4"),
            ("verify", "--p", "11", "--q", "5"),
            ("enumerate", "--p", "3", "--q", "1109", "--type", "1"),
            ("verify", "--p", "3", "--q", "1109"),
        ],
    )
    def test_large_aut_exits_3_promptly(self, capsys, argv):
        # Type4 (11, 5): |Aut| = 13,310, so comp alone would be ~709 MB;
        # Type1 (3, 1109): |G| = 9,981, so mul_table alone would be ~398 MB
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith("error: aut-too-large:")


class TestPq:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "pq", "--p", "3", "--q", "2")
        assert code == 0
        assert "PQ-Cyclic,PQ-Metacyclic,6,2,2x3" in out

    def test_json_is_the_shared_rendering(self, capsys):
        code, out, err = run(capsys, "pq", "--p", "7", "--q", "3", "--format", "json")
        assert code == 0
        assert err == ""
        assert out == counts.table_json(counts.pq_tables(7, 3)) + "\n"

    def test_needs_p_larger(self, capsys):
        code, _, _ = run(capsys, "pq", "--p", "3", "--q", "7")
        assert code == 2

    def test_huge_prime_answers_promptly(self, capsys):
        p = 1000000000000000003
        start = time.perf_counter()
        code, out, _ = run(capsys, "pq", "--p", str(p), "--q", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert f"PQ-Cyclic,PQ-Metacyclic,{2 * p},2,2x{p}" in out
        assert f"PQ-Metacyclic,PQ-Cyclic,1,{p},1x1" in out


class TestClassifyCayley:
    def test_dihedral_like(self, capsys, tmp_path):
        spec = groups.make_group("P2Q-Type4", 3, 2)
        path = tmp_path / "d9.json"
        path.write_text(cayley_to_json(spec.mul_table))
        code, out, _ = run(capsys, "classify-cayley", "--in", str(path))
        assert code == 0 and out.strip() == "Type4"

    def test_cyclic_pq_order(self, capsys, tmp_path):
        spec = groups.make_group("PQ-Cyclic", 3, 2)
        path = tmp_path / "c6.json"
        path.write_text(cayley_to_json(spec.mul_table))
        code, out, _ = run(capsys, "classify-cayley", "--in", str(path))
        assert code == 0 and out.strip() == "PQ-Cyclic"

    def test_other_carries_fingerprint(self, capsys, tmp_path):
        from test_groups import _direct_product_table

        path = tmp_path / "ab.json"
        path.write_text(cayley_to_json(_direct_product_table([3, 3, 2])))
        code, out, _ = run(capsys, "classify-cayley", "--in", str(path))
        assert code == 0
        assert out.startswith("Other ")
        assert json.loads(out[6:])["abelian"] is True
        assert out == (
            'Other {"n": 18, "p": 3, "q": 2, "abelian": true, "cyclic": false, '
            '"has_p2_element": false, "center_size": 18, "sylow_p_normal": true, '
            '"sylow_q_normal": true}\n'
        )

    def test_other_line_with_non_normal_sylow(self, capsys, tmp_path):
        # S3 x C2 has order 2^2 3 and three Sylow 2-subgroups
        s3 = groups.make_group("PQ-Metacyclic", 3, 2).mul_table
        c2 = np.array([[0, 1], [1, 0]])
        path = tmp_path / "d6.json"
        table = (s3[:, None, :, None] * 2 + c2[None, :, None, :]).reshape(12, 12)
        path.write_text(cayley_to_json(table))
        code, out, _ = run(capsys, "classify-cayley", "--in", str(path))
        assert code == 0
        assert out == (
            'Other {"n": 12, "p": 2, "q": 3, "abelian": false, "cyclic": false, '
            '"has_p2_element": false, "center_size": 2, "sylow_p_normal": false, '
            '"sylow_q_normal": true}\n'
        )

    def test_non_associative_table(self, capsys, tmp_path):
        table = np.array([
            [0, 1, 2, 3, 4, 5],
            [1, 0, 3, 2, 5, 4],
            [2, 3, 4, 5, 0, 1],
            [3, 2, 5, 4, 1, 0],
            [4, 5, 0, 1, 3, 2],
            [5, 4, 1, 0, 2, 3],
        ])
        path = tmp_path / "bad.json"
        path.write_text(cayley_to_json(table))
        code, _, err = run(capsys, "classify-cayley", "--in", str(path))
        assert code == 2

    def test_large_cyclic_table_is_answered_promptly(self, capsys, tmp_path):
        # order 2 x 499: associativity is checked on two generators, not
        # on every row
        path = tmp_path / "c998.json"
        path.write_text(cayley_to_json(groups.make_group("PQ-Cyclic", 499, 2).mul_table))
        start = time.perf_counter()
        code, out, _ = run(capsys, "classify-cayley", "--in", str(path))
        assert time.perf_counter() - start < 1.5
        assert code == 0 and out == "PQ-Cyclic\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify-cayley", "--in", str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        code, _, _ = run(capsys, "classify-cayley", "--in", str(path))
        assert code == 2

    @pytest.mark.parametrize("n,entry", [
        ("2", "99999999999"), ("2", "null"), ("2", "{}"), ("2", "1.5"),
        ("true", "1"), ("2.0", "1"),
    ])
    def test_malformed_input_is_bad_input(self, capsys, tmp_path, n, entry):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"n": {n}, "table": [[0, {entry}], [1, 0]]}}')
        t0 = time.perf_counter()
        code, _, err = run(capsys, "classify-cayley", "--in", str(path))
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_deep_nesting_is_bad_input(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"n": 2, "table": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, _, err = run(capsys, "classify-cayley", "--in", str(path))
        assert code == 2 and err.startswith("error: ")

    def test_fractional_entry_is_not_truncated(self, capsys, tmp_path):
        table = groups.make_group("PQ-Cyclic", 3, 2).mul_table.tolist()
        table[0][1] += 0.5
        path = tmp_path / "c6.json"
        path.write_text(json.dumps({"n": 6, "table": table}))
        code, _, err = run(capsys, "classify-cayley", "--in", str(path))
        assert code == 2 and err.startswith("error: ")

    _json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=3), children, max_size=3),
        max_leaves=8,
    )

    @given(
        n=st.integers(min_value=-1, max_value=7) | _json_values,
        table=st.lists(
            st.lists(st.integers(min_value=-1, max_value=7) | _json_values, max_size=7),
            max_size=7,
        ),
    )
    def test_any_json_is_answered_or_rejected(self, tmp_path_factory, n, table):
        path = tmp_path_factory.mktemp("fuzz") / "t.json"
        path.write_text(json.dumps({"n": n, "table": table}))
        assert cli.main(["classify-cayley", "--in", str(path)]) in (0, 2)


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
           73, 79, 83, 89, 97, 101, 211, 1009, 1999, 9973]
_NOT_PRIME = (
    st.integers(max_value=1)
    | st.builds(lambda a, b: a * b, st.integers(2, 200), st.integers(2, 200))
    | st.integers(arith.PRIME_TEST_BOUND, 10**6 * arith.PRIME_TEST_BOUND)
)
_ANY = st.integers() | st.sampled_from(_PRIMES) | _NOT_PRIME
# no group of order p^2 q (nor pq) in scope has these parameters
_BAD_PAIRS = st.one_of(
    st.tuples(_NOT_PRIME, _ANY),
    st.tuples(_ANY, _NOT_PRIME),
    st.sampled_from(_PRIMES).map(lambda r: (r, r)),
    st.tuples(st.just(2), _ANY),
    st.tuples(st.sampled_from(_PRIMES), st.sampled_from(_PRIMES)).filter(
        lambda pq: pq[0] * pq[0] * pq[1] > arith.MAX_GROUP_ORDER),
)
_SMALL_PAIRS = st.tuples(st.sampled_from(_PRIMES[:25]), st.sampled_from(_PRIMES[:25]))


class TestFuzzPrimes:
    @given(data=st.data())
    def test_any_p_q_is_answered_or_rejected_promptly(self, data):
        command = data.draw(st.sampled_from(["tables", "pq", "enumerate", "verify"]))
        pairs = _BAD_PAIRS | _SMALL_PAIRS if command in ("tables", "pq") else _BAD_PAIRS
        p, q = data.draw(pairs)
        argv = [command, f"--p={p}", f"--q={q}"]
        if command == "enumerate":
            method = data.draw(st.sampled_from(["structured", "search", "oracle"]))
            argv += [f"--type={data.draw(st.integers(1, 4))}", f"--method={method}"]
        elif command == "verify" and data.draw(st.booleans()):
            argv.append("--pq")
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert time.perf_counter() - start < 1.0
        assert code in (0, 2, 3)
        assert (code == 0) == (err.getvalue() == "")
