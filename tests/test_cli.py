import json
import time

import numpy as np
import pytest

from p2qbrace import cli, groups
from p2qbrace import enumerate as routes


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
        search = routes.gfe_search

        def drop_one_on_pq(spec, *args, **kwargs):
            result = search(spec, *args, **kwargs)
            if spec.family.startswith("PQ-"):
                result.gammas.popitem()
            return result

        monkeypatch.setattr(routes, "gfe_search", drop_one_on_pq)
        code, out, _ = run(capsys, "verify", "--p", "3", "--q", "2", "--pq")
        assert code == 1
        statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert statuses["pq/enumeration"] == "fail"
        assert statuses["type4/gfe-search-agrees"] == "pass"
        assert not any(name.startswith("pq/PQ-") for name in statuses)

    def test_records_are_built_only_for_structured_and_pq_oracle(self, monkeypatch):
        # search and p^2 q oracle results are compared as key sets, so
        # no record is built for them
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
        reported = sum(
            sum(c["detail"]["got"].values()) for c in report["checks"]
            if c["name"].endswith(("/structured-vs-e-prime", "/counts-vs-e-prime"))
        )
        assert reported == 4 + 56 + 2 + 8
        assert len(built) == reported

    def test_incomplete_orbit_is_a_failed_check(self, capsys, monkeypatch):
        structured = routes.structured_enumerate

        def drop_last(spec):
            result = structured(spec)
            if spec.family == "P2Q-Type4":
                result.braces.pop()  # its conjugates now leave the set
            return result

        monkeypatch.setattr(routes, "structured_enumerate", drop_last)
        code, out, _ = run(capsys, "verify", "--p", "3", "--q", "2")
        assert code == 1
        check = next(c for c in json.loads(out)["checks"]
                     if c["name"] == "type4/orbits-vs-class-table")
        assert check["status"] == "fail"
        assert "conjugation left the enumerated set" in check["detail"]

    @pytest.mark.slow
    def test_square_division_pair_passes_with_gate_skips(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "3", "--q", "19")
        assert code == 0
        report = json.loads(out)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["type3/closure-oracle-agrees"] == "skipped"
        assert statuses["type2/gfe-search-agrees"] == "skipped"
        assert statuses["type3/gfe-search-agrees"] == "pass"

    @pytest.mark.slow
    def test_raised_oracle_limit_covers_medium_pair(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "3", "--q", "7",
                           "--oracle-limit", "8000")
        assert code == 0
        report = json.loads(out)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["type1/closure-oracle-agrees"] == "pass"
        assert statuses["type2/closure-oracle-agrees"] == "pass"


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
        path.write_text(groups.cayley_to_json(spec.mul_table))
        code, out, _ = run(capsys, "classify-cayley", "--in", str(path))
        assert code == 0 and out.strip() == "Type4"

    def test_cyclic_pq_order(self, capsys, tmp_path):
        spec = groups.make_group("PQ-Cyclic", 3, 2)
        path = tmp_path / "c6.json"
        path.write_text(groups.cayley_to_json(spec.mul_table))
        code, out, _ = run(capsys, "classify-cayley", "--in", str(path))
        assert code == 0 and out.strip() == "PQ-Cyclic"

    def test_other_carries_fingerprint(self, capsys, tmp_path):
        from test_groups import _direct_product_table

        path = tmp_path / "ab.json"
        path.write_text(groups.cayley_to_json(_direct_product_table([3, 3, 2])))
        code, out, _ = run(capsys, "classify-cayley", "--in", str(path))
        assert code == 0
        assert out.startswith("Other ")
        assert json.loads(out[6:])["abelian"] is True

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
        path.write_text(groups.cayley_to_json(table))
        code, _, err = run(capsys, "classify-cayley", "--in", str(path))
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify-cayley", "--in", str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        code, _, _ = run(capsys, "classify-cayley", "--in", str(path))
        assert code == 2
