import json
import os
import subprocess
import sys
import time
from math import comb, gcd

import pytest

import qduadic
from qduadic import cyclic
from qduadic.cli import (
    EXIT_ASSERTION,
    EXIT_NONEXISTENT,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    SURVEY_COLUMNS,
    _survey_row,
    main,
    parse_budget,
)
from qduadic.distance import DEFAULT_BUDGET
from qduadic.duadic import (
    default_splitting,
    iter_splittings,
    materialize_quartet,
    splitting_by,
)
from qduadic.stabilizer import select_splitting


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


class TestParseBudget:
    def test_plain(self):
        assert parse_budget("1000") == 1000

    def test_power(self):
        assert parse_budget("2^26") == 2**26

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_budget("lots")


class TestExists:
    def test_positive(self, capsys):
        code, doc = run_json(capsys, "exists", "7", "2")
        assert code == EXIT_OK
        assert doc["exists"] is True and doc["ord_n_q"] == 3
        w = doc["quadratic_residue_witness"]
        assert w * w % 7 == 2

    def test_negative(self, capsys):
        code, doc = run_json(capsys, "exists", "5", "2")
        assert code == EXIT_NONEXISTENT and doc["exists"] is False

    def test_usage_gcd(self, capsys):
        code, _, _ = run(capsys, "exists", "6", "2")
        assert code == EXIT_USAGE

    def test_usage_no_args(self, capsys):
        assert run(capsys, "exists")[0] == EXIT_USAGE


class TestBuild:
    def test_css_7_2(self, capsys):
        code, doc = run_json(capsys, "build", "css", "7", "2")
        assert code == EXIT_OK
        st = doc["stabilizer"]
        assert (st["n"], st["k"], st["q"]) == (7, 1, 2)
        assert st["d"]["kind"] == "exact" and st["d"]["lo"] == 3
        assert st["purity"]["lo"] == 4 and st["degenerate"] == "no"
        assert doc["schema_version"] == 1

    def test_hermitian_7_2(self, capsys):
        code, doc = run_json(capsys, "build", "hermitian", "7", "2")
        assert code == EXIT_OK
        st = doc["stabilizer"]
        assert st["construction"] == "Hermitian" and st["q"] == 2
        assert st["d"]["lo"] == 3 and st["purity"]["lo"] == 4
        assert doc["splitting"]["q"] == 4  # codes live over GF(q^2)

    def test_nonexistent(self, capsys):
        code, out, err = run(capsys, "build", "css", "5", "2")
        assert code == EXIT_NONEXISTENT and out == ""
        assert "no duadic codes" in err

    def test_hermitian_refusal(self, capsys):
        # mu_{-2} gives no splitting of 11 over GF(4)
        code, out, err = run(capsys, "build", "hermitian", "11", "2")
        assert code == EXIT_NONEXISTENT and out == ""
        assert "refused" in err

    def test_partial_beyond_cap(self, capsys):
        code, doc = run_json(capsys, "build", "hermitian", "343", "2")
        assert code == EXIT_PARTIAL
        st = doc["stabilizer"]
        assert doc["quartet"] is None
        assert st["d"]["kind"] == "interval" and st["d"]["lo"] == 19
        assert st["degenerate"] == "undecided"
        assert st["certificate"]["hypotheses_met"] is True

    @pytest.mark.parametrize("construction", ["css", "hermitian"])
    def test_far_beyond_the_cap(self, capsys, construction):
        # GF(2^25012) is refused without printing its 7530-digit order
        code, out, err = run(capsys, "build", construction, "100049", "2")
        doc = json.loads(out)
        assert code == EXIT_PARTIAL and doc["quartet"] is None
        assert doc["stabilizer"]["d"]["method"] == "defining_set_theory"
        assert err.count("\n") == 1 and "beyond the cap" in err

    def test_splitting_id_roundtrip(self, capsys):
        _, doc = run_json(capsys, "build", "css", "7", "2")
        sid = doc["splitting"]["id"]
        code, doc2 = run_json(capsys, "build", "css", "7", "2",
                              "--splitting-id", sid)
        assert code == EXIT_OK
        # the id pins the side assignment {S0, S1}; "a" may legitimately differ
        for key in ("S0", "S1", "id", "n", "q"):
            assert doc2["splitting"][key] == doc["splitting"][key]
        assert doc2["stabilizer"] == doc["stabilizer"]

    def test_splitting_id_late_in_the_enumeration(self, capsys):
        # 88200776026d is splitting #2,064 (from 0) of the 3,984 of 85 over
        # GF(4), in the order of `iter_splittings`
        code, doc = run_json(capsys, "build", "css", "85", "4",
                             "--splitting-id", "88200776026d",
                             "--budget", "2^10")
        assert code == EXIT_PARTIAL
        assert doc["splitting"]["id"] == "88200776026d"
        assert doc["splitting"]["a"] == 42

    @pytest.mark.parametrize("n,q", [(7, 2), (31, 2), (21, 4)])
    def test_splitting_id_lookup_matches_scan(self, n, q):
        # every id, S0 and S1 sides alike, resolves to the first match of a
        # plain scan over each splitting and its swap, `a` included
        first = {}
        for s in iter_splittings(n, q):
            for cand in (s, s._replace(S0=s.S1, S1=s.S0)):
                first.setdefault(cand.splitting_id, cand)
        for sid, cand in first.items():
            assert select_splitting(n, q, "css", sid) == cand

    def test_unknown_splitting_id(self, capsys):
        assert run(capsys, "build", "css", "7", "2",
                   "--splitting-id", "ffffffffffff")[0] == EXIT_USAGE

    @pytest.mark.parametrize("argv,text", [
        (("7", "2", "--splitting-id="), ""),  # not the default splitting
        (("85", "4", "--splitting-id", "not-an-id"), "not-an-id"),
        (("7", "2", "--splitting-id", "DB957FF01314"), "DB957FF01314"),
        (("7", "2", "--splitting-id=db957ff0131"), "db957ff0131"),
    ], ids=["empty", "not_hex", "upper_case", "eleven_digits"])
    def test_malformed_splitting_id(self, capsys, monkeypatch, argv, text):
        # refused as a usage error before any splitting is enumerated
        import qduadic.duadic

        def enumerated(*args):
            raise AssertionError("splittings enumerated")

        monkeypatch.setattr(qduadic.duadic, "_sides", enumerated)
        code, out, err = run(capsys, "build", "css", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.splitlines()[1] == (
            "qduadic: error: argument --splitting-id: must be 12 lowercase "
            f"hex digits, got {text!r}")

    def test_hermitian_splitting_id_refusal(self, capsys):
        # splitting d1c340225ba6 of 7 over GF(9) is given by mu_3, not by
        # mu_(-3)
        code, out, err = run(capsys, "build", "hermitian", "7", "3",
                             "--splitting-id", "d1c340225ba6")
        assert code == EXIT_NONEXISTENT and out == ""
        assert err == ("splitting d1c340225ba6 is not given by mu_(-q); "
                       "Hermitian construction refused\n")

    def test_beyond_budget_golden(self, capsys):
        # the purity bound comes from levels 1 to 4 of C0, 1,153,327
        # candidates; C1 = mu_a(C0) is not searched
        code, doc = run_json(capsys, "build", "css", "73", "2",
                             "--budget", "2^22")
        assert code == EXIT_PARTIAL
        assert doc["splitting"]["id"] == "db957ff01314"
        st = doc["stabilizer"]
        assert st["d"] == {"kind": "interval", "lo": 9, "hi": 73,
                           "method": "defining_set_theory", "work": 0}
        assert st["purity"] == {"kind": "lower_bound", "lo": 5, "hi": None,
                                "method": "support_search", "work": 1153327}
        assert st["degenerate"] == "undecided"

    def test_beyond_budget_exact_purity(self, capsys):
        # 49/2 at 2^20 (C0 has k = 24): the support search of C0 meets a
        # codeword at level 4, and its work is the whole of levels 1 to 4;
        # purity 4 lies below the square-root bound 8 on d
        code, doc = run_json(capsys, "build", "css", "49", "2",
                             "--budget", "2^20")
        assert code == EXIT_PARTIAL
        st = doc["stabilizer"]
        assert st["purity"] == {"kind": "exact", "lo": 4, "hi": 4,
                                "method": "support_search", "work": 231525}
        assert 231525 == sum(comb(49, i) for i in range(1, 5))
        assert (st["d"]["kind"], st["d"]["lo"]) == ("interval", 8)
        assert st["degenerate"] == "yes"

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, stdout, _ = run(capsys, "build", "css", "7", "2",
                              "--output", str(out))
        assert code == EXIT_OK and stdout == ""
        assert json.loads(out.read_text())["stabilizer"]["d"]["lo"] == 3

    @pytest.mark.parametrize("argv", [
        ("build", "css", "7", "2", "--output="),
        ("exists", "7", "2", "--output", ""),
        ("survey", "--q", "2", "--max-n", "9", "--output="),
        ("verify", "--q", "2", "--max-n", "9", "--output", ""),
    ], ids=["build", "exists", "survey", "verify"])
    def test_empty_output(self, capsys, argv):
        # an empty FILE is a usage error, not stdout
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.splitlines()[1:] == [
            "qduadic: error: argument --output: expected a file name, got ''"]

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run(capsys, "build", "css", "17", "2",
                             "--output", str(target))
        assert code == EXIT_USAGE and out == ""
        assert err.count("\n") == 1 and "cannot write" in err

    def test_css_23_3_golden(self, capsys):
        code, doc = run_json(capsys, "build", "css", "23", "3")
        assert code == EXIT_OK
        st = doc["stabilizer"]
        assert (st["n"], st["k"], st["q"]) == (23, 1, 3)
        # levels 1-3 of D0 (k = 12) and of C0 (k = 11): the bound
        # ceil(23*4/k) reaches 8 and 9 at level 3
        assert st["d"] == {"kind": "exact", "lo": 8, "hi": 8,
                           "method": "brouwer_zimmermann",
                           "work": 12 + 66 * 2 + 220 * 4}
        assert st["purity"] == {"kind": "exact", "lo": 9, "hi": 9,
                                "method": "brouwer_zimmermann",
                                "work": 11 + 55 * 2 + 165 * 4}
        assert st["degenerate"] == "no"

    def test_hermitian_7_9_golden(self, capsys):
        code, doc = run_json(capsys, "build", "hermitian", "7", "9")
        assert code == EXIT_OK
        assert doc["splitting"]["id"] == "97e5bb9c23cc"
        st = doc["stabilizer"]
        assert (st["n"], st["k"], st["q"]) == (7, 1, 9)
        # level 1 alone: the rows of D0 (k = 4) and of C0 (k = 3), where
        # ceil(7*2/k) is 4 and 5
        assert st["d"] == {"kind": "exact", "lo": 4, "hi": 4,
                           "method": "brouwer_zimmermann", "work": 4}
        assert st["purity"] == {"kind": "exact", "lo": 5, "hi": 5,
                                "method": "brouwer_zimmermann", "work": 3}
        assert st["degenerate"] == "no"

    def test_budget_shorthand(self, capsys):
        code, doc = run_json(capsys, "build", "css", "17", "2",
                             "--budget", "2^20")
        assert code == EXIT_OK and doc["stabilizer"]["d"]["lo"] == 5

    EXACT_CHECKS = {"d_squared_ge_n": True, "mu_minus1_splitting": True,
                    "d_sq_minus_d_plus_1_ge_n": True,
                    "odd_like_weights_equal": True}
    VACUOUS_CHECKS = {"d_squared_ge_n": None, "mu_minus1_splitting": True,
                      "d_sq_minus_d_plus_1_ge_n": None,
                      "odd_like_weights_equal": None}

    # values recorded before the square-root report was built once per
    # build; the survey row's bounds_ok is None exactly when no check ran
    @pytest.mark.parametrize("argv,checks,bounds_ok", [
        (("css", "7", "2"), EXACT_CHECKS, True),  # binary search
        (("css", "17", "2"), {**EXACT_CHECKS, "mu_minus1_splitting": False,
                              "d_sq_minus_d_plus_1_ge_n": None}, True),
        (("css", "11", "3"), EXACT_CHECKS, True),  # odd q
        (("hermitian", "7", "2"), EXACT_CHECKS, True),  # over GF(4)
        (("css", "73", "2", "--budget", "2^22"), VACUOUS_CHECKS, None),
        (("css", "71", "2"), VACUOUS_CHECKS, None),  # theory: no quartet
    ])
    def test_bound_checks(self, capsys, argv, checks, bounds_ok):
        _, doc = run_json(capsys, "build", *argv)
        assert doc["stabilizer"]["bound_checks"] == checks
        construction, n, q, *budget = argv
        row = _survey_row(int(n), int(q), construction,
                          parse_budget(budget[-1]) if budget
                          else DEFAULT_BUDGET)
        assert row["bounds_ok"] is bounds_ok


class TestDeterminism:
    def _strip_timing(self, doc):
        doc = dict(doc)
        doc.pop("timing", None)
        return doc

    def test_repeat_runs_identical(self, capsys):
        _, a = run_json(capsys, "build", "css", "23", "2")
        _, b = run_json(capsys, "build", "css", "23", "2")
        assert self._strip_timing(a) == self._strip_timing(b)

    def test_workers_do_not_change_output(self, capsys):
        _, a = run_json(capsys, "build", "css", "31", "2", "--workers", "1")
        _, b = run_json(capsys, "build", "css", "31", "2", "--workers", "4")
        assert self._strip_timing(a) == self._strip_timing(b)

    def test_workers_split_the_extremes_scan(self, capsys):
        # the search runs in one process whatever --workers says
        _, a = run_json(capsys, "build", "css", "49", "2", "--workers", "1")
        _, b = run_json(capsys, "build", "css", "49", "2", "--workers", "4")
        assert self._strip_timing(a) == self._strip_timing(b)
        assert (a["stabilizer"]["d"]["lo"], a["stabilizer"]["purity"]["lo"],
                a["stabilizer"]["degenerate"]) == (9, 4, "yes")

    def test_keys_sorted(self, capsys):
        _, out, _ = run(capsys, "build", "css", "7", "2")
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestSurvey:
    def test_json_rows(self, capsys):
        code, doc = run_json(capsys, "survey", "--q", "2", "--max-n", "17")
        assert code == EXIT_OK
        rows = {r["n"]: r for r in doc["rows"]}
        assert set(rows) == {3, 5, 7, 9, 11, 13, 15, 17}
        assert rows[7]["exists"] and rows[7]["mu_minus1_splits"]
        assert not rows[5]["exists"]
        assert rows[17]["exists"] and not rows[17]["mu_minus1_splits"]
        assert rows[7]["d_lo"] == 3 and rows[7]["degenerate"] == "no"

    def test_csv_matches_json(self, capsys):
        import csv
        import io
        _, doc = run_json(capsys, "survey", "--q", "2", "--max-n", "9")
        code, out, _ = run(capsys, "survey", "--q", "2", "--max-n", "9",
                           "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == len(doc["rows"])
        for got, want in zip(rows, doc["rows"]):
            for key, val in want.items():
                assert got[key] == ("" if val is None else str(val))

    @pytest.mark.parametrize("argv", [
        ("--q", "2", "--max-n", "45"),
        ("--q", "4", "--max-n", "31"),
        ("--q", "3", "--max-n", "31", "--construction", "hermitian"),
    ], ids=["q2", "q4", "hermitian_q3"])
    def test_csv_bytes_match_dict_writer(self, capsys, tmp_path, argv):
        # the rows are joined by hand; the csv module's DictWriter, given
        # the JSON rows, writes the same bytes
        import csv
        import io
        _, doc = run_json(capsys, "survey", *argv)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=SURVEY_COLUMNS)
        writer.writeheader()
        writer.writerows(doc["rows"])
        out = tmp_path / "survey.csv"
        code, _, _ = run(capsys, "survey", *argv, "--format", "csv",
                         "--output", str(out))
        assert code == EXIT_OK
        assert out.read_bytes() == buf.getvalue().encode()

    def test_csv_without_rows_is_header_only(self, capsys):
        code, out, _ = run(capsys, "survey", "--q", "2", "--max-n", "1",
                           "--format", "csv")
        assert code == EXIT_OK
        assert out == ("n,q,exists,ord_n_q,mu_minus1_splits,mu_minus_q_splits,"
                       "d_kind,d_lo,d_hi,purity_kind,purity_lo,purity_hi,"
                       "degenerate,bounds_ok\r\n")

    def test_max_n_cap(self, capsys):
        assert run(capsys, "survey", "--q", "2", "--max-n", "99999")[0] == \
            EXIT_USAGE

    @pytest.mark.parametrize("construction,max_n,lengths", [
        ("css", 71, (7, 17, 23, 49, 71)),
        ("hermitian", 29, (29,)),
    ])
    def test_rows_match_build(self, capsys, construction, max_n, lengths):
        # exact, beyond the budget, and beyond the field cap (71 over GF(2),
        # 29 over GF(4)): a row holds what build reports for the same code
        _, doc = run_json(capsys, "survey", "--q", "2", "--max-n", str(max_n),
                          "--construction", construction, "--budget", "2^10")
        rows = {r["n"]: r for r in doc["rows"]}
        for n in lengths:
            _, report = run_json(capsys, "build", construction, str(n), "2",
                                 "--budget", "2^10")
            st, row = report["stabilizer"], rows[n]
            for key in ("d", "purity"):
                assert (row[key + "_kind"], row[key + "_lo"],
                        row[key + "_hi"]) == \
                    (st[key]["kind"], st[key]["lo"], st[key]["hi"]), (n, key)
            assert row["degenerate"] == st["degenerate"], n
        assert rows[max_n]["d_kind"] == "interval"

    @pytest.mark.parametrize("construction", ["css", "hermitian"])
    def test_row_finds_each_splitting_once(self, construction):
        # the row reads the splittings of mu_(-1) and mu_(-q) for two
        # columns and then builds one of them: two are found, one reused
        splitting_by.cache_clear()
        _survey_row(23, 2, construction, DEFAULT_BUDGET)
        info = splitting_by.cache_info()
        assert (info.misses, info.hits) == (2, 1)

    def test_caches_stay_at_their_bound(self, capsys):
        # 22 lengths over GF(4), 20 of them with a quartet under the field
        # cap: more than the per-length caches keep
        caches = (cyclic.cyclotomic_cosets, cyclic._coset_minpolys,
                  splitting_by)
        for cache in caches:
            cache.cache_clear()
        code, _, _ = run(capsys, "survey", "--q", "4", "--max-n", "45",
                         "--budget", "2^10")
        assert code == EXIT_OK
        for cache in caches:
            info = cache.cache_info()
            assert info.misses > cyclic.LENGTH_CACHE_SIZE
            assert info.currsize == info.maxsize == cyclic.LENGTH_CACHE_SIZE

    def test_bounds_ok_only_where_a_check_ran(self, capsys):
        import csv
        import io
        argv = ("survey", "--q", "2", "--max-n", "23", "--budget", "2^10")
        _, doc = run_json(capsys, *argv)
        rows = {r["n"]: r for r in doc["rows"]}
        assert rows[7]["bounds_ok"] is True  # exact: every check ran
        assert rows[23]["d_kind"] == "interval"
        assert rows[23]["bounds_ok"] is None
        _, out, _ = run(capsys, *argv, "--format", "csv")
        rows = {r["n"]: r for r in csv.DictReader(io.StringIO(out))}
        assert rows["7"]["bounds_ok"] == "True" and rows["23"]["bounds_ok"] == ""


class TestVerify:
    def test_small_suite_green(self, capsys):
        code, doc = run_json(capsys, "verify", "--q", "2", "--max-n", "17")
        assert code == EXIT_OK
        assert doc["all_passed"] is True and doc["failures"] == []
        assert sum(t["passed"] for t in doc["tallies"].values()) > 0
        assert all(t["failed"] == 0 for t in doc["tallies"].values())

    def test_gf3_suite(self, capsys):
        code, doc = run_json(capsys, "verify", "--q", "3", "--max-n", "13")
        assert code == EXIT_OK and doc["all_passed"] is True

    def test_macwilliams_tally(self, capsys):
        _, doc = run_json(capsys, "verify", "--q", "2", "--max-n", "23")
        # n = 7 and 17 are the lengths <= 21 with a binary splitting
        assert doc["tallies"]["macwilliams_matches_enumeration"] == \
            {"passed": 2, "failed": 0, "skipped": 0}

    def test_c1_is_enumerated_directly(self, capsys, monkeypatch):
        import qduadic.verify
        real = qduadic.verify.weight_distribution
        seen = []

        def recorded(C, *args, **kwargs):
            seen.append((C.n, frozenset(C.T.members)))
            return real(C, *args, **kwargs)

        monkeypatch.setattr(qduadic.verify, "weight_distribution", recorded)
        code, doc = run_json(capsys, "verify", "--q", "2", "--max-n", "31")
        assert code == EXIT_OK
        for n in (7, 17, 23, 31):  # the lengths with a binary splitting
            s = default_splitting(n, 2)
            assert (n, frozenset(s.S1 + (0,))) in seen
        assert doc["tallies"] == {
            "extremes_match_distribution":
                {"failed": 0, "passed": 4, "skipped": 0},
            "dual_defining_set_matches_matrix":
                {"failed": 0, "passed": 4, "skipped": 0},
            "hermitian_dual_is_D0": {"failed": 0, "passed": 3, "skipped": 0},
            "macwilliams_matches_enumeration":
                {"failed": 0, "passed": 2, "skipped": 0},
            "mu_image_weight_distribution":
                {"failed": 0, "passed": 3, "skipped": 0},
            "mu_minus1_equals_mu_minus_q":
                {"failed": 0, "passed": 3, "skipped": 0},
            "odd_like_weights_equal": {"failed": 0, "passed": 4, "skipped": 0},
            "shortening_matches_full_scan":
                {"failed": 0, "passed": 2, "skipped": 0},
            "splitting_iff_quadratic_residue":
                {"failed": 0, "passed": 15, "skipped": 0},
            "square_root_bound": {"failed": 0, "passed": 4, "skipped": 0},
            "square_root_bound_mu_minus1":
                {"failed": 0, "passed": 3, "skipped": 0},
        }

    def test_c1_check_is_not_vacuous(self, capsys, monkeypatch):
        import qduadic.verify
        real = qduadic.verify.weight_distribution

        # doctor only C1, which verify enumerates directly: C0's
        # distribution goes through the same weight_distribution
        c1 = frozenset(default_splitting(7, 2).S1 + (0,))

        def off_by_one(C, *args, **kwargs):
            A = real(C, *args, **kwargs)
            if frozenset(C.T.members) == c1:
                A = {**A, C.n: A.get(C.n, 0) + 1}
            return A

        monkeypatch.setattr(qduadic.verify, "weight_distribution", off_by_one)
        code, doc = run_json(capsys, "verify", "--q", "2", "--max-n", "7")
        assert code == EXIT_ASSERTION
        assert doc["tallies"]["odd_like_weights_equal"]["failed"] == 1

    def test_shortening_check_is_not_vacuous(self, capsys, monkeypatch):
        import qduadic.verify
        real = qduadic.verify._full_scan_distribution

        def off_by_one(C, *args, **kwargs):
            A = real(C, *args, **kwargs)
            return {**A, C.n: A.get(C.n, 0) + 1}

        monkeypatch.setattr(qduadic.verify, "_full_scan_distribution",
                            off_by_one)
        code, doc = run_json(capsys, "verify", "--q", "2", "--max-n", "7")
        assert code == EXIT_ASSERTION
        assert doc["tallies"]["shortening_matches_full_scan"] == \
            {"passed": 0, "failed": 1, "skipped": 0}

    def test_extremes_tally_bound(self, capsys):
        # every binary length with a splitting: 7, 17, 23, 31, 41, 47 and
        # the degenerate [[49,1,9]]_2
        _, doc = run_json(capsys, "verify", "--q", "2", "--max-n", "49")
        assert doc["tallies"]["extremes_match_distribution"] == \
            {"passed": 7, "failed": 0, "skipped": 0}
        # every q: 11 and 13 over GF(3)
        _, doc = run_json(capsys, "verify", "--q", "3", "--max-n", "13")
        assert doc["tallies"]["extremes_match_distribution"] == \
            {"passed": 2, "failed": 0, "skipped": 0}

    @staticmethod
    def _doctor_params(monkeypatch, n, change):
        """Make verify's stabilizer_params return change(params) at length
        n, as if build printed those parameters."""
        import qduadic.verify
        real = qduadic.verify.stabilizer_params

        def doctored(s, *args):
            params = real(s, *args)
            return change(params) if s.n == n else params

        monkeypatch.setattr(qduadic.verify, "stabilizer_params", doctored)

    def test_extremes_check_is_not_vacuous(self, capsys, monkeypatch):
        # a d two above the searched one at n = 17, as if the search had
        # stopped too early: the tally, not an abort, reports it
        self._doctor_params(monkeypatch, 17, lambda p: p._replace(
            d=p.d._replace(lo=p.d.lo + 2, hi=p.d.hi + 2)))
        for q, passed in ((2, 1), (4, 7)):  # 3, 5, ..., 15 over GF(4)
            code, doc = run_json(capsys, "verify", "--q", str(q), "--max-n",
                                 "17")
            assert code == EXIT_ASSERTION
            assert doc["tallies"]["extremes_match_distribution"] == \
                {"passed": passed, "failed": 1, "skipped": 0}
            assert doc["failures"] == [
                {"assertion": "extremes_match_distribution", "detail": "n=17"}]

    @pytest.mark.parametrize("q,n,name", [
        (2, 7, "square_root_bound"),  # 2^2 < 7
        (2, 23, "square_root_bound_mu_minus1"),  # 5^2 >= 23 > 5^2 - 5 + 1
    ])
    def test_square_root_violation_is_a_failed_tally(self, capsys,
                                                     monkeypatch, q, n, name):
        # a d below the bound from the histogram route alone: the bound
        # tallies and the comparison with the searched d fail, not an abort
        import qduadic.verify
        real = qduadic.verify._distributions
        d = {7: 2, 23: 5}[n]

        def distributions(quartet, *args):
            C, D, d0 = real(quartet, *args)
            return C, D, (d0._replace(lo=d, hi=d)
                          if quartet.n == n else d0)

        monkeypatch.setattr(qduadic.verify, "_distributions", distributions)
        code, out, err = run(capsys, "verify", "--q", str(q), "--max-n", "31")
        assert code == EXIT_ASSERTION and err == ""
        doc = json.loads(out)
        # at 7, mu_(-1) gives the splitting, and d = 2 breaks both bounds
        bounds = {7: [name, "square_root_bound_mu_minus1"], 23: [name]}[n]
        assert doc["failures"] == [
            *({"assertion": b, "detail": f"n={n} d_o={d}"} for b in bounds),
            {"assertion": "extremes_match_distribution", "detail": f"n={n}"}]
        # (passed, failed) of the square-root and mu_(-1) tallies
        tallies = {7: [(3, 1), (2, 1)], 23: [(4, 0), (2, 1)]}
        assert [(doc["tallies"][k]["passed"], doc["tallies"][k]["failed"])
                for k in ("square_root_bound",
                          "square_root_bound_mu_minus1")] == tallies[n]

    def test_verdict_check_is_not_vacuous(self, capsys, monkeypatch):
        # build prints the verdict of stabilizer_params, and verify compares
        # it with the one the distributions give: [[17,1,5]]_2 of purity 6
        # is not degenerate
        self._doctor_params(monkeypatch, 17,
                            lambda p: p._replace(degenerate="yes"))
        code, doc = run_json(capsys, "verify", "--q", "2", "--max-n", "31")
        assert code == EXIT_ASSERTION
        assert doc["failures"] == [
            {"assertion": "extremes_match_distribution", "detail": "n=17"}]
        assert doc["tallies"]["extremes_match_distribution"] == \
            {"passed": 3, "failed": 1, "skipped": 0}

    def test_square_root_violation_in_build_exits_4(self, capsys,
                                                     monkeypatch):
        import qduadic.stabilizer
        real = qduadic.stabilizer._checked

        def doctored(C, result, word, name, odd_like):
            result = real(C, result, word, name, odd_like)
            return (result._replace(lo=2, hi=2) if odd_like
                    else result)

        monkeypatch.setattr(qduadic.stabilizer, "_checked", doctored)
        code, out, err = run(capsys, "build", "css", "7", "2")
        assert code == EXIT_ASSERTION and out == ""
        assert err == ("internal error: square-root bound violated at n=7, "
                       "d_o=2: this is a theorem, so the implementation is "
                       "buggy\n")

    @pytest.mark.parametrize("max_n", ["10001", "100000"])
    def test_max_n_cap(self, capsys, max_n):
        t0 = time.monotonic()
        code, out, err = run(capsys, "verify", "--q", "2", "--max-n", max_n)
        assert time.monotonic() - t0 < 1
        assert code == EXIT_USAGE and out == ""
        assert err == "error: --max-n beyond desk scale (cap 10^4)\n"

    def test_no_check_is_not_a_pass(self, capsys):
        code, doc = run_json(capsys, "verify", "--q", "2", "--max-n", "1")
        assert doc["tallies"] == {} and doc["all_passed"] is False
        assert code == EXIT_ASSERTION


class TestInvariantFailures:
    def test_bad_transform_exits_4(self, capsys, monkeypatch):
        import qduadic.verify
        monkeypatch.setattr(qduadic.verify, "macwilliams",
                            lambda A, n, q: {0: 1, 1: q**n - 1})
        # builds read no distribution; verify's independent route does
        code, out, err = run(capsys, "verify", "--q", "3", "--max-n", "11")
        assert code == EXIT_ASSERTION and out == ""
        assert "internal error" in err

    # (purity, d) claimed by the searches of C0 = [7, 3] and D0 = [7, 4],
    # whose values are 4 and 3.  The ids name the least and greatest weights
    # of C0 that the binary route once read them from (d = 7 - greatest);
    # a claimed value comes with a word of that weight from a code of the
    # quartet, or with the zero word at weight 0
    @pytest.mark.parametrize("claim,message", [
        ((0, 3), "not a codeword of weight 0"),  # the zero word
        ((3, 3), "of the wrong parity"),  # an odd purity over GF(2)
        ((4, 2), "of the wrong parity"),  # an even d over GF(2)
        ((4, 5), "above the Singleton bound"),  # d > 7 - 4 + 1
        ((6, 3), "above the Singleton bound"),  # purity > 7 - 3 + 1
        ((4, 3), "not a codeword of weight 3"),  # a D1 word, not in D0
    ], ids=["zero_word", "odd_least", "odd_greatest", "greatest_n",
            "least_above_greatest", "witness_not_in_code"])
    def test_bad_extremes_exit_4(self, capsys, monkeypatch, claim, message):
        import qduadic.stabilizer
        real = qduadic.stabilizer.brouwer_zimmermann
        d1 = real(materialize_quartet(default_splitting(7, 2)).D1, True)[1]

        def claimed(C, odd_like=False):
            result, word = real(C, odd_like)
            value = claim[odd_like]
            if value == 0:
                word = (0,) * C.n
            elif odd_like and claim == (4, 3):
                word = d1  # D1's least odd-like word: weight 3
            return result._replace(lo=value, hi=value), word

        monkeypatch.setattr(qduadic.stabilizer, "brouwer_zimmermann", claimed)
        code, out, err = run(capsys, "build", "css", "7", "2")
        assert code == EXIT_ASSERTION and out == ""
        assert err.startswith("internal error") and message in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("budget", ["2^10", "2^26"],
                             ids=["support_search", "brouwer_zimmermann"])
    def test_c1_not_mu_a_image_exits_4(self, capsys, monkeypatch, budget):
        # C0 and D0 alone are searched, for C1 and D1 too, on both routes:
        # a C1 that is not mu_a(C0) is refused before any search
        import qduadic.cli
        import qduadic.stabilizer
        real = qduadic.cli.materialize_quartet
        searched = []

        def swapped(*args):
            quartet = real(*args)
            return quartet._replace(C1=quartet.C0)

        monkeypatch.setattr(qduadic.cli, "materialize_quartet", swapped)
        for name in ("support_search_min_weight", "brouwer_zimmermann"):
            monkeypatch.setattr(qduadic.stabilizer, name,
                                lambda *args: searched.append(args))
        code, out, err = run(capsys, "build", "css", "23", "2", "--budget",
                             budget)
        assert code == EXIT_ASSERTION and out == "" and searched == []
        assert err == ("internal error: C1 is not the mu_a image of C0, so "
                       "it cannot share C0's weight distribution (internal "
                       "bug)\n")

    @pytest.mark.parametrize("exc", ["SplittingError", "DistanceError",
                                     "CyclicCodeError", "AssertionError"])
    def test_each_invariant_error_exits_4(self, capsys, monkeypatch, exc):
        import qduadic.cli
        import qduadic.cyclic
        import qduadic.distance
        import qduadic.duadic
        error = {"SplittingError": qduadic.duadic.SplittingError,
                 "DistanceError": qduadic.distance.DistanceError,
                 "CyclicCodeError": qduadic.cyclic.CyclicCodeError,
                 "AssertionError": AssertionError}[exc]

        def broken(*args, **kwargs):
            raise error("broken invariant")

        monkeypatch.setattr(qduadic.cli, "stabilizer_params", broken)
        assert run(capsys, "build", "css", "7", "2")[0] == EXIT_ASSERTION
        # survey takes the same path and does not hide the failure in a
        # blank row
        code, out, err = run(capsys, "survey", "--q", "2", "--max-n", "7")
        assert code == EXIT_ASSERTION and out == ""
        assert err.splitlines()[-1] == "internal error: broken invariant"
        assert "Traceback" not in err

    def test_construction_error_exits_2(self, capsys, monkeypatch):
        # ConstructionError means "construction refused": build and survey
        # exit 2 with its message as the one stderr line, wherever it rises
        import qduadic.cli
        import qduadic.stabilizer

        def refused(*args, **kwargs):
            raise qduadic.stabilizer.ConstructionError("refused here")

        monkeypatch.setattr(qduadic.cli, "stabilizer_params", refused)
        for argv in (("build", "css", "7", "2"),
                     ("survey", "--q", "2", "--max-n", "7")):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_NONEXISTENT and out == ""
            assert err.splitlines()[-1] == "refused here"
            assert "Traceback" not in err

    def test_internal_field_error_exits_4(self, capsys, monkeypatch):
        # only a field beyond the cap leaves the quartet out: exit 3 with
        # the theory interval; any other FieldError is a fault
        import qduadic.galois
        code, out, err = run(capsys, "build", "css", "71", "2")
        assert code == EXIT_PARTIAL and json.loads(out)["quartet"] is None
        assert err == ("quartet not materialized: GF(2^35) has 34359738368 "
                       "elements, beyond the cap of 16777216; larger "
                       "extensions are out of scope\n")

        def broken(self):
            raise qduadic.galois.FieldError(
                "no generator found (internal error)")

        monkeypatch.setattr(qduadic.galois.Field, "_find_generator", broken)
        qduadic.galois.make_field.cache_clear()
        try:
            code, out, err = run(capsys, "build", "css", "7", "2")
        finally:
            qduadic.galois.make_field.cache_clear()
        assert code == EXIT_ASSERTION and out == ""
        assert err == ("internal error: no generator found "
                       "(internal error)\n")

    # doctored subcode histograms of the C0 of length 11 over GF(3), k = 5,
    # that verify enumerates (builds read no histogram), and the error each
    # one raises
    SUBCODE_FAULTS = {
        # 11 * 1 / (11 - 3) is not an integer
        "fractional": ({0: 1, 3: 1}, "which no cyclic code"),
        # rebuilds 1 + 11 * 23 words > 3^5
        "too_many_words": ({0: 1, 10: 23}, "more than q^k"),
        # a word of the subcode has c_(n-1) = 0, so its weight is below 11
        "full_weight": ({0: 1, 11: 1}, "which no cyclic code"),
    }

    @pytest.mark.parametrize("fault", SUBCODE_FAULTS)
    def test_shortening_invariants_exit_4(self, capsys, monkeypatch, fault):
        import qduadic.distance
        hist, message = self.SUBCODE_FAULTS[fault]
        monkeypatch.setattr(qduadic.distance, "_histogram",
                            lambda C, rows, workers: dict(hist))
        code, out, err = run(capsys, "verify", "--q", "3", "--max-n", "11")
        assert code == EXIT_ASSERTION and out == ""
        assert err.startswith("internal error") and message in err
        assert "Traceback" not in err and err.count("\n") == 1


class TestRobustness:
    def test_build_sweep_exit_codes(self, capsys):
        # every coprime (n, q) builds, proves nonexistence or gives intervals
        for construction in ("css", "hermitian"):
            for q in (2, 3, 4, 5, 7, 8, 9, 16, 25):
                for n in range(3, 26, 2):
                    if gcd(n, q) != 1:
                        continue
                    code, _, err = run(capsys, "build", construction, str(n),
                                       str(q), "--budget", "2^12")
                    assert code in (EXIT_OK, EXIT_NONEXISTENT, EXIT_PARTIAL), \
                        (construction, n, q, err)


HELP_SHOWS = ["exists", "build", "survey", "verify", "12 lowercase hex digits"]


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [
        ("--workers", "0"), ("--workers", "-3"),
        ("--budget", "0"), ("--budget", "-5"), ("--budget", "0^3"),
        ("--budget", "2^-1"), ("--budget", "0^-1"),
    ])
    def test_nonpositive_workers_and_budget(self, capsys, flag, value):
        code, out, err = run(capsys, "build", "css", "7", "2", flag, value)
        assert code == EXIT_USAGE and out == ""
        assert "usage:" in err and "positive integer" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--q", "6", "--max-n", "9"),
        ("survey", "--q", "6", "--max-n", "9"),
        ("survey", "--q", "1", "--max-n", "9"),
        ("survey", "--q", "-5", "--max-n", "9"),
        ("exists", "7", "-8"),
    ])
    def test_q_must_be_prime_power(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert "prime power" in err

    def test_bad_construction(self, capsys):
        assert run(capsys, "build", "steane", "7", "2")[0] == EXIT_USAGE

    def test_negative_n(self, capsys):
        assert run(capsys, "exists", "-3", "2")[0] == EXIT_USAGE

    @pytest.mark.parametrize("value", ["2^65", "3^1000000000", "3^41",
                                       str(2**64 + 1)])
    def test_budget_beyond_desk_scale(self, capsys, value):
        # refused before the power is computed, so 3^10^9 does not stall
        t0 = time.monotonic()
        code, out, err = run(capsys, "build", "css", "7", "2", "--budget",
                             value)
        assert time.monotonic() - t0 < 1
        assert code == EXIT_USAGE and out == ""
        assert "beyond desk scale" in err

    def test_length_beyond_the_factorization_cap(self, capsys):
        # refused before the quartet and the distances, not after them
        t0 = time.monotonic()
        code, out, err = run(capsys, "build", "css", "9999991", "2")
        assert time.monotonic() - t0 < 2
        assert code == EXIT_USAGE and out == ""
        assert err == ("error: n = 9999991 exceeds the trial-division cap "
                       "1000000\n")

    def test_exists_beyond_the_factorization_cap(self, capsys):
        # exists lists every coset, so a long n is refused at once, as build
        # refuses it, instead of printing a million cosets
        t0 = time.monotonic()
        code, out, err = run(capsys, "exists", "1000003", "2")
        assert time.monotonic() - t0 < 1
        assert code == EXIT_USAGE and out == ""
        assert err == ("error: n = 1000003 exceeds the trial-division cap "
                       "1000000\n")

    def test_budget_at_the_cap(self, capsys):
        assert run(capsys, "build", "css", "7", "2", "--budget", "2^64")[0] \
            == EXIT_OK

    # argv, exit code, and strings stdout must show
    @pytest.mark.parametrize("argv,expected,shown", [
        (("survey", "--q=2", "--max-n=9", "--format=csv"), EXIT_OK,
         ["n,q,exists"]),
        # options before positionals; 2^10 is too small to enumerate 23/2
        (("build", "--budget", "2^10", "css", "23", "2"), EXIT_PARTIAL,
         ['"support_search"']),
        (("survey", "--q", "2", "--max-n", "9", "--format", "json",
          "--format", "csv"), EXIT_OK, ["n,q,exists"]),  # the last one wins
        (("exists", "7", "2", "--bogus", "1"), EXIT_USAGE, []),
        (("verify", "--q", "2", "--max", "15"), EXIT_USAGE, []),
        (("exists", "7"), EXIT_USAGE, []),
        (("exists", "7", "2", "3"), EXIT_USAGE, []),
        (("verify", "--max-n", "15"), EXIT_USAGE, []),
        (("build", "css", "7", "2", "--budget"), EXIT_USAGE, []),
        (("build", "css", "7", "2", "--output", "--workers", "1"),
         EXIT_USAGE, []),
        (("survey", "--q", "2", "--max-n", "9", "--format", "xml"),
         EXIT_USAGE, []),
        (("exists", "seven", "2"), EXIT_USAGE, []),
        (("frobnicate", "7", "2"), EXIT_USAGE, []),
        (("-h",), EXIT_OK, HELP_SHOWS),
        (("--help",), EXIT_OK, HELP_SHOWS),
        (("build", "css", "-h"), EXIT_OK, HELP_SHOWS),
        (("verify", "--help"), EXIT_OK, HELP_SHOWS),
    ])
    def test_argv(self, capsys, argv, expected, shown):
        code, out, err = run(capsys, *argv)
        assert code == expected, err
        assert all(s in out for s in shown)
        if code == EXIT_USAGE:
            lines = err.splitlines()
            assert out == "" and len(lines) == 2
            assert lines[0].startswith("usage: qduadic ")
            assert lines[1].startswith("qduadic: error: ")

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        # the console script calls main() with no arguments
        monkeypatch.setattr(sys, "argv", ["qduadic", "exists", "7", "2"])
        code = main()
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["exists"] is True


class TestLargeQ:
    """q is tested by integer roots and Miller-Rabin, not trial division,
    so a large q answers at once."""

    MERSENNE = str(2**61 - 1)  # prime, and 1 mod 7

    @pytest.mark.parametrize("argv,expected", [
        (("exists", "7", MERSENNE), EXIT_OK),
        (("build", "css", "7", MERSENNE), EXIT_PARTIAL),  # theory only
        (("build", "hermitian", "7", MERSENNE), EXIT_PARTIAL),
        (("survey", "--q", MERSENNE, "--max-n", "15"), EXIT_OK),
        (("exists", "7", str(4294967291 * 4294967279)), EXIT_USAGE),
        (("build", "css", "7", str(4294967291 * 4294967279)), EXIT_USAGE),
        (("exists", "7", str(2**64 + 13)), EXIT_USAGE),  # beyond desk scale
    ])
    def test_answers_within_a_second(self, capsys, argv, expected):
        t0 = time.monotonic()
        code, _, err = run(capsys, *argv)
        assert time.monotonic() - t0 < 1
        assert code == expected, err

    def test_theory_interval(self, capsys):
        code, doc = run_json(capsys, "build", "css", "7", self.MERSENNE)
        assert code == EXIT_PARTIAL and doc["quartet"] is None
        assert doc["stabilizer"]["d"]["method"] == "defining_set_theory"

    def test_cap_message(self, capsys):
        code, _, err = run(capsys, "survey", "--q", str(2**64), "--max-n", "9")
        assert code == EXIT_USAGE and "desk scale" in err


def test_import_leaves_the_process_pool_out():
    # the pool is imported only when --workers > 1 asks for it; argv is
    # parsed from a table, without argparse and the gettext and locale it
    # loads; splitting ids are hashed by CPython's built-in SHA-256, so
    # neither hashlib nor OpenSSL's libcrypto is loaded; the records are
    # named tuples or plain classes, not dataclasses (which load copy); and
    # survey rows are joined by hand, without the csv module
    src = os.path.dirname(os.path.dirname(qduadic.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import os, sys, qduadic.cli; print(sorted("
         "m for m in ('concurrent.futures', 'multiprocessing', 'argparse', "
         "'gettext', 'locale', 'hashlib', '_hashlib', '_blake2', "
         "'dataclasses', 'copy', 'csv') "
         "if m in sys.modules), os.path.exists('/proc/self/maps') and "
         "'libcrypto' in open('/proc/self/maps').read())"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[] False"
