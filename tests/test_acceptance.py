"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion verdict
lines, or ``-v -s`` for the CRITERION summaries as well.
"""

import json
import re
import time

from qduadic.cli import EXIT_OK, EXIT_PARTIAL, main
from qduadic.duadic import build_quartet, splitting_by
from qduadic.galois import field_from_order
from qduadic.stabilizer import stabilizer_params


def _run(capsys, *argv):
    t0 = time.monotonic()
    code = main(list(argv))
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None, elapsed


def _report(num, detail):
    print(f"CRITERION {num}: PASS — {detail}")


def _strip_timing(text: str) -> str:
    return re.sub(r'"timing": \{[^}]*\}', '"timing": {}', text)


def test_criterion_01_css_7_2(capsys):
    code, doc, elapsed = _run(capsys, "build", "css", "7", "2")
    st = doc["stabilizer"]
    assert code == EXIT_OK
    assert (st["n"], st["k"], st["q"]) == (7, 1, 2)
    # level 1 of D0 = [7, 4]: its 4 rows, where ceil(7*2/4) = 4, odd 5
    assert st["d"] == {"kind": "exact", "lo": 3, "hi": 3,
                       "method": "brouwer_zimmermann", "work": 4}
    assert st["purity"]["kind"] == "exact" and st["purity"]["lo"] == 4
    assert st["degenerate"] == "no"
    assert st["bound_checks"]["mu_minus1_splitting"] is True
    assert st["bound_checks"]["d_sq_minus_d_plus_1_ge_n"] is True  # 7 >= 7
    assert elapsed < 1.0
    _report(1, f"[[7,1,3]]_2 purity 4 nondegenerate in {elapsed:.2f}s")


def test_criterion_02_css_17_2(capsys):
    code, doc, elapsed = _run(capsys, "build", "css", "17", "2")
    st = doc["stabilizer"]
    assert code == EXIT_OK
    assert (st["n"], st["k"], st["q"]) == (17, 1, 2)
    assert st["d"]["kind"] == "exact" and st["d"]["lo"] == 5  # 25 >= 17
    assert st["bound_checks"]["d_squared_ge_n"] is True
    assert st["bound_checks"]["mu_minus1_splitting"] is False  # ord_17(2) = 8
    assert elapsed < 1.0
    _report(2, f"[[17,1,5]]_2 exact in {elapsed:.2f}s")


def test_criterion_03_css_23_2(capsys):
    code, doc, elapsed = _run(capsys, "build", "css", "23", "2")
    st = doc["stabilizer"]
    assert code == EXIT_OK
    assert (st["n"], st["k"], st["q"]) == (23, 1, 2)
    assert st["d"]["kind"] == "exact" and st["d"]["lo"] == 7
    assert st["bound_checks"]["mu_minus1_splitting"] is True  # ord_23(2) = 11
    assert st["bound_checks"]["d_sq_minus_d_plus_1_ge_n"] is True  # 43 >= 23
    assert elapsed < 1.0
    _report(3, f"[[23,1,7]]_2 exact, mu_-1 splitting, in {elapsed:.2f}s")


def test_criterion_04_css_31_2(capsys):
    code, doc, elapsed = _run(capsys, "build", "css", "31", "2")
    st = doc["stabilizer"]
    assert code == EXIT_OK
    assert (st["n"], st["k"], st["q"]) == (31, 1, 2)
    assert st["d"]["kind"] == "exact" and st["d"]["lo"] == 7  # 43 >= 31
    assert st["bound_checks"]["mu_minus1_splitting"] is True  # ord_31(2) = 5
    assert elapsed < 5.0
    _report(4, f"[[31,1,7]]_2 exact in {elapsed:.2f}s")


def test_criterion_05_css_49_2_degenerate(capsys):
    code, doc, elapsed = _run(capsys, "build", "css", "49", "2",
                              "--workers", "4")
    st = doc["stabilizer"]
    assert code == EXIT_OK
    assert (st["n"], st["k"], st["q"]) == (49, 1, 2)
    assert st["purity"]["kind"] == "exact" and st["purity"]["lo"] == 4
    assert st["d"]["kind"] == "exact"
    d = st["d"]["lo"]
    assert d >= 8 and d * d - d + 1 >= 49
    assert st["degenerate"] == "yes"
    assert st["purity_agreement"] == "agrees"
    assert elapsed <= 600.0
    _report(5, f"[[49,1,{d}]]_2 purity 4 degenerate in {elapsed:.2f}s")


def test_criterion_06_hermitian_7_2(capsys):
    code, doc, elapsed = _run(capsys, "build", "hermitian", "7", "2")
    st = doc["stabilizer"]
    assert code == EXIT_OK
    assert (st["n"], st["k"], st["q"]) == (7, 1, 2)
    assert st["d"]["kind"] == "exact" and st["d"]["lo"] == 3
    assert doc["splitting"]["q"] == 4
    # the dual identity holds both by defining sets and by polynomials: D0
    # has the dimension of C0^{perp_h}, and its generator rows are checked
    # orthogonal to the conjugated rows of C0
    qt = build_quartet(splitting_by(7, 4, 5), field_from_order(4))
    p = stabilizer_params(qt.splitting, qt, "hermitian")
    assert p.d.value == 3
    assert elapsed < 1.0
    _report(6, f"Hermitian [[7,1,3]]_2 dual identity checked both ways "
               f"in {elapsed:.2f}s")


def test_criterion_07_verify_q2_to_61(capsys):
    code, doc, elapsed = _run(capsys, "verify", "--q", "2", "--max-n", "61")
    assert code == EXIT_OK
    assert doc["all_passed"] is True and doc["failures"] == []
    expected_checks = {
        "splitting_iff_quadratic_residue",    # (a)
        "odd_like_weights_equal",             # (b)
        "square_root_bound",                  # (c)
        "square_root_bound_mu_minus1",        # (c)
        "dual_defining_set_matches_matrix",   # (d)
        "mu_image_weight_distribution",       # (e)
        "mu_minus1_equals_mu_minus_q",        # (f)
    }
    tallies = doc["tallies"]
    assert expected_checks <= set(tallies)
    for name, t in tallies.items():
        assert t["failed"] == 0, name
    for name in expected_checks:
        assert tallies[name]["passed"] > 0, name
    # the duals of every materialized quartet are checked, and its searched
    # d and purity compared with the distributions, n = 41, 47 and 49 among
    # them
    assert (tallies["dual_defining_set_matches_matrix"]["passed"]
            == tallies["extremes_match_distribution"]["passed"] == 7)
    total = sum(t["passed"] for t in tallies.values())
    _report(7, f"verify q=2 n<=61: {total} checks, zero violations, "
               f"{elapsed:.2f}s")


def test_criterion_08_hermitian_343_certificate(capsys):
    code, doc, elapsed = _run(capsys, "build", "hermitian", "343", "2")
    st = doc["stabilizer"]
    assert code == EXIT_PARTIAL  # honest partial result, not a fabricated one
    assert doc["quartet"] is None  # dimension-172 GF(4) codes not materialized
    assert st["d"]["kind"] == "interval" and st["d"]["method"] == \
        "defining_set_theory"
    assert st["degenerate"] == "undecided"
    cert = st["certificate"]
    assert cert["hypotheses_met"] is True
    (prime,) = cert["primes"]
    assert prime["p"] == 7 and prime["p"] % 4 == 3  # 7 = -1 mod 4
    assert prime["t"] == 3  # computed multiplicative order
    assert prime["m"] == 3 and prime["z"] == 1 and prime["m"] > 2 * prime["z"]
    _report(8, f"n=343 certificate + interval "
               f"[{st['d']['lo']}, {st['d']['hi']}], undecided, "
               f"{elapsed:.2f}s")


def test_criterion_09_determinism(capsys):
    outputs = []
    for argv in (["build", "css", "31", "2", "--workers", "1"],
                 ["build", "css", "31", "2", "--workers", "1"],
                 ["build", "css", "31", "2", "--workers", "4"]):
        assert main(argv) == EXIT_OK
        outputs.append(_strip_timing(capsys.readouterr().out))
    assert outputs[0] == outputs[1] == outputs[2]

    herm = []
    for _ in range(2):
        assert main(["build", "hermitian", "343", "2"]) == EXIT_PARTIAL
        herm.append(_strip_timing(capsys.readouterr().out))
    assert herm[0] == herm[1]
    _report(9, "repeat runs and worker counts byte-identical modulo timing")
