import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from math import gcd

import pytest
from oracles import generator_matrix, is_even_like, poly_divides

import qduadic
from qduadic.cyclic import (
    DefiningSet,
    cyclotomic_cosets,
    is_quadratic_residue,
    mu_apply,
    ord_mod,
)
from qduadic.duadic import (
    Splitting,
    SplittingError,
    build_quartet,
    default_splitting,
    degeneracy_certificate,
    duadic_exists,
    find_splittings,
    iter_splittings,
    materialize_quartet,
    p_adic_valuation,
    splitting_by,
)
from qduadic.galois import make_field
import qduadic.stabilizer
from qduadic.stabilizer import check_square_root_bound, stabilizer_params


class TestDuadicExists:
    def test_7_2(self):
        assert duadic_exists(7, 2) is True

    def test_5_2(self):
        assert duadic_exists(5, 2) is False

    def test_square_field_always_exists(self):
        for n in range(3, 40, 2):
            if gcd(n, 2) == 1:
                assert duadic_exists(n, 4) is True

    def test_preconditions(self):
        with pytest.raises(ValueError):
            duadic_exists(6, 5)
        with pytest.raises(ValueError):
            duadic_exists(9, 3)


class TestSplittingBy:
    def test_mu_minus1_n7(self):
        s = splitting_by(7, 2, 6)
        assert s.S0 == (1, 2, 4) and s.S1 == (3, 5, 6)

    def test_mu_minus1_n17_absent(self):
        # ord_17(2) = 8 is even and -1 is a power of 2 mod 17
        assert splitting_by(17, 2, 16) is None

    def test_mu_minus_q_n7_gf4(self):
        s = splitting_by(7, 4, 5)  # -2 mod 7
        assert s.S0 == (1, 2, 4) and s.S1 == (3, 5, 6)

    def test_sides_swapped_by_a(self):
        for n, q in [(7, 2), (17, 2), (23, 2), (31, 2), (49, 2)]:
            s = default_splitting(n, q)
            assert mu_apply(s.S0, s.a, n) == frozenset(s.S1)
            assert mu_apply(s.S1, s.a, n) == frozenset(s.S0)

    def test_mu_a_squared_fixes_sides(self):
        for n, q in [(7, 2), (17, 2), (49, 2), (7, 4)]:
            for s in find_splittings(n, q, limit=8):
                a2 = s.a * s.a % n
                assert mu_apply(s.S0, a2, n) == frozenset(s.S0)

    def test_invalid_splitting_rejected(self):
        with pytest.raises(SplittingError):
            Splitting(n=7, q=2, S0=(1, 2, 4), S1=(3, 5, 6), a=2)  # mu_2 fixes sides
        with pytest.raises(SplittingError):
            Splitting(n=7, q=2, S0=(1, 2, 3), S1=(4, 5, 6), a=6)  # not coset unions


class TestFindSplittings:
    def test_n7_all(self):
        out = find_splittings(7, 2)
        # mu_5 and mu_6 swap the same two sides as mu_3
        assert [(s.a, s.S0) for s in out] == [(3, (1, 2, 4)), (3, (3, 5, 6))]

    def test_n5_empty(self):
        assert find_splittings(5, 2) == []

    def test_n49_at_least_one(self):
        assert len(find_splittings(49, 2, limit=1)) == 1

    def test_existence_criterion_matches_theorem(self):
        for n in range(3, 62, 2):
            has = bool(find_splittings(n, 2, limit=1))
            assert has == is_quadratic_residue(2, n)

    def test_limit_respected(self):
        assert len(find_splittings(31, 2)) == 8
        assert len(find_splittings(31, 2, limit=3)) == 3

    def test_lazy_enumeration_is_the_same_order(self):
        lazy = iter_splittings(85, 4)
        assert [next(lazy) for _ in range(5)] == find_splittings(85, 4, limit=5)

    def test_splitting_id_stable(self):
        a = splitting_by(7, 2, 6).splitting_id
        b = splitting_by(7, 2, 6).splitting_id
        assert a == b and len(a) == 12


def _small_splittings():
    """Every splitting of n <= 31 over GF(2), GF(3), GF(4), GF(5) and GF(9)."""
    for q in (2, 3, 4, 5, 9):
        for n in range(3, 32, 2):
            if gcd(n, q) == 1:
                yield from iter_splittings(n, q)


# ids that other tests pin: the default splittings of css 73/2, of the
# Hermitian 7/9 (its codes lie over GF(81)), of css 23/4 and of css 13/9
GOLDEN_IDS = {(73, 2): "db957ff01314", (7, 81): "97e5bb9c23cc",
              (23, 4): "1a94b0eef396", (13, 9): "5dc236b7a62c"}

# rebuilds each splitting sent on stdin with CPython's built-in SHA-2 hidden
FALLBACK_SCRIPT = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from qduadic.duadic import Splitting
ids = [Splitting(*args).splitting_id for args in json.load(sys.stdin)]
print(json.dumps([ids, "hashlib" in sys.modules]))
"""


class TestSplittingId:
    def test_sha256_of_n_q_s0(self):
        splittings = list(_small_splittings())
        assert len(splittings) == 166
        for s in splittings:
            payload = f"{s.n}:{s.q}:{','.join(map(str, s.S0))}"
            digest = hashlib.sha256(payload.encode()).hexdigest()
            assert s.splitting_id == digest[:12]

    def test_hashlib_fallback_gives_the_same_ids(self):
        splittings = [*_small_splittings(),
                      *(default_splitting(*nq) for nq in GOLDEN_IDS)]
        src = os.path.dirname(os.path.dirname(qduadic.__file__))
        out = subprocess.run(
            [sys.executable, "-c", FALLBACK_SCRIPT],
            input=json.dumps([[s.n, s.q, s.S0, s.S1, s.a] for s in splittings]),
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True).stdout
        ids = [s.splitting_id for s in splittings]
        assert ids[-4:] == list(GOLDEN_IDS.values())
        assert json.loads(out) == [ids, True]


class TestQuartet:
    def test_n7_dimensions_and_types(self):
        qt = build_quartet(splitting_by(7, 2, 6), make_field(2))
        assert (qt.D0.k, qt.C0.k) == (4, 3)
        assert qt.D0.genpoly.coeffs == (1, 1, 0, 1)  # the Hamming code

    @pytest.mark.parametrize("n,q", [(7, 2), (17, 2), (23, 2), (31, 2), (7, 4)])
    def test_dimension_formula(self, n, q):
        from qduadic.galois import field_from_order
        qt = build_quartet(default_splitting(n, q), field_from_order(q))
        assert qt.D0.k == (n + 1) // 2 and qt.D1.k == (n + 1) // 2
        assert qt.C0.k == (n - 1) // 2 and qt.C1.k == (n - 1) // 2
        assert qt.D0.k - qt.C0.k == 1

    # pinned before these splitting fields, GF(2^20) and GF(3^11), lost their
    # log tables
    @pytest.mark.parametrize("n,q,sid,D0,C0", [
        (41, 2, "bae4f09ef3c1",
         (1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1),
         (1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1)),
        (23, 3, "423d09fe0a9c",
         (2, 0, 0, 1, 0, 1, 0, 2, 2, 1, 1, 1),
         (1, 2, 0, 2, 1, 2, 1, 1, 0, 1, 0, 0, 1)),
    ])
    def test_golden_generator_polynomials(self, n, q, sid, D0, C0):
        s = default_splitting(n, q)
        assert s.splitting_id == sid
        qt = build_quartet(s, make_field(q))
        assert qt.D0.genpoly.coeffs == D0
        assert qt.C0.genpoly.coeffs == C0

    def test_warm_quartet_holds_no_matrices(self):
        # a code keeps g and h, not its k x n generator and (n-k) x n check
        # matrices, which took 8.1 MB for the four codes of 511/2
        s = default_splitting(511, 2)
        materialize_quartet(s)  # caches the field and the coset polynomials
        tracemalloc.start()
        try:
            qt = materialize_quartet(s)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert qt.C0.k == 255 and held < 10**6

    def test_n17_dimensions(self):
        qt = build_quartet(default_splitting(17, 2), make_field(2))
        assert (qt.D0.k, qt.C0.k) == (9, 8)

    def test_containment(self):
        qt = build_quartet(default_splitting(23, 2), make_field(2))
        assert poly_divides(qt.D0.genpoly, qt.C0.genpoly)
        assert poly_divides(qt.D1.genpoly, qt.C1.genpoly)

    def test_containment_is_checked(self, monkeypatch):
        # C0 built from S1 + {0} has the dimension of C0 and is even-like,
        # but its generator is (x - 1) g_{D1}, not (x - 1) g_{D0}
        import qduadic.duadic
        s = default_splitting(23, 2)
        real = qduadic.duadic.make_cyclic_code

        def swapped(n, field, T):
            if T.as_set() == frozenset(s.S0 + (0,)):
                T = DefiningSet(n, T.q, s.S1 + (0,))
            return real(n, field, T)

        monkeypatch.setattr(qduadic.duadic, "make_cyclic_code", swapped)
        with pytest.raises(SplittingError, match=r"\(x - 1\) g_"):
            build_quartet(s, make_field(2))

    def test_even_odd_like_structure(self):
        qt = build_quartet(default_splitting(17, 2), make_field(2))
        assert all(is_even_like(qt.C0, r) for r in generator_matrix(qt.C0))
        assert any(not is_even_like(qt.D0, r) for r in generator_matrix(qt.D0))

    @pytest.mark.parametrize("doctored,message", [
        ("C", "even-like code has odd-like"),
        ("D", "odd-like code has no odd-like"),
    ])
    def test_parity_of_g_at_1_is_checked(self, monkeypatch, doctored, message):
        # C0 given g_{D0} (g(1) != 0), or D0 given g_{C0} (g(1) = 0); the
        # dimensions stay right, so only the g(1) checks can catch them
        import qduadic.duadic
        s = default_splitting(23, 3)
        real = qduadic.duadic.make_cyclic_code
        f = make_field(3)
        D0 = real(23, f, DefiningSet(23, 3, s.S0))
        C0 = real(23, f, DefiningSet(23, 3, s.S0 + (0,)))
        swap = {"C": (C0, D0), "D": (D0, C0)}[doctored]

        def doctor(n, field, T):
            code = real(n, field, T)
            if T == swap[0].T:
                code = code._replace(genpoly=swap[1].genpoly)
            return code

        monkeypatch.setattr(qduadic.duadic, "make_cyclic_code", doctor)
        with pytest.raises(SplittingError, match=message):
            build_quartet(s, f)

    def test_field_mismatch(self):
        with pytest.raises(SplittingError):
            build_quartet(splitting_by(7, 2, 6), make_field(2, 2))


class TestSquareRootBound:
    def test_n7(self):
        qt = build_quartet(splitting_by(7, 2, 6), make_field(2))
        d = stabilizer_params(qt.splitting, qt, "css").d
        r = check_square_root_bound(qt.splitting, d)
        assert r == {"d_squared_ge_n": True, "mu_minus1_splitting": True,
                     # 3^2 - 3 + 1 = 7 >= 7
                     "d_sq_minus_d_plus_1_ge_n": True,
                     "odd_like_weights_equal": True}

    def test_n23_golay(self):
        qt = build_quartet(default_splitting(23, 2), make_field(2))
        d = stabilizer_params(qt.splitting, qt, "css").d
        assert d.value == 7
        r = check_square_root_bound(qt.splitting, d)
        assert r["d_squared_ge_n"] and r["mu_minus1_splitting"]
        assert r["d_sq_minus_d_plus_1_ge_n"]

    def test_n17_mu_minus1_not_applicable(self):
        qt = build_quartet(default_splitting(17, 2), make_field(2))
        d = stabilizer_params(qt.splitting, qt, "css").d
        assert d.value == 5
        r = check_square_root_bound(qt.splitting, d)
        assert r == {"d_squared_ge_n": True, "mu_minus1_splitting": False,
                     "d_sq_minus_d_plus_1_ge_n": None,
                     "odd_like_weights_equal": True}

    def test_interval_input_vacuous(self):
        from qduadic.distance import DistanceResult
        qt = build_quartet(splitting_by(7, 2, 6), make_field(2))
        r = check_square_root_bound(
            qt.splitting,
            DistanceResult("interval", 1, 7, "full_enumeration", 0))
        assert r == {"d_squared_ge_n": None, "mu_minus1_splitting": True,
                     "d_sq_minus_d_plus_1_ge_n": None,
                     "odd_like_weights_equal": None}

    # d^2 < n (and so d^2 - d + 1 < n); under mu_{-1} only d^2 - d + 1 < n
    # (25 >= 23 > 21); and d^2 < n where mu_{-1} gives no splitting of 17
    @pytest.mark.parametrize("n,d,checks", [
        (7, 2, (False, True, False)),
        (23, 5, (True, True, False)),
        (17, 4, (False, False, None)),
    ], ids=["7-2", "23-5", "17-4"])
    def test_violation_raises(self, monkeypatch, n, d, checks):
        # the bound is a theorem, so only a bug can produce such a d: the
        # checks report it False, and stabilizer_params raises on it
        from qduadic.distance import DistanceResult
        s = default_splitting(n, 2)
        bad = DistanceResult.exact(d, "full_enumeration", 0)
        r = check_square_root_bound(s, bad)
        assert (r["d_squared_ge_n"], r["mu_minus1_splitting"],
                r["d_sq_minus_d_plus_1_ge_n"]) == checks
        real = qduadic.stabilizer._checked

        def searched(C, result, word, name, odd_like):
            return bad if odd_like else real(C, result, word, name, odd_like)

        monkeypatch.setattr(qduadic.stabilizer, "_checked", searched)
        with pytest.raises(SplittingError, match="square-root bound"):
            stabilizer_params(s, build_quartet(s, make_field(2)), "css")


class TestLemma6:
    def test_mu_minus1_equals_mu_minus_q_when_ord_odd(self):
        for n in range(3, 62, 2):
            if ord_mod(n, 2) % 2 == 1:
                s1 = splitting_by(n, 4, n - 1)
                s2 = splitting_by(n, 4, (-2) % n)
                assert s1 is not None and s2 is not None, f"n={n}"
                assert {frozenset(s1.S0), frozenset(s1.S1)} == \
                       {frozenset(s2.S0), frozenset(s2.S1)}, f"n={n}"


class TestCertificate:
    def test_n49_css(self):
        c = degeneracy_certificate(49, 2, "CSS")
        (pl,) = c.primes
        assert (pl.p, pl.m, pl.t, pl.z) == (7, 2, 3, 1)
        assert c.purity_bound == 7
        assert not pl.m_gt_2z  # 2 > 2 is false: strict hypothesis unmet
        assert c.example_clause_7m  # the 7^m, q=2 family stated with m >= 2
        assert not c.hypotheses_met

    def test_n343_css(self):
        c = degeneracy_certificate(343, 2, "CSS")
        (pl,) = c.primes
        assert pl.m == 3 and pl.z == 1 and pl.m_gt_2z
        assert c.purity_bound == 7 and c.purity_bound**2 < 343
        assert c.hypotheses_met

    def test_n343_hermitian(self):
        c = degeneracy_certificate(343, 2, "Hermitian")
        (pl,) = c.primes
        assert pl.t == ord_mod(7, 4) == 3
        assert pl.z == p_adic_valuation(7, 4**3 - 1) == 1
        assert c.ord_n_q_odd and c.all_p_cong_3_mod_4 and c.all_m_gt_2z
        assert c.hypotheses_met

    def test_n7_no_degeneracy_predicted(self):
        c = degeneracy_certificate(7, 2, "CSS")
        assert not c.hypotheses_met and not c.example_clause_7m

    def test_exact_valuation(self):
        for n, q, kind in [(49, 2, "CSS"), (343, 2, "CSS"), (343, 2, "Hermitian")]:
            c = degeneracy_certificate(n, q, kind)
            base = q * q if kind == "Hermitian" else q
            for pl in c.primes:
                x = base**pl.t - 1
                assert x % pl.p**pl.z == 0
                assert x % pl.p**(pl.z + 1) != 0

    def test_factorization_cap(self):
        with pytest.raises(ValueError):
            degeneracy_certificate(10**6 + 1, 2, "CSS")


class TestDefaultSplitting:
    def test_prefers_mu_minus1(self):
        for n in (7, 23, 31, 49):
            s = default_splitting(n, 2)
            assert s.a == n - 1

    def test_falls_back_when_mu_minus1_absent(self):
        s = default_splitting(17, 2)
        assert s is not None and s.a == 3

    def test_none_when_nonexistent(self):
        assert default_splitting(5, 2) is None
