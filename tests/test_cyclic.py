import json
import random
from math import gcd, isqrt

import pytest
from oracles import (
    check_matrix,
    conjugate_matrix,
    embed_into_extension,
    even_like_subcode_matrix,
    generator_matrix,
    genpoly_per_root,
    mat_mul,
    null_space,
    poly_divmod,
    rank,
    row_space_equal,
    rref,
    transpose,
)

from qduadic import cyclic
from qduadic.cli import EXIT_ASSERTION, main
from qduadic.cyclic import (
    CyclicCodeError,
    DefiningSet,
    code_under_mu,
    cyclotomic_cosets,
    dual_defining_set,
    euclidean_dual,
    hermitian_dual,
    hermitian_dual_defining_set,
    is_quadratic_residue,
    make_cyclic_code,
    mu_apply,
    mu_defining_set,
    ord_mod,
)
from qduadic.distance import weight_distribution
from qduadic.duadic import (
    default_splitting,
    iter_splittings,
    materialize_quartet,
    splitting_by,
)
from qduadic.galois import Poly, make_field, primitive_nth_root


class TestCosets:
    def test_n7_q2(self):
        cs = cyclotomic_cosets(7, 2)
        assert cs.cosets == ((0,), (1, 2, 4), (3, 5, 6))

    def test_n3_q2(self):
        assert cyclotomic_cosets(3, 2).cosets == ((0,), (1, 2))

    def test_q_congruent_1_gives_singletons(self):
        cs = cyclotomic_cosets(5, 11)  # 11 = 1 mod 5
        assert cs.cosets == tuple((r,) for r in range(5))

    def test_coset_of_matches_scan(self):
        cs = cyclotomic_cosets(85, 4)
        for r in range(-85, 170):
            assert cs.coset_of(r) == next(c for c in cs.cosets if r % 85 in c)

    def test_partition(self):
        for n, q in [(9, 2), (15, 2), (21, 4), (11, 3)]:
            cs = cyclotomic_cosets(n, q)
            flat = sorted(x for c in cs.cosets for x in c)
            assert flat == list(range(n))
            for c in cs.cosets:
                assert set(x * q % n for x in c) == set(c)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cyclotomic_cosets(6, 5)
        with pytest.raises(ValueError):
            cyclotomic_cosets(9, 3)


class TestOrdMod:
    def test_paper_value_ord7_2(self):
        assert ord_mod(7, 2) == 3

    def test_identity(self):
        for n in (3, 7, 15):
            assert ord_mod(n, 1) == 1

    def test_ord23_2(self):
        assert ord_mod(23, 2) == 11

    def test_oracle_brute_force(self):
        for n in (5, 9, 17, 31):
            for a in range(2, n):
                from math import gcd
                if gcd(a, n) != 1:
                    continue
                t = next(t for t in range(1, n + 1) if pow(a, t, n) == 1)
                assert ord_mod(n, a) == t

    def test_not_coprime(self):
        with pytest.raises(ValueError):
            ord_mod(9, 3)


class TestQuadraticResidue:
    def test_2_mod_7(self):
        assert is_quadratic_residue(2, 7) is True

    def test_1_mod_anything(self):
        for n in (3, 9, 15, 49):
            assert is_quadratic_residue(1, n) is True

    def test_2_mod_5(self):
        assert is_quadratic_residue(2, 5) is False

    def test_oracle_square_set(self):
        for n in (7, 9, 15, 21):
            squares = {x * x % n for x in range(n)}
            for q in range(1, n):
                from math import gcd
                if gcd(q, n) == 1:
                    assert is_quadratic_residue(q, n) == (q in squares)


class TestMu:
    def test_identity(self):
        assert mu_apply({1, 2, 4}, 1, 7) == frozenset({1, 2, 4})

    def test_minus_one_mod_7(self):
        assert mu_apply({1, 2, 4}, 6, 7) == frozenset({3, 5, 6})

    def test_inverse_permutation(self):
        T = {1, 2, 4, 8, 9, 13, 15, 16}
        a = 3
        assert mu_apply(mu_apply(T, a, 17), pow(a, -1, 17), 17) == frozenset(T)

    def test_defining_set_closure_preserved(self):
        T = DefiningSet(7, 2, (1, 2, 4))
        img = mu_defining_set(T, 3)
        assert img.members == (3, 5, 6)

    def test_not_coprime(self):
        with pytest.raises(ValueError):
            mu_apply({1}, 3, 9)


class TestDefiningSet:
    def test_closure_enforced(self):
        with pytest.raises(CyclicCodeError):
            DefiningSet(7, 2, (1,))

    def test_dual_whole_space(self):
        empty = DefiningSet(7, 2, ())
        assert dual_defining_set(empty).members == tuple(range(7))

    def test_dual_zero_code(self):
        full = DefiningSet(7, 2, tuple(range(7)))
        assert dual_defining_set(full).members == ()

    def test_dual_even_like_code(self):
        T = DefiningSet(7, 2, (0, 1, 2, 4))
        assert dual_defining_set(T).members == (1, 2, 4)

    def test_hermitian_dual_set(self):
        T = DefiningSet(7, 4, (0, 1, 2, 4))
        assert hermitian_dual_defining_set(T).members == (1, 2, 4)

    def test_hermitian_requires_square_order(self):
        with pytest.raises(CyclicCodeError):
            hermitian_dual_defining_set(DefiningSet(7, 2, (1, 2, 4)))


class TestMakeCyclicCode:
    def test_whole_space(self):
        C = make_cyclic_code(7, make_field(2), DefiningSet(7, 2, ()))
        assert C.k == 7 and C.genpoly.coeffs == (1,)

    def test_hamming(self):
        C = make_cyclic_code(7, make_field(2), DefiningSet(7, 2, (1, 2, 4)))
        assert (C.n, C.k) == (7, 4)
        assert C.genpoly.coeffs == (1, 1, 0, 1)
        assert weight_distribution(C) == {0: 1, 3: 7, 4: 7, 7: 1}

    def test_even_weight_subcode(self):
        C = make_cyclic_code(7, make_field(2), DefiningSet(7, 2, (0, 1, 2, 4)))
        assert (C.n, C.k) == (7, 3)
        assert weight_distribution(C) == {0: 1, 4: 7}
        # genpoly = (x - 1) * g0
        g0 = make_cyclic_code(7, make_field(2), DefiningSet(7, 2, (1, 2, 4))).genpoly
        one_factor = g0.field  # same field
        from qduadic.galois import Poly
        assert Poly.make((1, 1), one_factor).mul(g0) == C.genpoly

    @pytest.mark.parametrize("n,q,T", [
        (7, 2, (1, 2, 4)), (7, 2, (0, 3, 5, 6)), (9, 2, (1, 2, 4, 8, 7, 5)),
        (15, 2, (1, 2, 4, 8)), (7, 4, (1, 2, 4)), (11, 3, (1, 3, 9, 5, 4)),
        (7, 2, ()),
    ])
    def test_structural_invariants(self, n, q, T):
        from qduadic.galois import field_from_order, Poly
        f = field_from_order(q)
        C = make_cyclic_code(n, f, DefiningSet(n, q, T))
        assert len(C.genpoly.coeffs) - 1 == len(C.T)
        assert C.k == n - len(C.T)
        # genpoly * checkpoly = x^n - 1, and checkpoly is the quotient that
        # long division gives
        xn1 = Poly.make((f.neg(1),) + (0,) * (n - 1) + (1,), f)
        assert C.genpoly.mul(C.checkpoly) == xn1
        assert poly_divmod(xn1, C.genpoly) == (C.checkpoly, Poly.zero(f))
        # G H^T = 0 and rank(G) = k, for the matrices written out from g
        # and h; the library's check matrix is the same one
        G, H = generator_matrix(C), check_matrix(C)
        prod = mat_mul(G, transpose(H), f)
        assert all(all(x == 0 for x in row) for row in prod)
        assert rank(G, f) == C.k
        assert cyclic.check_matrix(C).tolist() == [list(row) for row in H]
        assert cyclic.check_matrix(C).shape == (n - C.k, n)

    def test_roots_are_exactly_defining_set(self):
        from qduadic.galois import primitive_nth_root
        n, q, T = 15, 2, (1, 2, 4, 8, 3, 6, 12, 9)
        C = make_cyclic_code(n, make_field(2), DefiningSet(n, q, T))
        ext, alpha = primitive_nth_root(n, q)
        g = embed_into_extension(C.genpoly, ext)
        roots = {j for j in range(n) if g.eval(ext.pow(alpha, j)) == 0}
        assert roots == set(T)

    def test_non_coset_closed_rejected(self):
        with pytest.raises(CyclicCodeError):
            make_cyclic_code(7, make_field(2), DefiningSet(7, 2, (1, 3)))

    def test_factorization_is_checked(self, capsys, monkeypatch):
        # with the root 1 every M_s is a power of x - 1, and their product
        # (x - 1)^7 is not x^7 - 1 over GF(2)
        monkeypatch.setattr(cyclic, "primitive_nth_root",
                            lambda n, q: (primitive_nth_root(n, q)[0], 1))
        cyclic._coset_minpolys.cache_clear()
        try:
            with pytest.raises(CyclicCodeError, match=r"x\^7 - 1"):
                cyclic._coset_minpolys(7, make_field(2))
            code = main(["build", "css", "7", "2"])
            out, err = capsys.readouterr()
        finally:
            cyclic._coset_minpolys.cache_clear()
        assert code == EXIT_ASSERTION and out == ""
        assert err.startswith("internal error") and "x^7 - 1" in err


def _quartets(q: int, max_n: int, hermitian: bool = False):
    """The materialized default quartets over GF(q) of the odd n <= max_n,
    or with `hermitian` the mu_{-q} quartets over GF(q^2) that
    `build hermitian` uses."""
    code_q = q * q if hermitian else q
    for n in range(3, max_n + 1, 2):
        if gcd(n, q) != 1:
            continue
        s = (splitting_by(n, code_q, (-q) % n) if hermitian
             else default_splitting(n, q))
        quartet = materialize_quartet(s) if s is not None else None
        if quartet is not None:
            yield quartet


class TestGenpolyAgainstPerRootProduct:
    """make_cyclic_code's generator polynomial, a product of cached coset
    minimal polynomials, against the per-root product over the splitting
    field."""

    @staticmethod
    def _check(quartets) -> None:
        """Compare every code of the quartets."""
        for quartet in quartets:
            n = quartet.n
            for C in (quartet.D0, quartet.D1, quartet.C0, quartet.C1):
                expected = genpoly_per_root(n, C.field, C.T.members)
                assert C.genpoly == expected, (n, C.q, C.T.members)

    @pytest.mark.parametrize("q,max_n,hermitian", [
        (2, 49, False), (3, 23, False), (5, 19, False), (7, 29, False),
        (4, 41, False), (2, 31, True), (3, 23, True),
    ])
    def test_quartets(self, q, max_n, hermitian):
        # splitting fields from GF(2^3) to GF(2^23) (n = 47), GF(5^9) for
        # 19/5 and GF(7^7) for 29/7; the coset minimal polynomials come from
        # linear dependencies among their roots' powers over a prime field,
        # and among those powers times a basis of GF(4) or GF(9) otherwise
        self._check(_quartets(q, max_n, hermitian))

    # D0 and C0 of the default quartets and of the mu_(-2) quartet of
    # `build hermitian 23 2`, whose coefficients go through the isomorphism
    # of _subfield_basis.  Those over GF(25), GF(16) and GF(27) lie outside
    # GF(p), so taking another root of g's minimal polynomial, which
    # conjugates them, fails these pins; GF(9) and GF(25) have the
    # non-primitive moduli x^2 + 1 and x^2 + 2.
    @pytest.mark.parametrize("n,q,a,sid,d0,c0", [
        (23, 4, None, "1a94b0eef396", (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1),
         (1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1)),
        (13, 9, None, "5dc236b7a62c", (1, 2, 2, 2, 1, 2, 1),
         (2, 2, 0, 0, 1, 2, 1, 1)),
        (7, 25, None, "95bfaf57f81f", (4, 17, 18, 1), (1, 12, 4, 17, 1)),
        (5, 16, None, "9bb28e31f1a5", (10, 4, 1), (10, 14, 5, 1)),
        (13, 27, None, "88e38659e697", (7, 1, 17, 3, 26, 25, 1),
         (5, 6, 23, 14, 16, 1, 24, 1)),
        (23, 4, 21, "1a94b0eef396", (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1),
         (1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1)),
    ], ids=["23-4", "13-9", "7-25", "5-16", "13-27", "hermitian-23-2"])
    def test_golden_quartets(self, n, q, a, sid, d0, c0):
        s = default_splitting(n, q) if a is None else splitting_by(n, q, a)
        quartet = materialize_quartet(s)
        assert s.splitting_id == sid
        assert (quartet.D0.genpoly.coeffs, quartet.C0.genpoly.coeffs) \
            == (d0, c0)

    def test_no_subfield_basis_is_an_internal_error(self, capsys,
                                                    monkeypatch):
        # a minimal polynomial of the generator of GF(4) that no root in
        # the splitting field GF(64) of 7/4 matches
        first_dependency = cyclic._first_dependency
        monkeypatch.setattr(
            cyclic, "_first_dependency",
            lambda f, elements: (first_dependency(f, elements)
                                 if f.order != 4 else ()))
        cyclic._subfield_basis.cache_clear()
        cyclic._coset_minpolys.cache_clear()
        try:
            code = main(["build", "css", "7", "4"])
            out, err = capsys.readouterr()
        finally:
            cyclic._subfield_basis.cache_clear()
            cyclic._coset_minpolys.cache_clear()
        assert code == EXIT_ASSERTION and out == ""
        assert err.startswith("internal error") and "subfield" in err

    def test_coset_of_a_divisor(self):
        # 49/2: the coset {7, 14, 28} has gcd(7, 49) = 7, so its roots
        # alpha^7, ... are 7th roots of unity
        quartet = materialize_quartet(default_splitting(49, 2))
        assert any(7 in C.T.members for C in (quartet.D0, quartet.D1))
        self._check([quartet])

    def test_every_splitting_of_45_4(self):
        splittings = list(iter_splittings(45, 4))
        assert len(splittings) > 1
        self._check(materialize_quartet(s) for s in splittings)

    def test_one_splitting_field_build_per_length(self, monkeypatch):
        calls = []

        def counted(n, q):
            calls.append((n, q))
            return primitive_nth_root(n, q)

        monkeypatch.setattr(cyclic, "primitive_nth_root", counted)
        cyclic._coset_minpolys.cache_clear()
        try:
            quartet = materialize_quartet(default_splitting(23, 2))
            euclidean_dual(quartet.C0)
            code_under_mu(quartet.D0, 22)
            materialize_quartet(default_splitting(23, 2))
        finally:
            cyclic._coset_minpolys.cache_clear()
        assert calls == [(23, 2)]


class TestDuals:
    def test_dual_of_whole_space_is_zero(self):
        C = make_cyclic_code(7, make_field(2), DefiningSet(7, 2, ()))
        assert euclidean_dual(C).k == 0

    def test_dual_of_hamming(self):
        C = make_cyclic_code(7, make_field(2), DefiningSet(7, 2, (1, 2, 4)))
        D = euclidean_dual(C)
        assert (D.n, D.k) == (7, 3)
        assert weight_distribution(D) == {0: 1, 4: 7}

    # (n, q): the union of every other coset as a defining set;
    # ("quartets", q, max_n): C0 and D0 of every default quartet
    @pytest.mark.parametrize("source", [
        (7, 2), (9, 2), (15, 2), (21, 2), (31, 2), (11, 3),
        ("quartets", 2, 49), ("quartets", 3, 23), ("quartets", 4, 41),
    ], ids=lambda source: "-".join(map(str, source)))
    def test_dual_of_dual_and_formula(self, source):
        from qduadic.galois import field_from_order
        if source[0] == "quartets":
            codes = [C for quartet in _quartets(*source[1:])
                     for C in (quartet.C0, quartet.D0)]
        else:
            n, q = source
            T = tuple(x for c in cyclotomic_cosets(n, q).cosets[::2] for x in c)
            codes = [make_cyclic_code(n, field_from_order(q), DefiningSet(n, q, T))]
        for C in codes:
            D = euclidean_dual(C)
            assert D.T.members == dual_defining_set(C.T).members
            assert euclidean_dual(D).T.as_set() == C.T.as_set()
            assert row_space_equal(null_space(generator_matrix(C), C.field),
                                   generator_matrix(D), C.field)

    def test_hermitian_dual_matrix_crosscheck(self):
        f4 = make_field(2, 2)
        codes = [make_cyclic_code(7, f4, DefiningSet(7, 4, T))
                 for T in [(0, 1, 2, 4), (1, 2, 4), (3, 5, 6)]]
        # C0 and D0 of the mu_{-q} quartets over GF(4) and GF(9)
        codes += [C for q, max_n in [(2, 31), (3, 23)]
                  for quartet in _quartets(q, max_n, hermitian=True)
                  for C in (quartet.C0, quartet.D0)]
        for C in codes:
            f = C.field
            D = hermitian_dual(C)
            Gc = conjugate_matrix(generator_matrix(C), f, isqrt(f.order))
            assert row_space_equal(null_space(Gc, f), generator_matrix(D), f)

    # for the Hamming code, a formula that forgets the negation gives a code
    # of the right dimension that is not orthogonal to it; one that adds the
    # coset {3, 5, 6} gives the zero code, orthogonal to it but too small
    @pytest.mark.parametrize("fault,message", [
        ("no_negation", "not orthogonal to C"),
        ("zero_code", "gives dimension 0"),
    ], ids=["no_negation", "zero_code"])
    def test_euclidean_formula_is_checked(self, capsys, monkeypatch, fault,
                                          message):
        def broken(T):
            comp = set(range(T.n)) - T.as_set()
            if fault == "zero_code":
                comp = {-t % T.n for t in comp} | {3, 5, 6}
            return DefiningSet(T.n, T.q, tuple(comp))

        monkeypatch.setattr(cyclic, "dual_defining_set", broken)
        hamming = make_cyclic_code(7, make_field(2), DefiningSet(7, 2, (1, 2, 4)))
        with pytest.raises(CyclicCodeError, match=message):
            euclidean_dual(hamming)
        code = main(["verify", "--q", "2", "--max-n", "7"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_ASSERTION
        assert doc["tallies"]["dual_defining_set_matches_matrix"] == \
            {"passed": 0, "failed": 1, "skipped": 0}
        [failure] = doc["failures"]
        assert failure["detail"].startswith("n=7: dual defining-set formula")

    def test_hermitian_formula_is_checked(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cyclic, "hermitian_dual_defining_set",
            lambda T: DefiningSet(T.n, T.q, tuple(set(range(T.n)) - T.as_set())))
        C = make_cyclic_code(7, make_field(2, 2), DefiningSet(7, 4, (0, 1, 2, 4)))
        with pytest.raises(CyclicCodeError, match="not orthogonal to C"):
            hermitian_dual(C)
        code = main(["verify", "--q", "2", "--max-n", "7"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_ASSERTION
        assert doc["tallies"]["hermitian_dual_is_D0"] == \
            {"passed": 0, "failed": 2, "skipped": 0}
        assert [f["detail"][:4] for f in doc["failures"]] == ["n=5:", "n=7:"]

    @staticmethod
    def _failing_row_pairs(C, D, power):
        """Every pair (i, j) of a generator row x^i*g_C(x) of C, its entries
        raised to `power`, and a generator row x^j*g_D(x) of D whose product
        is nonzero, pair by pair."""
        f = C.field
        pairs = []
        for i, c in enumerate(generator_matrix(C)):
            for j, d in enumerate(generator_matrix(D)):
                acc = 0
                for x, y in zip(c, d):
                    acc = f.add(acc, f.mul(f.pow(x, power), y))
                if acc:
                    pairs.append((i, j))
        return pairs

    @staticmethod
    def _dual_pairs():
        """(C, its dual, power): Euclidean over GF(2) and GF(3), Hermitian
        over GF(4)."""
        for n, q in [(23, 2), (11, 3)]:
            C = materialize_quartet(default_splitting(n, q)).C0
            yield C, euclidean_dual(C), 1
        C = make_cyclic_code(7, make_field(2, 2), DefiningSet(7, 4, (1, 2, 4)))
        yield C, hermitian_dual(C), 2

    # generator polynomials doctored to monomials, so that only the pair of
    # rows at the lag k_C - 1 (C's last row, D's first) or at -(k_D - 1)
    # (C's first row, D's last) is not orthogonal: g_C = 1 and
    # g_D = x^(k_C - 1), or g_C = x^(k_D - 1) and g_D = 1.  A check that
    # skipped either end lag would pass one of them.  (No doctored g_D alone
    # fails at one lag only: the lag products are coefficients 1..n-1 of
    # g_D(x) times the reciprocal of g_C, which divides x^n - 1.)
    @pytest.mark.parametrize("end", ["k_C - 1", "-(k_D - 1)"])
    def test_orthogonality_checked_at_both_end_lags(self, end):
        for C, D, power in self._dual_pairs():
            f = C.field
            assert self._failing_row_pairs(C, D, power) == []
            if end == "k_C - 1":
                shift_C, shift_D, pair = 0, C.k - 1, (C.k - 1, 0)
            else:
                shift_C, shift_D, pair = D.k - 1, 0, (0, D.k - 1)
            C2, D2 = (X._replace(genpoly=Poly.make((0,) * shift + (1,), f))
                      for X, shift in ((C, shift_C), (D, shift_D)))
            assert self._failing_row_pairs(C2, D2, power) == [pair]
            with pytest.raises(CyclicCodeError, match="not orthogonal to C"):
                cyclic._check_dual(C2, D2, power, "doctored")

    def test_lag_check_agrees_with_every_row_pair(self):
        # D's generator polynomial replaced by random polynomials of its
        # degree: the lag check raises exactly when some pair of rows is
        # not orthogonal
        rng = random.Random(3)
        for C, D, power in self._dual_pairs():
            f, n = C.field, C.n
            degree = n - D.k
            for t in range(40):
                g = [rng.randrange(f.order) for _ in range(degree)] + [1]
                if t % 4 == 0:  # a multiple of the dual's g, orthogonal
                    u = rng.randrange(1, f.order)
                    g = [f.mul(u, x) for x in D.genpoly.coeffs]
                doctored = D._replace(genpoly=Poly.make(g, f))
                failing = self._failing_row_pairs(C, doctored, power)
                if failing:
                    with pytest.raises(CyclicCodeError):
                        cyclic._check_dual(C, doctored, power, "doctored")
                else:
                    cyclic._check_dual(C, doctored, power, "doctored")

    def test_hermitian_dual_needs_square_field(self):
        C = make_cyclic_code(7, make_field(2), DefiningSet(7, 2, (1, 2, 4)))
        with pytest.raises(CyclicCodeError):
            hermitian_dual(C)


class TestCodeUnderMu:
    def test_identity(self):
        C = make_cyclic_code(7, make_field(2), DefiningSet(7, 2, (1, 2, 4)))
        assert code_under_mu(C, 1).T.as_set() == C.T.as_set()

    def test_mu3_defining_set(self):
        C = make_cyclic_code(7, make_field(2), DefiningSet(7, 2, (0, 1, 2, 4)))
        img = code_under_mu(C, 3)
        assert img.T.members == (0, 3, 5, 6)  # 3^{-1} T = 5 T mod 7

    @pytest.mark.parametrize("n,a", [(7, 3), (7, 6), (15, 2), (15, 7), (21, 5)])
    def test_weight_distribution_preserved(self, n, a):
        cs = cyclotomic_cosets(n, 2)
        T = tuple(x for c in cs.nonzero_cosets[::2] for x in c)
        C = make_cyclic_code(n, make_field(2), DefiningSet(n, 2, T))
        img = code_under_mu(C, a)
        assert img.k == C.k
        assert weight_distribution(C) == weight_distribution(img)


class TestEvenLike:
    def test_even_like_partition(self):
        C = make_cyclic_code(7, make_field(2), DefiningSet(7, 2, (1, 2, 4)))
        even = even_like_subcode_matrix(C)
        sub = make_cyclic_code(7, make_field(2), DefiningSet(7, 2, (0, 1, 2, 4)))
        assert row_space_equal(even, generator_matrix(sub), C.field)

    @pytest.mark.parametrize("n,q", [(7, 2), (15, 2), (7, 4), (11, 3)])
    def test_even_subcode_dimension(self, n, q):
        from qduadic.galois import field_from_order
        f = field_from_order(q)
        cs = cyclotomic_cosets(n, q)
        T = tuple(x for c in cs.nonzero_cosets[:1] for x in c)
        C = make_cyclic_code(n, f, DefiningSet(n, q, T))
        even = even_like_subcode_matrix(C)
        assert rank(even, f) in (C.k, C.k - 1)


class TestLinalg:
    def test_rref_and_null_space(self):
        f = make_field(3)
        A = ((1, 2, 0), (2, 1, 1))
        R, pivots = rref(A, f)
        assert len(pivots) == rank(A, f)
        ns = null_space(A, f)
        for v in ns:
            prod = mat_mul(A, transpose((v,)), f)
            assert all(row == (0,) for row in prod)
        assert len(ns) + rank(A, f) == 3
