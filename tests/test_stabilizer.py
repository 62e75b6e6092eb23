from math import gcd

import pytest

from oracles import min_weight_diffset, naive_distribution, naive_min_weight
from qduadic.cyclic import CyclicCodeError, cyclotomic_cosets, euclidean_dual
import qduadic.stabilizer
from qduadic.distance import (
    DEFAULT_BUDGET,
    DistanceError,
    DistanceResult,
    brouwer_zimmermann,
)
from qduadic.duadic import (
    build_quartet,
    default_splitting,
    degeneracy_certificate,
    iter_splittings,
    splitting_by,
)
from qduadic.galois import field_from_order, make_field
import qduadic.verify
from qduadic.stabilizer import (
    ConstructionError,
    _checked,
    degeneracy_verdict,
    select_splitting,
    stabilizer_params,
    theory_distance_interval,
)
from qduadic.verify import _distributions


def _not_mu_minus_q():
    """Splitting d1c340225ba6 of 7 over GF(9): mu_3 gives it and mu_(-3)
    does not, so it has no Hermitian code."""
    s = next(s for s in iter_splittings(7, 9)
             if s.splitting_id == "d1c340225ba6")
    assert s.a == 3 and not s.is_given_by(7 - 3)
    return s


def _params(qt, construction="css", **kw):
    return stabilizer_params(qt.splitting, qt, construction, **kw)


def _css(n, q=2, **kw):
    return _params(build_quartet(default_splitting(n, q), field_from_order(q)),
                   **kw)


class TestCSS:
    @pytest.mark.parametrize("n,d,purity", [(7, 3, 4), (17, 5, 6), (23, 7, 8)])
    def test_small_binary_codes(self, n, d, purity):
        p = _css(n)
        assert (p.n, p.k, p.q) == (n, 1, 2)
        assert p.d.value == d and p.purity.value == purity
        assert p.degenerate == "no"

    def test_n31(self):
        p = _css(31)
        assert p.d.value == 7 and p.purity.value == 8
        assert p.degenerate == "no"
        assert p.bound_checks["mu_minus1_splitting"]
        assert p.bound_checks["d_sq_minus_d_plus_1_ge_n"]

    def test_n17_bound_report(self):
        p = _css(17)
        assert p.bound_checks["d_squared_ge_n"]  # 25 >= 17
        assert not p.bound_checks["mu_minus1_splitting"]
        assert p.bound_checks["odd_like_weights_equal"]

    def test_cross_check_runs_clean(self):
        # the MacWilliams odd-like route and the set-difference oracle agree
        qt = build_quartet(default_splitting(17, 2), make_field(2))
        p = _params(qt)
        assert p.d.value == 5 == min_weight_diffset(qt.D0, qt.C0) == \
            min_weight_diffset(euclidean_dual(qt.C0), euclidean_dual(qt.D0))

    def test_gf4_css(self):
        qt = build_quartet(default_splitting(7, 4), field_from_order(4))
        p = _params(qt)
        assert (p.n, p.k, p.q) == (7, 1, 4)
        assert p.d.is_exact and p.purity.is_exact

    def test_budget_exhaustion_gives_interval(self):
        qt = build_quartet(default_splitting(23, 2), make_field(2))
        p = _params(qt, budget=100)
        assert not p.d.is_exact
        assert p.d.method == "defining_set_theory"
        assert p.d.lo >= 5  # 5^2 - 5 + 1 = 21 < 23 <= 6^2 - 6 + 1... lo is 6
        assert p.degenerate in ("yes", "no", "undecided")


class TestOneBoundReport:
    """stabilizer_params checks the square-root bound once, on the d it
    reports, whether d comes from theory, a budget or an enumeration."""

    @pytest.mark.parametrize("n,budget,exact", [(71, 2**10, False),
                                                (23, 100, False),
                                                (23, 2**20, True)])
    def test_one_report(self, monkeypatch, n, budget, exact):
        calls = []
        real = qduadic.stabilizer.check_square_root_bound

        def counted(s, d):
            calls.append(d)
            return real(s, d)

        monkeypatch.setattr(qduadic.stabilizer, "check_square_root_bound",
                            counted)
        s = default_splitting(n, 2)
        qt = None if n == 71 else build_quartet(s, make_field(2))
        p = stabilizer_params(s, qt, "css", budget)
        assert calls == [p.d] and p.d.is_exact == exact
        assert p.bound_checks["odd_like_weights_equal"] is \
            (True if exact else None)


class TestDegenerateExample:
    def test_n49_is_degenerate(self):
        p = _css(49)
        assert p.d.value == 9 and p.purity.value == 4
        assert p.degenerate == "yes"
        # 81 - 9 + 1 = 73 >= 49
        assert p.bound_checks["d_sq_minus_d_plus_1_ge_n"]

    def test_n49_certificate_agrees(self):
        p = degeneracy_verdict(_css(49), degeneracy_certificate(49, 2, "CSS"))
        assert p.purity_agreement == "agrees"
        assert p.certificate.purity_bound == 7 and p.purity.value <= 7

    def test_n7_certificate_not_applicable(self):
        p = degeneracy_verdict(_css(7), degeneracy_certificate(7, 2, "CSS"))
        assert p.purity_agreement == "not_applicable"
        assert p.degenerate == "no"  # the computed verdict is untouched


class TestHermitian:
    def test_n7_gf4(self):
        s = splitting_by(7, 4, 5)
        qt = build_quartet(s, field_from_order(4))
        p = _params(qt, "hermitian")
        assert (p.n, p.k, p.q) == (7, 1, 2)
        assert p.d.value == 3 and p.purity.value == 4
        assert p.degenerate == "no"

    def test_condition_check(self):
        # the Hermitian code of 7 over GF(2) uses mu_(-2)'s splitting
        assert select_splitting(7, 2, "hermitian") == splitting_by(7, 4, 5)

    def test_rejects_wrong_splitting(self):
        qt = build_quartet(_not_mu_minus_q(), field_from_order(9))
        with pytest.raises(ConstructionError, match="does not apply"):
            _params(qt, "hermitian")

    def test_rejects_non_square_field(self):
        # mu_(-1) = mu_(-isqrt(2)) gives this splitting, but GF(2) is no
        # GF(q^2)
        with pytest.raises(ConstructionError):
            stabilizer_params(splitting_by(7, 2, 6), None, "hermitian")

    @staticmethod
    def _matrix_checks(monkeypatch, n):
        """The params of the Hermitian code of n over GF(4), and the pairs
        of codes checked on the way to be Hermitian duals, by dimensions and
        lag products of their generator polynomials."""
        real, calls = qduadic.stabilizer._check_dual, []
        monkeypatch.setattr(qduadic.stabilizer, "_check_dual",
                            lambda C, D, *args: calls.append((C, D))
                            or real(C, D, *args))
        qt = build_quartet(splitting_by(n, 4, (-2) % n), field_from_order(4))
        return _params(qt, "hermitian"), calls, qt

    def test_matrix_check_agrees(self, monkeypatch):
        # C_0^{perp_h} = D_0 is checked on every build
        p, calls, qt = self._matrix_checks(monkeypatch, 7)
        assert p.d.is_exact
        assert calls == [(qt.C0, qt.D0)]

    # past n = 31 too, where d lies beyond the budget
    @pytest.mark.parametrize("n", [35, 41])
    def test_matrix_check_at_every_length(self, monkeypatch, n):
        p, calls, qt = self._matrix_checks(monkeypatch, n)
        assert not p.d.is_exact
        assert calls == [(qt.C0, qt.D0)]

    def test_matrix_check_refuses_a_wrong_dual(self):
        # D1 has the dimension of C_0^{perp_h}, but is not orthogonal to C0
        qt = build_quartet(splitting_by(7, 4, 5), field_from_order(4))
        with pytest.raises(CyclicCodeError, match="not orthogonal"):
            _params(qt._replace(D0=qt.D1), "hermitian")


class TestTheoryOnly:
    def test_interval_bounds(self):
        r = theory_distance_interval(49, mu_minus1=True)
        assert (r.lo, r.hi) == (8, 49)  # 8^2 - 8 + 1 = 57 >= 49
        r = theory_distance_interval(49, mu_minus1=False)
        assert r.lo == 7  # 7^2 = 49 >= 49

    def test_css_fallback(self):
        p = stabilizer_params(default_splitting(49, 2), None, "css")
        assert p.d.kind == "interval" and p.degenerate == "undecided"
        assert p.d.method == "defining_set_theory"

    def test_hermitian_fallback_343(self):
        s = splitting_by(343, 4, (-2) % 343)
        assert s is not None
        p = stabilizer_params(s, None, "hermitian")
        assert (p.n, p.k, p.q) == (343, 1, 2)
        assert p.d.kind == "interval" and p.d.lo == 19  # 19^2 - 19 + 1 = 343
        assert p.degenerate == "undecided"

    def test_hermitian_fallback_rejects_bad_splitting(self):
        with pytest.raises(ConstructionError, match="does not apply"):
            stabilizer_params(_not_mu_minus_q(), None, "hermitian")


class TestVerdictReconciliation:
    def test_never_overrides_computed(self):
        base = _css(49)
        out = degeneracy_verdict(base, degeneracy_certificate(49, 2, "CSS"))
        assert out.degenerate == base.degenerate
        assert out.d == base.d and out.purity == base.purity

    def test_discrepancy_detection(self):
        cert = degeneracy_certificate(49, 2, "CSS")
        base = _css(49)
        fake = DistanceResult.exact(8, "full_enumeration", 0)
        out = degeneracy_verdict(base._replace(purity=fake), cert)
        assert out.purity_agreement == "discrepancy"

    def test_to_dict_shape(self):
        d = degeneracy_verdict(_css(49), degeneracy_certificate(49, 2, "CSS")).to_dict()
        assert d["degenerate"] == "yes"
        assert d["bound_checks"]["mu_minus1_splitting"] is True
        assert d["certificate"]["purity_bound"] == 7

    def test_certificate_to_dict(self):
        # every field by name, and the primes as a tuple of dicts
        assert degeneracy_certificate(49, 2, "CSS").to_dict() == {
            "n": 49, "q": 2, "construction": "CSS",
            "primes": ({"p": 7, "m": 2, "t": 3, "z": 1,
                        "q_is_qr_mod_p": True, "m_gt_2z": False,
                        "p_cong_3_mod_4": True, "purity_term": 7},),
            "purity_bound": 7, "all_q_qr": True, "all_m_gt_2z": False,
            "all_p_cong_3_mod_4": True, "ord_n_q_odd": True,
            "hypotheses_met": False, "example_clause_7m": True}


def test_records_are_immutable():
    # assigning a field of any record, or a new attribute, raises
    # AttributeError and leaves the record as it was
    qt = build_quartet(default_splitting(49, 2), field_from_order(2))
    params = degeneracy_verdict(_params(qt),
                                degeneracy_certificate(49, 2, "CSS"))
    records = [
        (cyclotomic_cosets(49, 2), "cosets"), (qt.C0.T, "members"),
        (qt.C0, "genpoly"), (qt.C0.genpoly, "coeffs"), (params.d, "lo"),
        (qt.splitting, "S0"), (qt, "C0"), (params.certificate.primes[0], "p"),
        (params.certificate, "purity_bound"), (params, "degenerate"),
    ]
    for record, name in records:
        value = getattr(record, name)
        for attr in (name, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, attr, None)
        assert getattr(record, name) is value


def _oracle_quartets():
    """Every default and mu_{-1} quartet whose D0 has at most 2^16 words:
    CSS over GF(q) and Hermitian over GF(q^2), for q in {2, 3, 4}."""
    cases = []
    for q in (2, 3, 4):
        for construction, code_q in (("css", q), ("hermitian", q * q)):
            for n in range(3, 64, 2):
                if gcd(n, code_q) != 1 or code_q ** ((n + 1) // 2) > 2**16:
                    continue
                found = [default_splitting(n, code_q),
                         splitting_by(n, code_q, n - 1)]
                if construction == "hermitian":
                    found = [s for s in found + [splitting_by(n, code_q, (-q) % n)]
                             if s is not None and s.is_given_by((-q) % n)]
                seen = set()
                for s in found:
                    if s is not None and s.splitting_id not in seen:
                        seen.add(s.splitting_id)
                        cases.append(pytest.param(
                            construction, s,
                            id=f"{construction}-{n}-{code_q}-{s.splitting_id}"))
    # odd-characteristic quadratic extensions, whose subfield embedding is not
    # omega -> generator
    for n, q in ((7, 9), (7, 25)):
        s = default_splitting(n, q)
        cases.append(pytest.param("css", s,
                                  id=f"css-{n}-{q}-{s.splitting_id}"))
    return cases


class TestEngineAgainstOracles:
    """d0 from one enumeration of C0 plus MacWilliams (verify's route)
    equals the set differences D0 minus C0 and D1 minus C1, and the purity
    the minimum weights found by re-encoding every message; C0's and D0's
    distributions are those of C1 and D1 too."""

    @pytest.mark.parametrize("construction,s", _oracle_quartets())
    def test_quartet(self, construction, s):
        qt = build_quartet(s, field_from_order(s.q))
        C, D, d = _distributions(qt)
        for dist, images in ((C, ("C0", "C1")), (D, ("D0", "D1"))):
            for image in images:
                assert dist == naive_distribution(getattr(qt, image)), image
        assert d.value == min_weight_diffset(qt.D0, qt.C0) == \
            min_weight_diffset(qt.D1, qt.C1)
        p = _params(qt, construction)
        if construction == "css":
            purity = min(naive_min_weight(qt.C0), naive_min_weight(qt.C1))
        else:
            purity = naive_min_weight(qt.C0)
        assert p.d.value == d.value and p.purity.value == purity


class TestSearchChecks:
    """The re-check of each searched word, over GF(3) by an integer matrix
    product and over GF(4) and GF(9) by the field's products: a word with
    one coordinate scaled is no codeword of C."""

    @pytest.mark.parametrize("n,q", [(11, 3), (7, 4), (5, 9)])
    def test_scaled_coordinate_is_refused(self, n, q):
        f = field_from_order(q)
        qt = build_quartet(default_splitting(n, q), f)
        for C, odd_like in ((qt.D0, True), (qt.C0, False)):
            result, word = brouwer_zimmermann(C, odd_like)
            assert _checked(C, result, word, "C", odd_like) == result
            i = next(i for i, x in enumerate(word) if x)
            scaled = word[:i] + (f.mul(word[i], f.generator),) + word[i + 1:]
            with pytest.raises(DistanceError, match="not a codeword"):
                _checked(C, result, scaled, "C", odd_like)


class TestOneEnumeration:
    """C1 = C0 mu_a, so verify's distribution route enumerates C0 alone
    and the searches run on D0 and C0."""

    def _quartet(self, n, q=2):
        return build_quartet(default_splitting(n, q), field_from_order(q))

    @pytest.mark.parametrize("n,q", [(17, 2), (23, 2), (11, 3), (7, 4)])
    def test_one_weight_distribution_call(self, monkeypatch, n, q):
        calls = []
        real = qduadic.verify.weight_distribution

        def counted(C, *args, **kwargs):
            calls.append(C)
            return real(C, *args, **kwargs)

        monkeypatch.setattr(qduadic.verify, "weight_distribution", counted)
        qt = self._quartet(n, q)
        _distributions(qt)
        assert calls == [qt.C0]

    # the searches of D0 and C0 stop at the first level w whose bound
    # ceil(n*(w+1)/k), over GF(2) rounded to odd for d and to even for the
    # purity, reaches the value: 17/2 at level 1 (5 >= 5, 6 >= 6), 23/2 at
    # level 2 (7 >= 7, 8 >= 8), 11/3 at level 2 (6 >= 5, 7 >= 6)
    @pytest.mark.parametrize("n,q,work", [(17, 2, (9, 8)),
                                          (23, 2, (12 + 66, 11 + 55)),
                                          (11, 3, (6 + 15 * 2, 5 + 10 * 2))],
                             ids=["17-2", "23-2", "11-3"])
    def test_work_counts_the_words_enumerated(self, n, q, work):
        p = _params(self._quartet(n, q))
        assert p.d.method == p.purity.method == "brouwer_zimmermann"
        assert (p.d.work, p.purity.work) == work

    def test_hermitian_purity_work(self):
        qt = build_quartet(splitting_by(7, 4, 5), field_from_order(4))
        p = _params(qt, "hermitian")
        # level 1 of D0 (k = 4, ceil(7*2/4) = 4 >= 3) and of C0 (k = 3,
        # ceil(7*2/3) = 5 >= 4)
        assert (p.d.work, p.purity.work) == (4, 3)

    # within the budget and beyond it, where a support search runs
    BUDGETS = (DEFAULT_BUDGET, 10)

    def test_replaced_c1_is_refused(self):
        qt = self._quartet(17)
        for budget in self.BUDGETS:
            with pytest.raises(DistanceError, match="mu_a image"):
                _params(qt._replace(C1=qt.C0), budget=budget)

    def test_c1_from_another_field_is_refused(self):
        qt = self._quartet(7)
        other = build_quartet(default_splitting(7, 4), field_from_order(4))
        for budget in self.BUDGETS:
            with pytest.raises(DistanceError, match="mu_a image"):
                _params(qt._replace(C1=other.C1), budget=budget)
