import itertools
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import (
    coeffs_to_element,
    digit_products,
    embed_into_extension,
    frobenius,
    poly_add,
    poly_divides,
    poly_divmod,
    subfield_lift,
)

from qduadic.cyclic import (
    DefiningSet,
    _subfield_basis,
    cyclotomic_cosets,
    make_cyclic_code,
)
from qduadic.galois import (
    FieldCapError,
    FieldError,
    Poly,
    _canonical_modulus,
    _gf2_is_irreducible,
    _is_irreducible,
    factorize,
    field_from_order,
    is_prime,
    make_field,
    prime_power,
    primitive_nth_root,
)


def brute_order(f, x):
    """Independent oracle: multiplicative order by exhaustive powering."""
    acc = x
    for t in range(1, f.order):
        if acc == 1:
            return t
        acc = f.mul(acc, x)
    raise AssertionError("no order found")


class TestMakeField:
    def test_gf2(self):
        f = make_field(2)
        assert f.order == 2
        assert f.generator == 1
        assert f.modulus == (0, 1)

    def test_gf4_canonical(self):
        f = make_field(2, 2)
        # x^2 + x + 1 is the only irreducible quadratic over GF(2)
        assert f.modulus == (1, 1, 1)
        assert brute_order(f, f.generator) == 3

    def test_gf4_every_nonzero_cubes_to_one(self):
        f = make_field(2, 2)
        for x in range(1, 4):
            assert f.pow(x, 3) == 1

    def test_gf7_smallest_primitive_root(self):
        f = make_field(7)
        assert f.generator == 3
        # oracle: 3^k runs through all 6 nonzero residues
        seen = {pow(3, k, 7) for k in range(6)}
        assert seen == set(range(1, 7))

    def test_not_prime_rejected(self):
        with pytest.raises(FieldError):
            make_field(4, 1)

    def test_cap_rejected(self):
        with pytest.raises(FieldCapError):
            make_field(2, 60)

    @pytest.mark.parametrize("p,m", [(2, 100000), (2**61 - 1, 100000)])
    def test_cap_decided_without_the_order(self, p, m):
        # str() of an order past 4300 digits raises ValueError, and
        # (2^61 - 1)^100000 would take long to compute
        t0 = time.monotonic()
        with pytest.raises(FieldCapError, match=r"has over 2\^4096 elements"):
            make_field(p, m)
        assert time.monotonic() - t0 < 1

    def test_determinism(self):
        a, b = make_field(3, 2), make_field(3, 2)
        assert a is b
        assert a.modulus == b.modulus and a.generator == b.generator


class TestArithmetic:
    @pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (7, 1)])
    def test_inverses(self, p, m):
        f = make_field(p, m)
        for x in range(f.order):
            assert f.add(x, f.neg(x)) == 0
            if x:
                assert f.mul(f.inv(x), x) == 1

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    def test_gf9_ring_axioms(self, a, b, c):
        f = make_field(3, 2)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_pow_zero_exponent(self):
        f = make_field(2, 3)
        for x in range(f.order):
            assert f.pow(x, 0) == 1

    def test_invert_zero(self):
        with pytest.raises(FieldError):
            make_field(2, 2).inv(0)


# GF(2^m) for m <= 8, and fields of odd characteristic up to 3^5 elements
EXHAUSTIVE = [(2, m) for m in range(1, 9)] + [(3, 1), (3, 2), (3, 3), (3, 4),
                                             (3, 5), (5, 2), (7, 2)]


class TestAgainstDigitProducts:
    """Multiplication, inversion and powers against `digit_products`, which
    multiplies digit vectors in numpy and shares no code with Field."""

    @pytest.mark.parametrize("p,m", EXHAUSTIVE)
    def test_mul_exhaustive(self, p, m):
        f = make_field(p, m)
        table = np.array([[f.mul(x, y) for y in range(f.order)]
                          for x in range(f.order)])
        a = np.arange(f.order)
        assert (table == digit_products(f, a[:, None], a[None, :])).all()

    @pytest.mark.parametrize("p,m", EXHAUSTIVE)
    def test_inv_and_pow(self, p, m):
        f = make_field(p, m)
        for a in range(1, f.order):
            inv = f.inv(a)
            assert f.mul(a, inv) == 1
            acc = 1
            for e in range(2 * m + 2):
                assert f.pow(a, e) == acc
                acc = f.mul(acc, a)
            assert f.pow(a, f.order - 1) == 1 and f.pow(a, f.order) == a
            assert f.pow(a, -1) == inv and f.pow(a, -3) == f.pow(inv, 3)
        assert [f.pow(0, e) for e in range(3)] == [1, 0, 0]

    @pytest.mark.parametrize("p,m", [(2, 20), (3, 11)])
    @given(data=st.data())
    def test_large_field_sample(self, p, m, data):
        f = make_field(p, m)
        element = st.integers(0, f.order - 1)
        a, b = data.draw(element), data.draw(element)
        assert f.mul(a, b) == digit_products(f, a, b)
        e1, e2 = data.draw(st.integers(0, 40)), data.draw(st.integers(0, 10**9))
        acc = 1
        for _ in range(e1):
            acc = f.mul(acc, a)
        assert f.pow(a, e1) == acc
        assert f.pow(a, e1 + e2) == f.mul(acc, f.pow(a, e2))
        if a:
            assert f.mul(a, f.inv(a)) == 1

    @pytest.mark.parametrize("p,m", EXHAUSTIVE + [(2, 12), (3, 7), (5, 4)])
    def test_generator_order_is_order_minus_one(self, p, m):
        # the generator's powers run through every nonzero element before
        # the first return to 1
        f = make_field(p, m)
        seen, x = set(), 1
        for _ in range(f.order - 1):
            seen.add(x)
            x = f.mul(x, f.generator)
        assert x == 1 and len(seen) == f.order - 1


def _addition_table(f) -> np.ndarray:
    return np.array([[f.add(a, b) for b in range(f.order)]
                     for a in range(f.order)])


class TestDigitAddition:
    """Addition in the fields GF(p^m), p odd and m > 1, against digitwise
    addition mod p, with the digits of an element index taken by numpy
    rather than by the field."""

    @pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (3, 4), (3, 5)])
    def test_exhaustive(self, p, m):
        f = make_field(p, m)
        shape = (p,) * m  # an index's base-p digits, the x^0 digit last
        digits = np.array(np.unravel_index(np.arange(f.order), shape))
        sums = (digits[:, :, None] + digits[:, None, :]) % p
        assert (_addition_table(f)
                == np.ravel_multi_index(tuple(sums), shape)).all()

    @pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 3), (3, 4), (3, 5)])
    def test_products_distribute(self, p, m):
        # x -> g*x is additive; every nonzero element is a power of g, so
        # every product distributes over add
        f = make_field(p, m)
        add = _addition_table(f)
        times_g = np.array([f.mul(f.generator, a) for a in range(f.order)])
        assert (times_g[add] == add[np.ix_(times_g, times_g)]).all()

    def test_large_field_adds_by_digits(self):
        f = make_field(3, 11)
        a, b = 3**11 - 1, 2 * 3**10 + 5
        digits = [(x + y) % 3 for x, y in zip(f.element_to_coeffs(a),
                                              f.element_to_coeffs(b))]
        assert f.add(a, b) == coeffs_to_element(f, digits)


class TestFrobenius:
    def test_fixed_points(self):
        f = make_field(2, 2)
        assert frobenius(f, 0, 2) == 0
        assert frobenius(f, 1, 2) == 1

    def test_gf4_swaps_non_subfield_elements(self):
        f = make_field(2, 2)
        assert frobenius(f, 2, 2) == 3
        assert frobenius(f, 3, 2) == 2

    @pytest.mark.parametrize("p,m,q", [(2, 2, 2), (2, 4, 4), (3, 2, 3)])
    def test_involution(self, p, m, q):
        f = make_field(p, m)
        for x in range(f.order):
            assert frobenius(f, frobenius(f, x, q), q) == x

    def test_incompatible_subfield(self):
        with pytest.raises(FieldError):
            frobenius(make_field(2, 3), 1, 4)


class TestPrimitiveNthRoot:
    def test_n7_over_gf2(self):
        ext, alpha = primitive_nth_root(7, 2)
        assert (ext.p, ext.m) == (2, 3)
        assert alpha != 1
        assert ext.pow(alpha, 7) == 1

    def test_n1_trivial(self):
        ext, alpha = primitive_nth_root(1, 4)
        assert ext.order == 4 and alpha == 1

    def test_n17_over_gf2(self):
        ext, alpha = primitive_nth_root(17, 2)
        assert (ext.p, ext.m) == (2, 8)
        assert brute_order(ext, alpha) == 17

    @pytest.mark.parametrize("n,q", [(3, 2), (5, 2), (7, 2), (9, 2), (5, 4), (7, 4)])
    def test_exact_order(self, n, q):
        ext, alpha = primitive_nth_root(n, q)
        acc = 1
        for k in range(1, n):
            acc = ext.mul(acc, alpha)
            assert acc != 1, f"alpha^{k} = 1 before n"
        assert ext.mul(acc, alpha) == 1

    def test_gcd_violation(self):
        with pytest.raises(FieldError):
            primitive_nth_root(6, 2)

    @pytest.mark.parametrize("n,q,m,alpha", [(41, 2, 20, 655594),
                                             (23, 3, 11, 55678)])
    def test_golden_alpha_in_untabled_fields(self, n, q, m, alpha):
        # pinned before these splitting fields lost their log tables
        ext, a = primitive_nth_root(n, q)
        assert ext.m == m
        assert a == alpha


def subfield_coercion(ext, base) -> dict[int, int]:
    """sum_i e_i*b_i -> sum_i e_i*g^i over every e in GF(p)^m, for the
    pairs (b_i, g^i) of _subfield_basis: the map the coset minimal
    polynomials take their coefficients through."""
    phi = {}
    for e in itertools.product(range(base.p), repeat=base.m):
        x = y = 0
        for e_i, (b, image) in zip(e, _subfield_basis(ext, base)):
            x = ext.add(x, ext.mul(e_i, b))
            y = base.add(y, base.mul(e_i, image))
        phi[x] = y
    return phi


class TestCoercion:
    """The coercion from the subfield of a splitting field onto GF(q) that
    _subfield_basis defines, against the lift of `subfield_lift`, which is
    found by an additivity search instead."""

    def test_coset_product_lands_in_gf2(self):
        C = make_cyclic_code(7, make_field(2), DefiningSet(7, 2, (1, 2, 4)))
        assert C.genpoly.coeffs == (1, 1, 0, 1)  # x^3 + x + 1, canonical alpha

    @pytest.mark.parametrize("base_m,ext_m", [(1, 3), (1, 4), (2, 4), (2, 6)])
    def test_embed_then_coerce_identity(self, base_m, ext_m):
        base, ext = make_field(2, base_m), make_field(2, ext_m)
        phi = subfield_coercion(ext, base)
        for coeffs in [(1,), (1, 0, 1), tuple(range(min(base.order, 4)))]:
            p = Poly.make(coeffs, base)
            lifted = embed_into_extension(p, ext)
            assert Poly.make([phi[c] for c in lifted.coeffs], base) == p

    # splitting fields of 7/4, 7/9, 7/25, 19/49, 19/64 and 25/16, in all but
    # the first of which omega -> generator of the base field is not a field
    # map, and GF(16) and GF(27) as the splitting fields of 5/16 and 13/27
    @pytest.mark.parametrize("p,base_m,ext_m", [(2, 2, 6), (3, 2, 6), (5, 2, 6),
                                                (7, 2, 6), (2, 6, 18),
                                                (2, 4, 20), (2, 4, 4),
                                                (3, 3, 3)])
    def test_subfield_embedding_is_field_isomorphism(self, p, base_m, ext_m):
        base, ext = make_field(p, base_m), make_field(p, ext_m)
        phi = subfield_coercion(ext, base)
        assert sorted(phi.values()) == list(range(base.order))
        for a in phi:
            for b in phi:
                assert phi[ext.add(a, b)] == base.add(phi[a], phi[b])
                assert phi[ext.mul(a, b)] == base.mul(phi[a], phi[b])
        lift = subfield_lift(base, ext)
        assert all(phi[lift[c]] == c for c in range(base.order))

    @pytest.mark.parametrize("n,q", [(7, 9), (7, 25), (19, 49)])
    def test_genpoly_roots_are_the_defining_set(self, n, q):
        base = field_from_order(q)
        ext, alpha = primitive_nth_root(n, q)
        T = cyclotomic_cosets(n, q).coset_of(1)
        C = make_cyclic_code(n, base, DefiningSet(n, q, T))
        lifted = embed_into_extension(C.genpoly, ext)
        assert {j for j in range(n) if lifted.eval(ext.pow(alpha, j)) == 0} \
            == set(T)

    def test_gf4_coefficients_from_gf64(self):
        ext, alpha = primitive_nth_root(7, 4)
        base = make_field(2, 2)
        g = Poly.one(ext)
        for j in (1, 2, 4):
            g = g.mul(Poly.make([ext.neg(ext.pow(alpha, j)), 1], ext))
        C = make_cyclic_code(7, base, DefiningSet(7, 4, (1, 2, 4)))
        assert len(C.genpoly.coeffs) == 4
        # the lift of the generator polynomial is the per-root product
        assert embed_into_extension(C.genpoly, ext) == g


class TestPoly:
    def test_divmod_roundtrip(self):
        f = make_field(3)
        a = Poly.make((1, 2, 0, 1, 2), f)
        b = Poly.make((2, 1, 1), f)
        q, r = poly_divmod(a, b)
        assert poly_add(q.mul(b), r) == a
        assert len(r.coeffs) < len(b.coeffs)

    def test_eval_horner(self):
        f = make_field(5)
        p = Poly.make((1, 2, 3), f)  # 1 + 2x + 3x^2
        for x in range(5):
            assert p.eval(x) == (1 + 2 * x + 3 * x * x) % 5

    def test_zero_normalization(self):
        f = make_field(2)
        assert Poly.make((0, 0, 0), f).is_zero()


def test_factorize():
    assert factorize(49) == {7: 2}
    assert factorize(343) == {7: 3}
    assert factorize(2 * 3 * 3 * 25) == {2: 1, 3: 2, 5: 2}


def _monic(code: int, p: int, m: int) -> list[int]:
    """The monic degree-m candidate of `code`, lowest degree first: the
    base-p digits of code, then 1."""
    return [code // p**i % p for i in range(m)] + [1]


def _has_factor(cand: list[int], p: int) -> bool:
    """Whether some monic polynomial of degree 1..m//2 divides `cand`, by
    trying every one."""
    f = make_field(p)
    c = Poly.make(cand, f)
    m = len(cand) - 1
    return any(poly_divides(Poly.make(_monic(code, p, d), f), c)
               for d in range(1, m // 2 + 1) for code in range(p**d))


class TestIrreducibility:
    @pytest.mark.parametrize("p,m", [(2, 2), (2, 5), (2, 8), (3, 2), (3, 4),
                                     (3, 5), (5, 3), (7, 2)])
    def test_list_test_against_trial_division(self, p, m):
        for code in range(p**m):
            cand = _monic(code, p, m)
            assert _is_irreducible(cand, p) == (not _has_factor(cand, p))

    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_bitmask_test_against_trial_division(self, m):
        for code in range(1 << m):
            assert (_gf2_is_irreducible(code | 1 << m, m)
                    == (not _has_factor(_monic(code, 2, m), 2)))

    @pytest.mark.parametrize("m", range(1, 25))
    def test_gf2_bitmask_search_matches_list_search(self, m):
        # the list-polynomial test, in the same candidate order, is the oracle
        expected = next(tuple(cand) for code in range(1 << m)
                        if _is_irreducible(cand := _monic(code, 2, m), 2))
        assert _canonical_modulus(2, m) == expected


class TestPrimePower:
    def test_small_numbers_against_factorize(self):
        for q in (-8, -5, -1, 0):
            assert prime_power(q) is None
        for q in range(1, 3000):
            fac = factorize(q)
            expected = next(iter(fac.items())) if len(fac) == 1 else None
            assert prime_power(q) == expected, q
            assert is_prime(q) == (fac == {q: 1}), q

    @pytest.mark.parametrize("q,expected", [
        (2**61 - 1, (2**61 - 1, 1)),  # a Mersenne prime
        ((2**31 - 1) ** 2, (2**31 - 1, 2)),
        (3**40, (3, 40)),
        (2**63, (2, 63)),
        ((2**61 - 1) ** 2, (2**61 - 1, 2)),  # q^2 of a Hermitian build
        (4294967291 * 4294967279, None),  # two primes near 2^32
        (3215031751, None),  # a strong pseudoprime to bases 2, 3, 5 and 7
        (2**32 * 3, None),
    ])
    def test_large(self, q, expected):
        assert prime_power(q) == expected

    def test_beyond_the_deterministic_range(self):
        with pytest.raises(ValueError, match="desk scale"):
            is_prime(2**89 - 1)  # a Mersenne prime beyond the bound

    def test_field_from_order(self):
        assert field_from_order(49) is make_field(7, 2)
        for q in (0, 1, 6, 4294967291 * 4294967279):
            with pytest.raises(FieldError, match="prime power"):
                field_from_order(q)
