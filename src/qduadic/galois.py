"""Exact arithmetic in small finite fields GF(p^m).

Elements are represented by their integer index: the base-p digits of the
index are the coefficients of the element in the polynomial basis
(digit i = coefficient of x^i).  With this convention addition is digitwise
mod p (XOR for characteristic 2), and the prime subfield occupies indices
0..p-1.

Fields are canonical and cached: same (p, m) always yields the same modulus
and generator, so golden-value tests are portable across runs.  Products
are taken mod p in GF(p) and reduced by the modulus in GF(p^m), m > 1: by
carry-less bitmask products for p = 2, and for odd p by one product of two
ints that hold the operands' digits (Kronecker substitution).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

# Hard cap on field cardinality; construction beyond this is refused.  It
# bounds the trial-division factoring of order - 1 in Field._find_generator,
# and a quartet whose splitting field is beyond it is reported by `build`
# and `survey` with the theory intervals instead.
FIELD_SIZE_CAP = 1 << 24


class FieldError(ValueError):
    """Invalid field construction or field operation."""


class FieldCapError(FieldError):
    """A field beyond FIELD_SIZE_CAP was requested."""


# Miller-Rabin with the primes up to 41 as bases decides primality of every
# n below this bound (Sorenson and Webster); the CLI caps q below 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for n below _MR_BOUND."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_BOUND:
        raise ValueError(f"primality of {n} is not decided at desk scale")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, m) with q = p^m and p prime, or None.  If q = p^m, the largest k
    for which q is a perfect k-th power is m, with root p."""
    if q < 2:
        return None
    for k in range(q.bit_length() - 1, 0, -1):
        r = _iroot(q, k)
        if r**k == q:
            return (r, k) if is_prime(r) else None
    return None


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize requires a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def ord_mod(n: int, a: int) -> int:
    """Smallest t >= 1 with a^t = 1 mod n."""
    if n < 1:
        raise ValueError("modulus must be positive")
    if gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1")
    if n == 1:
        return 1
    a %= n
    t, x = 1, a
    while x != 1:
        x = x * a % n
        t += 1
    return t


# ---------------------------------------------------------------------------
# GF(p)[x] helpers on plain coefficient lists (lowest degree first).
# Used only during field construction (irreducibility search).


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_rem(res, mod, p)


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = _poly_trim(list(a))
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm:
        shift = len(a) - 1 - dm
        factor = a[-1] * inv_lead % p
        for i, mi in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * mi) % p
        _poly_trim(a)
    return a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_rem(a, b, p)
        _poly_trim(b)
    return a


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """a^e mod (mod) over GF(p)."""
    result = [1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, a, mod, p)
        a = _poly_mulmod(a, a, mod, p)
        e >>= 1
    return result


def _is_irreducible(mod: list[int], p: int) -> bool:
    """Degree-m monic poly is irreducible iff it shares no factor with
    x^{p^k} - x for k <= m//2 (no irreducible factor of degree <= m//2).
    Each x^{p^k} is the p-th power of the one before."""
    m = len(mod) - 1
    xpk = [0, 1]
    for _ in range(m // 2):
        xpk = _poly_powmod(xpk, p, mod, p)
        # x^{p^k} - x
        diff = list(xpk) + [0] * max(0, 2 - len(xpk))
        diff[1] = (diff[1] - 1) % p
        _poly_trim(diff)
        g = _poly_gcd(mod, diff, p)
        if len(g) > 1:
            return False
    return True


# GF(2)[x] polynomials held as integer bitmasks, bit i the coefficient of x^i.


def _gf2_mulmod(a: int, b: int, mod: int, m: int) -> int:
    """a*b reduced by `mod`, of degree m."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    while r.bit_length() > m:
        r ^= mod << (r.bit_length() - 1 - m)
    return r


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _gf2_is_irreducible(mod: int, m: int) -> bool:
    """_is_irreducible for p = 2 on bitmasks."""
    xpk = 0b10  # x
    for _ in range(m // 2):
        xpk = _gf2_mulmod(xpk, xpk, mod, m)
        if _gf2_gcd(mod, xpk ^ 0b10) != 1:
            return False
    return True


def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p),
    ordering coefficient tuples from high degree down.  Returned lowest
    degree first."""
    if m == 1:
        return (0, 1)  # x
    if p == 2:  # the candidates in the same order, as bitmasks
        for code in range(1 << m):
            if _gf2_is_irreducible(code | 1 << m, m):
                return tuple(code >> i & 1 for i in range(m)) + (1,)
    else:
        for code in range(p**m):
            # decode (a_{m-1}, ..., a_0) from the integer, high digit first
            digits = []
            c = code
            for _ in range(m):
                digits.append(c % p)
                c //= p
            # digits[0] = a_0 ... digits[m-1] = a_{m-1}
            cand = digits + [1]
            if _is_irreducible(cand, p):
                return tuple(cand)
    raise FieldError(f"no irreducible polynomial of degree {m} over GF({p})")


# ---------------------------------------------------------------------------


class Field:
    """A finite field GF(p^m) with canonical modulus and generator.

    Do not instantiate directly; use :func:`make_field` so instances are
    cached and shared.
    """

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if m < 1:
            raise FieldError("extension degree must be >= 1")
        # p^m >= 2^(m * (bit_length(p) - 1)): an order that large is
        # neither computed nor printed, as str() refuses past 4300 digits
        huge = m * (p.bit_length() - 1) > 4096
        order = None if huge else p**m
        if huge or order > FIELD_SIZE_CAP:
            raise FieldCapError(
                f"GF({p}^{m}) has {'over 2^4096' if huge else order} "
                f"elements, beyond the cap of {FIELD_SIZE_CAP}; larger "
                "extensions are out of scope"
            )
        self.p = p
        self.m = m
        self.order = order
        self.modulus: tuple[int, ...] = _canonical_modulus(p, m)
        if p == 2:
            self._mod_mask = sum(c << i for i, c in enumerate(self.modulus))
        elif m > 1:
            # Kronecker substitution: a polynomial's digits packed into one
            # int, `_bits` bits a coefficient, enough for the coefficients
            # of a product plus the m - 1 reductions in _raw_mul,
            # (2m-1)(p-1)^2; digit i sits at bit _shifts[i]
            self._bits = ((2 * m - 1) * (p - 1) ** 2).bit_length()
            self._shifts = [self._bits * i for i in range(m)]
            self._overflow = [  # x^(m+i) mod the modulus, i < m - 1, packed
                sum(d << s for d, s in zip(_poly_rem(
                    [0] * (m + i) + [1], list(self.modulus), p), self._shifts))
                for i in range(m - 1)]
        self.generator = self._find_generator()

    # -- representation helpers

    def _digits(self, a: int) -> list[int]:
        d = []
        for _ in range(self.m):
            d.append(a % self.p)
            a //= self.p
        return d

    def _undigits(self, d: list[int]) -> int:
        a = 0
        for c in reversed(d):
            a = a * self.p + c
        return a

    def element_to_coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis coefficients of an element, lowest degree first."""
        self._check(a)
        return tuple(self._digits(a))

    def _check(self, a: int) -> None:
        if not (0 <= a < self.order):
            raise FieldError(f"{a} is not an element of GF({self.p}^{self.m})")

    # -- raw arithmetic (no element checks)

    def _raw_mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return a * b % p
        if a == 0 or b == 0:
            return 0
        if p == 2:
            return _gf2_mulmod(a, b, self._mod_mask, m)
        # one int product of the packed digits; each coefficient of x^(m+i)
        # is reduced mod p and folded back as that multiple of x^(m+i) mod
        # the modulus, and the m low coefficients are then reduced mod p
        bits, shifts = self._bits, self._shifts
        mask = (1 << bits) - 1
        x = y = 0
        for s in shifts:
            x |= a % p << s
            y |= b % p << s
            a //= p
            b //= p
        prod = x * y
        acc, high = prod & ((1 << bits * m) - 1), prod >> bits * m
        for overflow in self._overflow:
            acc += (high & mask) % p * overflow
            high >>= bits
        out = 0
        for s in reversed(shifts):
            out = out * p + (acc >> s & mask) % p
        return out

    def _raw_pow(self, a: int, e: int) -> int:
        if self.m == 1:
            return pow(a, e, self.p)
        r, b = 1, a
        while e:
            if e & 1:
                r = self._raw_mul(r, b)
            b = self._raw_mul(b, b)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        target = self.order - 1
        if target == 1:
            return 1
        prime_divs = list(factorize(target))
        for cand in range(1, self.order):
            if all(self._raw_pow(cand, target // r) != 1 for r in prime_divs):
                return cand
        raise FieldError("no generator found (internal error)")

    # -- public arithmetic

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        self._check(a)
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self._undigits([(-x) % self.p for x in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._raw_mul(a, b)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise FieldError("cannot invert zero")
        return self._raw_pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e == 0:
            return 1
        if e < 0:
            return self.pow(self.inv(a), -e)
        return self._raw_pow(a, e)

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self) -> int:
        return hash((Field, self.p, self.m))


@lru_cache(maxsize=None)
def make_field(p: int, m: int = 1) -> Field:
    """Canonical GF(p^m); cached, so repeated calls share one instance."""
    return Field(p, m)


def field_from_order(q: int) -> Field:
    """The canonical field with exactly q elements."""
    pm = prime_power(q)
    if pm is None:
        raise FieldError(f"{q} is not a prime power")
    return make_field(*pm)


# ---------------------------------------------------------------------------
# Polynomials over a Field


class Poly(NamedTuple):
    """Polynomial over a Field; coeffs lowest degree first, normalized so the
    leading coefficient is nonzero (the zero polynomial has empty coeffs)."""

    coeffs: tuple[int, ...]
    field: Field

    @staticmethod
    def make(coeffs, field: Field) -> "Poly":
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return Poly(tuple(c), field)

    @staticmethod
    def zero(field: Field) -> "Poly":
        return Poly((), field)

    @staticmethod
    def one(field: Field) -> "Poly":
        return Poly((1,), field)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _same_field(self, other: "Poly") -> None:
        if self.field != other.field:
            raise FieldError("polynomials live in different fields")

    def mul(self, other: "Poly") -> "Poly":
        self._same_field(other)
        f = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(f)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly.make(out, f)

    def eval(self, x: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc


def primitive_nth_root(n: int, base_q: int) -> tuple[Field, int]:
    """The extension GF(base_q^t), t = ord_n(base_q), together with a
    canonical element of exact multiplicative order n."""
    if n < 1:
        raise FieldError("n must be positive")
    base = field_from_order(base_q)
    if n == 1:
        return base, 1
    if gcd(n, base_q) != 1:
        raise FieldError(f"gcd({n}, {base_q}) != 1; no primitive n-th root")
    t = ord_mod(n, base_q)
    ext = make_field(base.p, base.m * t)
    alpha = ext.pow(ext.generator, (ext.order - 1) // n)
    return ext, alpha

