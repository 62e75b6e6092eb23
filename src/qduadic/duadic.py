"""Splittings, duadic code quartets and degeneracy certificates.

A splitting of n is a partition {S0, S1} of {1,...,n-1} into unions of
q-ary cyclotomic cosets swapped by multiplication with some a coprime to n.
The attached quartet consists of the odd-like codes D_i (defining set S_i)
and their even-like subcodes C_i (defining set S_i union {0}).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import islice
from math import gcd
from typing import NamedTuple

from .cyclic import (
    LENGTH_CACHE_SIZE,
    CosetStructure,
    CyclicCode,
    DefiningSet,
    cyclotomic_cosets,
    is_quadratic_residue,
    make_cyclic_code,
    mu_apply,
    ord_mod,
)
from .galois import Field, FieldCapError, Poly, factorize, field_from_order

# CPython's built-in SHA-256 maps no OpenSSL; hashlib would load libcrypto
# into every process that prints a splitting id
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without the built-in SHA-2
        from hashlib import sha256


class SplittingError(ValueError):
    """Invalid splitting or quartet construction."""


def _splitting_id(n: int, q: int, S0: tuple[int, ...]) -> str:
    """The id of the splitting of n over GF(q) with side S0, sorted: the
    first 12 hex digits of the SHA-256 of "n:q:S0" (S0 comma-separated),
    from CPython's built-in module."""
    payload = f"{n}:{q}:" + ",".join(map(str, S0))
    return sha256(payload.encode()).hexdigest()[:12]


class _SplittingFields(NamedTuple):
    n: int
    q: int
    S0: tuple[int, ...]
    S1: tuple[int, ...]
    a: int


class Splitting(_SplittingFields):
    """A splitting {S0, S1, a} of n for q-ary duadic codes, its sides
    sorted."""

    __slots__ = ()

    def __new__(cls, n: int, q: int, S0, S1, a: int):
        S0, S1 = tuple(sorted(S0)), tuple(sorted(S1))
        s0, s1 = set(S0), set(S1)
        if s0 & s1:
            raise SplittingError("S0 and S1 intersect")
        if s0 | s1 != set(range(1, n)):
            raise SplittingError("S0 and S1 do not cover {1,...,n-1}")
        if len(s0) != len(s1):
            raise SplittingError("S0 and S1 differ in size")
        if gcd(a, n) != 1:
            raise SplittingError(f"gcd(a={a}, {n}) != 1")
        if mu_apply(s0, a, n) != s1 or mu_apply(s1, a, n) != s0:
            raise SplittingError(f"mu_{a} does not swap S0 and S1")
        # a set closed under r -> q*r mod n is a union of q-ary cosets
        if any(r * q % n not in side for side in (s0, s1) for r in side):
            raise SplittingError("sides are not unions of cosets")
        return super().__new__(cls, n, q, S0, S1, a)

    @property
    def splitting_id(self) -> str:
        """Stable identifier, from `_splitting_id`."""
        return _splitting_id(self.n, self.q, self.S0)

    def is_given_by(self, a: int) -> bool:
        """Whether mu_a also swaps the two sides of this splitting."""
        if gcd(a, self.n) != 1:
            return False
        return mu_apply(self.S0, a, self.n) == frozenset(self.S1)


def duadic_exists(n: int, q: int) -> bool:
    """Duadic codes of length n over GF(q) exist iff q is a quadratic
    residue modulo n."""
    if n % 2 == 0:
        raise ValueError("length n must be odd")
    if gcd(n, q) != 1:
        raise ValueError(f"gcd({n}, {q}) != 1")
    return is_quadratic_residue(q, n)


def _mu_coset_orbits(cs: CosetStructure, a: int):
    """Orbits of mu_a acting on the nonzero q-ary cosets, each orbit listed
    in action order starting from its smallest-representative coset."""
    n = cs.n
    remaining = {c[0]: c for c in cs.nonzero_cosets}
    orbits = []
    while remaining:
        start = remaining.pop(min(remaining))
        orbit = [start]
        cur = cs.coset_of(a * start[0] % n)
        while cur != start:
            remaining.pop(cur[0], None)
            orbit.append(cur)
            cur = cs.coset_of(a * cur[0] % n)
        # rotate so the coset with the smallest representative leads, keeping
        # the action order (orbit[i+1] = mu_a(orbit[i]))
        lead = min(range(len(orbit)), key=lambda i: orbit[i][0])
        orbit = orbit[lead:] + orbit[:lead]
        orbits.append(orbit)
    return orbits


def _assignments(cs: CosetStructure, a: int):
    """The sides (S0, S1) of the splittings given by mu_a, one per-orbit
    assignment at a time: none when some orbit of mu_a on the nonzero
    cosets has odd length; else the cosets alternate between the sides
    along each orbit, the canonical assignment first (each orbit's
    smallest-representative coset in S0), then its per-orbit flips in
    binary order."""
    orbits = _mu_coset_orbits(cs, a)
    if any(len(o) % 2 for o in orbits):
        return
    # the residues of each orbit's cosets at even and at odd positions
    halves = [tuple([r for c in orbit[i::2] for r in c] for i in (0, 1))
              for orbit in orbits]
    for flips in range(1 << len(orbits)):
        sides: tuple[list[int], list[int]] = ([], [])
        for bit, half in enumerate(halves):
            flip = flips >> bit & 1
            sides[0].extend(half[flip])
            sides[1].extend(half[1 - flip])
        yield sides


@lru_cache(maxsize=LENGTH_CACHE_SIZE)
def splitting_by(n: int, q: int, a: int) -> Splitting | None:
    """The canonical splitting given by mu_a, or None when mu_a gives none
    (see `_assignments`).  Cached like the cosets: a survey row reads the
    splittings of mu_(-1) and mu_(-q) and then builds one of them."""
    cs = cyclotomic_cosets(n, q)
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1")
    for S0, S1 in _assignments(cs, a):
        return Splitting(n, q, S0, S1, a)
    return None


def _sides(n: int, q: int):
    """(S0, S1, a) of each splitting of `iter_splittings`, in its order, S0
    sorted; no Splitting is built."""
    cs = cyclotomic_cosets(n, q)
    seen = set()
    for a in range(2, n):
        if gcd(a, n) != 1:
            continue
        for S0, S1 in _assignments(cs, a):
            side = tuple(sorted(S0))
            if side not in seen:
                seen.add(side)
                yield side, S1, a


def iter_splittings(n: int, q: int) -> Iterator[Splitting]:
    """All splittings of n, each S0 once, enumerated lazily and
    deterministically: multipliers a in increasing order, and for each valid
    a every per-orbit assignment of `_assignments`.  A side that several
    multipliers swap comes with the first of them."""
    for S0, S1, a in _sides(n, q):
        yield Splitting(n, q, S0, S1, a)


def splitting_with_id(n: int, q: int, splitting_id: str) -> Splitting | None:
    """The first splitting of `iter_splittings` with this id, or None.
    Each side is hashed first, and only the match is built."""
    return next((Splitting(n, q, S0, S1, a) for S0, S1, a in _sides(n, q)
                 if _splitting_id(n, q, S0) == splitting_id), None)


def find_splittings(n: int, q: int, limit: int | None = None) -> list[Splitting]:
    """The first `limit` (default: all) splittings of `iter_splittings`."""
    return list(islice(iter_splittings(n, q), limit))


def default_splitting(n: int, q: int) -> Splitting | None:
    """The splitting a build uses when none is named: mu_{-1} when it splits
    (the square-root bound is then strongest), else the smallest valid a."""
    s = splitting_by(n, q, n - 1)
    if s is not None:
        return s
    found = find_splittings(n, q, limit=1)
    return found[0] if found else None


class DuadicQuartet(NamedTuple):
    """The four cyclic codes attached to a splitting: C_i subset D_i."""

    splitting: Splitting
    D0: CyclicCode
    D1: CyclicCode
    C0: CyclicCode
    C1: CyclicCode

    @property
    def n(self) -> int:
        return self.splitting.n

    @property
    def q(self) -> int:
        return self.splitting.q


def build_quartet(s: Splitting, field: Field) -> DuadicQuartet:
    if field.order != s.q:
        raise SplittingError(
            f"field order {field.order} does not match splitting over GF({s.q})"
        )
    n = s.n
    x_minus_1 = Poly.make((field.neg(1), 1), field)
    D0 = make_cyclic_code(n, field, DefiningSet(n, s.q, s.S0))
    D1 = make_cyclic_code(n, field, DefiningSet(n, s.q, s.S1))
    C0 = make_cyclic_code(n, field, DefiningSet(n, s.q, s.S0 + (0,)))
    C1 = make_cyclic_code(n, field, DefiningSet(n, s.q, s.S1 + (0,)))
    for D, C in ((D0, C0), (D1, C1)):
        if D.k != (n + 1) // 2 or C.k != (n - 1) // 2:
            raise SplittingError("duadic dimension formula violated (internal bug)")
        # row i of G is x^i*g(x), so every row's coordinate sum is g(1)
        if C.genpoly.eval(1):
            raise SplittingError("even-like code has odd-like generator row")
        if not D.genpoly.eval(1):
            raise SplittingError("odd-like code has no odd-like generator row")
        if C.genpoly != x_minus_1.mul(D.genpoly):  # so C_i is in D_i
            raise SplittingError("g_{C_i} != (x - 1) g_{D_i} (internal bug)")
    return DuadicQuartet(splitting=s, D0=D0, D1=D1, C0=C0, C1=C1)


def materialize_quartet(s: Splitting, on_cap=None) -> DuadicQuartet | None:
    """The quartet over GF(s.q), or None when a field it needs is beyond the
    field-size cap; `on_cap`, if given, is called with the FieldCapError."""
    try:
        return build_quartet(s, field_from_order(s.q))
    except FieldCapError as exc:
        if on_cap is not None:
            on_cap(exc)
        return None


# ---------------------------------------------------------------------------
# Degeneracy certificates


class PrimeLocalData(NamedTuple):
    """Per-prime quantities entering the degeneracy theorems."""

    p: int
    m: int  # exponent of p in n
    t: int  # ord_p(q) (CSS) or ord_p(q^2) (Hermitian)
    z: int  # exact p-adic valuation of q^t - 1 (resp. q^{2t} - 1)
    q_is_qr_mod_p: bool
    m_gt_2z: bool
    p_cong_3_mod_4: bool
    purity_term: int  # p^z


class DegeneracyCertificate(NamedTuple):
    """Arithmetic hypotheses of the degenerate-family theorems, evaluated for
    (n, q).  The certificate predicts a purity bound; the degeneracy verdict
    itself always rests on computed distances."""

    n: int
    q: int
    construction: str  # "CSS" | "Hermitian"
    primes: tuple[PrimeLocalData, ...]
    purity_bound: int
    all_q_qr: bool
    all_m_gt_2z: bool
    all_p_cong_3_mod_4: bool
    ord_n_q_odd: bool
    hypotheses_met: bool
    example_clause_7m: bool  # the 7^m, q=2 family stated with m >= 2

    def to_dict(self) -> dict:
        return {**self._asdict(),
                "primes": tuple(pl._asdict() for pl in self.primes)}


FACTORIZATION_CAP = 10**6


def p_adic_valuation(p: int, x: int) -> int:
    z = 0
    while x % p == 0:
        x //= p
        z += 1
    return z


def degeneracy_certificate(n: int, q: int, construction: str) -> DegeneracyCertificate:
    if construction not in ("CSS", "Hermitian"):
        raise ValueError("construction must be 'CSS' or 'Hermitian'")
    if n % 2 == 0 or gcd(n, q) != 1:
        raise ValueError("n must be odd and coprime to q")
    if n > FACTORIZATION_CAP:
        raise ValueError(f"n = {n} exceeds the trial-division cap {FACTORIZATION_CAP}")
    base = q * q if construction == "Hermitian" else q
    primes = []
    fac = factorize(n)
    for p, m in sorted(fac.items()):
        t = ord_mod(p, base)
        z = p_adic_valuation(p, base**t - 1)
        if z < 1 or (base**t - 1) % p**z != 0:
            raise AssertionError("valuation computation failed (internal bug)")
        primes.append(PrimeLocalData(
            p=p, m=m, t=t, z=z,
            q_is_qr_mod_p=is_quadratic_residue(q, p) if p > 2 else False,
            m_gt_2z=m > 2 * z,
            p_cong_3_mod_4=p % 4 == 3,
            purity_term=p**z,
        ))
    purity_bound = min(pl.purity_term for pl in primes)
    all_qr = all(pl.q_is_qr_mod_p for pl in primes)
    all_m = all(pl.m_gt_2z for pl in primes)
    all_p3 = all(pl.p_cong_3_mod_4 for pl in primes)
    ord_odd = ord_mod(n, q) % 2 == 1
    if construction == "CSS":
        met = all_qr and all_m
    else:
        met = ord_odd and all_p3 and all_m
    example = (q == 2 and list(fac) == [7] and fac[7] >= 2
               and construction == "CSS")
    cert = DegeneracyCertificate(
        n=n, q=q, construction=construction, primes=tuple(primes),
        purity_bound=purity_bound, all_q_qr=all_qr, all_m_gt_2z=all_m,
        all_p_cong_3_mod_4=all_p3, ord_n_q_odd=ord_odd,
        hypotheses_met=met, example_clause_7m=example,
    )
    if all_m and not purity_bound**2 < n:
        # min p^z < sqrt(n) is a theorem under m_i > 2z_i
        raise AssertionError("purity bound not below sqrt(n) (internal bug)")
    return cert
