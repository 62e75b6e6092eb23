"""Cyclotomic cosets, defining sets, and cyclic codes over GF(q).

Convention: the defining set T of a cyclic code is the set of exponents j
such that alpha^j is a root of every codeword polynomial, where alpha is the
canonical primitive n-th root of unity (gamma^((q^t-1)/n) for the canonical
generator gamma of the splitting field).  The literature is split on this;
everything here uses the root-exponent convention.

Every polynomial fact a code needs comes from one factorization,
x^n - 1 = prod_s M_s over the cyclotomic cosets s, with
M_s(x) = prod_{j in s}(x - alpha^j) and coefficients in GF(q).  Each
(n, GF(q)) builds alpha^j for every j < n and every M_s once per process, in
the splitting field, and checks there that the M_s multiply to x^n - 1.  A
code with defining set T takes the generator polynomial g = prod_{s in T} M_s
and the check polynomial h = prod_{s not in T} M_s, so nothing is divided.
A code keeps only g and h: its generator matrix (rows x^i*g(x)) and check
matrix (rows x^j*h~(x), h~ the reciprocal of h) are never stored.  Duals are
built from the defining-set formulas and checked directly: the dimensions
add up to n and the lag products of the generator polynomials vanish.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .galois import (  # ord_mod is re-exported from here
    Field,
    Poly,
    ord_mod,
    primitive_nth_root,
)


# The per-length caches keep this many entries: a request reuses a length's
# cosets, factors and splittings only while it works on that length, so a
# survey of thousands of lengths need not hold them all
LENGTH_CACHE_SIZE = 16


class CyclicCodeError(ValueError):
    """Invalid defining set, code construction, or dual computation."""


def is_quadratic_residue(q: int, n: int) -> bool:
    """True iff some x in [0, n) has x^2 = q mod n (exhaustive check)."""
    if n % 2 == 0:
        raise ValueError("modulus must be odd")
    if gcd(q, n) != 1:
        raise ValueError(f"gcd({q}, {n}) != 1")
    return quadratic_residue_witness(q, n) is not None


def quadratic_residue_witness(q: int, n: int) -> int | None:
    """Smallest x with x^2 = q mod n, or None."""
    target = q % n
    for x in range(n):
        if x * x % n == target:
            return x
    return None


def mu_apply(members, a: int, n: int) -> frozenset[int]:
    """Image of a residue set under the permutation i -> a*i mod n."""
    if gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1")
    return frozenset(a * t % n for t in members)


class CosetStructure(NamedTuple):
    """The complete partition of {0,...,n-1} into q-ary cyclotomic cosets,
    ordered by smallest representative."""

    n: int
    q: int
    cosets: tuple[tuple[int, ...], ...]
    positions: tuple[int, ...]  # residue -> position of its coset in cosets

    def coset_of(self, r: int) -> tuple[int, ...]:
        return self.cosets[self.positions[r % self.n]]

    @property
    def nonzero_cosets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c in self.cosets if c != (0,))


@lru_cache(maxsize=LENGTH_CACHE_SIZE)
def cyclotomic_cosets(n: int, q: int) -> CosetStructure:
    if n % 2 == 0:
        raise ValueError("length n must be odd")
    if gcd(n, q) != 1:
        raise ValueError(f"gcd({n}, {q}) != 1")
    positions = [-1] * n
    cosets = []
    for r in range(n):
        if positions[r] >= 0:
            continue
        orbit = []
        x = r
        while positions[x] < 0:
            positions[x] = len(cosets)
            orbit.append(x)
            x = x * q % n
        cosets.append(tuple(sorted(orbit)))
    return CosetStructure(n, q, tuple(cosets), tuple(positions))


class DefiningSet:
    """A coset-closed residue subset of {0,...,n-1} for q-ary length-n
    cyclic codes: its members reduced mod n and sorted, with len() their
    number.  Immutable, equal by (n, q, members)."""

    __slots__ = ("n", "q", "members")

    def __init__(self, n: int, q: int, members):
        mem = tuple(sorted(set(m % n for m in members)))
        ms = set(mem)
        for t in mem:
            if t * q % n not in ms:
                raise CyclicCodeError(
                    f"defining set {mem} is not closed under *{q} mod {n}"
                )
        for name, value in zip(self.__slots__, (n, q, mem)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name} of a DefiningSet")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name} of a DefiningSet")

    def _values(self) -> tuple:
        return (self.n, self.q, self.members)

    def __reduce__(self):  # copies and pickles rebuild through __init__
        return DefiningSet, self._values()

    def __eq__(self, other):
        if type(other) is not DefiningSet:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"DefiningSet(n={self.n}, q={self.q}, members={self.members})"

    def as_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)


def mu_defining_set(T: DefiningSet, a: int) -> DefiningSet:
    return DefiningSet(T.n, T.q, tuple(mu_apply(T.members, a, T.n)))


def dual_defining_set(T: DefiningSet) -> DefiningSet:
    """Defining set of the Euclidean dual: -(N \\ T) mod n."""
    comp = set(range(T.n)) - T.as_set()
    return DefiningSet(T.n, T.q, tuple((-t) % T.n for t in comp))


def hermitian_dual_defining_set(T: DefiningSet) -> DefiningSet:
    """Defining set of the Hermitian dual over GF(q^2): -q0*(N \\ T) mod n,
    where q0 = sqrt(field order)."""
    q0 = _sqrt_exact(T.q)
    comp = set(range(T.n)) - T.as_set()
    return DefiningSet(T.n, T.q, tuple((-q0 * t) % T.n for t in comp))


def _sqrt_exact(q: int) -> int:
    r = isqrt(q)
    if r * r != q:
        raise CyclicCodeError(f"field order {q} is not a square")
    return r


class CyclicCode(NamedTuple):
    """A q-ary cyclic code of odd length n given by its defining set, held
    by its generator and check polynomials alone."""

    n: int
    field: Field
    T: DefiningSet
    genpoly: Poly
    checkpoly: Poly
    k: int

    @property
    def q(self) -> int:
        return self.field.order

    def __repr__(self) -> str:
        return f"CyclicCode[n={self.n},k={self.k}]_{self.q}"


def _first_dependency(ext: Field, elements: list[int]) -> tuple[int, ...]:
    """(c_0, ..., c_d) with c_d = 1 and sum_i c_i*e_i = 0 for the first d at
    which e_0, ..., e_d (elements of `ext`) are linearly dependent over
    GF(p), found by elimination on their polynomial-basis coordinates: XOR
    on the element indices when p = 2, digit lists mod p otherwise.  Each
    basis vector carries the combination of the e_i that gives it."""
    p, size = ext.p, len(elements)
    basis = {}  # pivot coordinate -> (vector, combination)
    for d, e in enumerate(elements):
        if p == 2:
            v, combo = e, 1 << d
            while v and v.bit_length() - 1 in basis:
                bv, bc = basis[v.bit_length() - 1]
                v, combo = v ^ bv, combo ^ bc
            if not v:
                return tuple(combo >> i & 1 for i in range(d + 1))
            basis[v.bit_length() - 1] = (v, combo)
            continue
        v = list(ext.element_to_coeffs(e))
        combo = [int(i == d) for i in range(size)]
        for pivot, (bv, bc) in basis.items():  # later vectors are 0 there
            c = v[pivot]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, bv)]
                combo = [(x - c * y) % p for x, y in zip(combo, bc)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return tuple(combo[:d + 1])
        inv = pow(v[pivot], p - 2, p)
        basis[pivot] = ([x * inv % p for x in v], [x * inv % p for x in combo])
    raise CyclicCodeError("no linear dependency found (internal bug)")


@lru_cache(maxsize=None)
def _subfield_basis(ext: Field, field: Field) -> tuple[tuple[int, int], ...]:
    """(b_i, g^i) for i < field.m, g = field.generator: the GF(p)-basis
    b_i = root^i of the subfield of `ext` of size q = field.order, with its
    images under the isomorphism root -> g.  root = omega^j, omega =
    g_ext^((Q-1)/(q-1)), for the least j coprime to q - 1 at which root and g
    have the same minimal polynomial over GF(p)."""
    m, q = field.m, field.order
    if m == 1:
        return ((1, 1),)
    images = [field.pow(field.generator, i) for i in range(m + 1)]
    minpoly = _first_dependency(field, images)
    omega = ext.pow(ext.generator, (ext.order - 1) // (q - 1))
    for j in range(1, q - 1):
        if gcd(j, q - 1) != 1:
            continue
        basis = [ext.pow(omega, j * i) for i in range(m + 1)]
        if _first_dependency(ext, basis) == minpoly:
            return tuple(zip(basis, images[:m]))
    raise CyclicCodeError(f"no subfield of {ext} is {field} (internal bug)")


@lru_cache(maxsize=LENGTH_CACHE_SIZE)
def _coset_minpolys(n: int, field: Field) -> tuple[tuple[int, Poly], ...]:
    """(s, M_s) for each cyclotomic coset, s its smallest member and M_s the
    minimal polynomial over `field` of beta = alpha^s.  The powers alpha^j
    take one splitting-field multiplication each.  M_s is read off the first
    linear dependency e over GF(p) among the b_i*beta^j of _subfield_basis,
    ordered by j and then i: those with j < |s| are independent, so it ends
    at beta^|s|, and the x^j coefficient of M_s is sum_i e_(i,j)*g^i.  Over
    a prime field b_0 = 1 is the only b_i and e is M_s.  Every cyclic code
    of length n takes its generator and check polynomials from these
    factors, so their product is checked here against x^n - 1, once."""
    ext, alpha = primitive_nth_root(n, field.order)
    powers = [1]
    for _ in range(n - 1):
        powers.append(ext.mul(powers[-1], alpha))
    m, basis = field.m, _subfield_basis(ext, field)
    minpolys = []
    product = Poly.one(field)
    for coset in cyclotomic_cosets(n, field.order).cosets:
        s, size = coset[0], len(coset)
        e = _first_dependency(ext, [  # no multiplication by 1
            x if b == 1 else b if x == 1 else ext.mul(b, x)
            for x in (powers[s * j % n] for j in range(size)) for b, _ in basis
        ] + [powers[s * size % n]])
        if m > 1:  # GF(p) sits at indices 0..p-1 of field
            coeffs = [0] * size + [1]
            for k, e_ij in enumerate(e[:-1]):
                term = basis[k % m][1]  # g^i
                if e_ij:
                    term = term if e_ij == 1 else field.mul(e_ij, term)
                    coeffs[k // m] = field.add(coeffs[k // m], term)
            e = coeffs
        M = Poly.make(e, field)
        minpolys.append((s, M))
        product = product.mul(M)
    if product != Poly.make((field.neg(1),) + (0,) * (n - 1) + (1,), field):
        raise CyclicCodeError(
            f"the coset minimal polynomials do not multiply to x^{n} - 1 "
            f"over GF({field.order}) (internal bug)")
    return tuple(minpolys)


def make_cyclic_code(n: int, field: Field, T: DefiningSet) -> CyclicCode:
    q = field.order
    if gcd(n, q) != 1:
        raise CyclicCodeError(f"gcd({n}, {q}) != 1")
    if T.n != n or T.q != q:
        raise CyclicCodeError("defining set does not match (n, q)")
    # x^n - 1 = prod_s M_s: g takes the cosets in T (a union of cosets) and
    # h = (x^n - 1)/g the others
    genpoly = checkpoly = Poly.one(field)
    members = T.as_set()
    for s, M in _coset_minpolys(n, field):
        if s in members:
            genpoly = genpoly.mul(M)
        else:
            checkpoly = checkpoly.mul(M)
    k = n - len(T)
    return CyclicCode(n=n, field=field, T=T, genpoly=genpoly,
                      checkpoly=checkpoly, k=k)


def check_matrix(C: CyclicCode):
    """The (n-k) x n check matrix of C, built on each call as a numpy array
    of the smallest integer type: row j is x^j*h~(x), h~ the reciprocal of
    C.checkpoly."""
    # numpy loads here, not with this module: loaded before distance.py is
    # compiled, it raised the peak RSS of an import without bytecode ~0.6 MB
    import numpy as np
    n, h = C.n, C.checkpoly.coeffs[::-1]
    H = np.zeros((n - C.k, n), np.min_scalar_type(C.q - 1))
    for j in range(n - C.k):
        H[j, j:j + len(h)] = h
    return H


def code_under_mu(C: CyclicCode, a: int) -> CyclicCode:
    """The image code C mu_a, with defining set a^{-1} T mod n."""
    n = C.n
    if gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1")
    a_inv = pow(a, -1, n)
    return make_cyclic_code(n, C.field, mu_defining_set(C.T, a_inv))


def _check_dual(C: CyclicCode, D: CyclicCode, power: int, formula: str) -> None:
    """Raise unless k_C + k_D = n and every generator row x^j*g_D(x) of D is
    orthogonal to every generator row x^i*g_C(x) of C with its entries
    raised to `power`.  The rows have no wrap-around, so each generator
    matrix has full rank.  The product of rows i and j is coefficient
    top - (i - j) of g_C (entries raised to `power`) times g_D reversed,
    top = deg g_D, so one product covers all k_C*k_D pairs.  This proves
    D = C^perp (power 1) or D = C^perp_h (power q0)."""
    f = C.field
    if C.k + D.k != C.n:
        raise CyclicCodeError(
            f"{formula} formula gives dimension {D.k} for the dual of a "
            f"[{C.n}, {C.k}] code (internal bug)")
    gC = Poly.make([f.pow(x, power) for x in C.genpoly.coeffs], f)
    gD = D.genpoly.coeffs
    top = len(gD) - 1
    lags = gC.mul(Poly.make(gD[::-1], f)).coeffs
    if any(lags[max(top - C.k + 1, 0):top + D.k]):
        raise CyclicCodeError(
            f"{formula} formula gives a code not orthogonal to C "
            "(internal bug)")


def euclidean_dual(C: CyclicCode) -> CyclicCode:
    """Dual code, built from the defining-set formula and checked against
    the generator polynomial of C."""
    D = make_cyclic_code(C.n, C.field, dual_defining_set(C.T))
    _check_dual(C, D, 1, "dual defining-set")
    return D


def hermitian_dual(C: CyclicCode) -> CyclicCode:
    """Hermitian dual over GF(q^2), built from the defining-set formula and
    checked against the conjugated generator polynomial of C."""
    q0 = _sqrt_exact(C.q)
    D = make_cyclic_code(C.n, C.field, hermitian_dual_defining_set(C.T))
    _check_dual(C, D, q0, "hermitian dual")
    return D
