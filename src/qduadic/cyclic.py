"""Cyclotomic cosets, defining sets, and cyclic codes over GF(q).

Convention: the defining set T of a cyclic code is the set of exponents j
such that alpha^j is a root of every codeword polynomial, where alpha is the
canonical primitive n-th root of unity (gamma^((q^t-1)/n) for the canonical
generator gamma of the splitting field).  The literature is split on this;
everything here uses the root-exponent convention.

Generator polynomials are products of minimal polynomials: g_T is the
product over the cyclotomic cosets s in T of
M_s(x) = prod_{j in s}(x - alpha^j), whose coefficients lie in GF(q).  Each
(n, GF(q)) builds alpha^j for every j < n and every M_s once per process, in
the splitting field, and every code of that length and field multiplies the
cached M_s in GF(q).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .galois import (  # ord_mod is re-exported from here
    Field,
    Poly,
    coerce_to_base,
    ord_mod,
    primitive_nth_root,
)


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


@dataclass(frozen=True)
class CosetStructure:
    """The complete partition of {0,...,n-1} into q-ary cyclotomic cosets,
    ordered by smallest representative."""

    n: int
    q: int
    cosets: tuple[tuple[int, ...], ...]

    @cached_property
    def _index(self) -> tuple[int, ...]:
        """Residue -> position of its coset in `cosets`."""
        index = [0] * self.n
        for i, c in enumerate(self.cosets):
            for r in c:
                index[r] = i
        return tuple(index)

    def coset_of(self, r: int) -> tuple[int, ...]:
        return self.cosets[self._index[r % self.n]]

    @property
    def nonzero_cosets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c in self.cosets if c != (0,))


@lru_cache(maxsize=None)
def cyclotomic_cosets(n: int, q: int) -> CosetStructure:
    if n % 2 == 0:
        raise ValueError("length n must be odd")
    if gcd(n, q) != 1:
        raise ValueError(f"gcd({n}, {q}) != 1")
    seen = [False] * n
    cosets = []
    for r in range(n):
        if seen[r]:
            continue
        orbit = []
        x = r
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = x * q % n
        cosets.append(tuple(sorted(orbit)))
    return CosetStructure(n=n, q=q, cosets=tuple(cosets))


@dataclass(frozen=True)
class DefiningSet:
    """A coset-closed residue subset of {0,...,n-1} for q-ary length-n
    cyclic codes."""

    n: int
    q: int
    members: tuple[int, ...]

    def __post_init__(self):
        mem = tuple(sorted(set(m % self.n for m in self.members)))
        object.__setattr__(self, "members", mem)
        ms = set(mem)
        for t in mem:
            if t * self.q % self.n not in ms:
                raise CyclicCodeError(
                    f"defining set {mem} is not closed under *{self.q} mod {self.n}"
                )

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
    r = int(round(q**0.5))
    if r * r != q:
        raise CyclicCodeError(f"field order {q} is not a square")
    return r


# ---------------------------------------------------------------------------
# Linear algebra over a Field (matrices as tuples of row-tuples of indices)


def rref(A, f: Field):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in A]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def null_space(A, f: Field):
    """Basis of {x : A x^T = 0}, rows of the returned matrix."""
    ncols = len(A[0]) if A else 0
    R, pivots = rref(A, f)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = f.neg(R[r][fc])
        basis.append(tuple(vec))
    return tuple(basis)


def row_space_equal(A, B, f: Field) -> bool:
    return rref(A, f)[0] == rref(B, f)[0]


def conjugate_matrix(A, f: Field, q0: int):
    """Entrywise x -> x^q0."""
    return tuple(tuple(f.pow(x, q0) for x in row) for row in A)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicCode:
    """A q-ary cyclic code of odd length n given by its defining set."""

    n: int
    field: Field
    T: DefiningSet
    genpoly: Poly
    checkpoly: Poly
    k: int
    G: tuple  # k x n generator matrix, rows = cyclic shifts of genpoly
    H: tuple  # (n-k) x n check matrix, rows = shifts of reversed checkpoly

    @property
    def q(self) -> int:
        return self.field.order

    def coordinate_sum(self, word) -> int:
        f = self.field
        acc = 0
        for c in word:
            acc = f.add(acc, c)
        return acc

    def is_even_like(self, word) -> bool:
        return self.coordinate_sum(word) == 0

    def __repr__(self) -> str:
        return f"CyclicCode[n={self.n},k={self.k}]_{self.q}"


@lru_cache(maxsize=None)
def _coset_minpolys(n: int, field: Field) -> tuple[tuple[int, Poly], ...]:
    """(s, M_s) for each cyclotomic coset, s its smallest member and M_s the
    minimal polynomial over `field` of alpha^s.  The powers alpha^j take one
    splitting-field multiplication each, and M_s one factor (x - alpha^j)
    per step; each M_s is coerced to the base field once."""
    ext, alpha = primitive_nth_root(n, field.order)
    powers = [1]
    for _ in range(n - 1):
        powers.append(ext.mul(powers[-1], alpha))
    minpolys = []
    for coset in cyclotomic_cosets(n, field.order).cosets:
        coeffs = [1]  # lowest degree first
        for j in coset:
            # (x - alpha^j) * c(x) has x^i coefficient c_{i-1} - alpha^j*c_i
            minus_root = ext.neg(powers[j])
            coeffs = ([ext.mul(minus_root, coeffs[0])]
                      + [ext.add(a, ext.mul(minus_root, b))
                         for a, b in zip(coeffs, coeffs[1:])]
                      + [1])
        minpolys.append(
            (coset[0], coerce_to_base(Poly.make(coeffs, ext), field)))
    return tuple(minpolys)


def make_cyclic_code(n: int, field: Field, T: DefiningSet) -> CyclicCode:
    q = field.order
    if gcd(n, q) != 1:
        raise CyclicCodeError(f"gcd({n}, {q}) != 1")
    if T.n != n or T.q != q:
        raise CyclicCodeError("defining set does not match (n, q)")
    genpoly = Poly.one(field)
    if T.members:
        members = T.as_set()
        for s, M in _coset_minpolys(n, field):
            if s in members:  # T is a union of cosets
                genpoly = genpoly.mul(M)
    k = n - len(T)
    # x^n - 1 over the base field
    xn1 = Poly.make((field.neg(1),) + (0,) * (n - 1) + (1,), field)
    checkpoly, rem = xn1.divmod(genpoly)
    if not rem.is_zero():
        raise CyclicCodeError("generator polynomial does not divide x^n - 1")
    gcoef = list(genpoly.coeffs) + [0] * (n - len(genpoly.coeffs))
    G = tuple(tuple(gcoef[(j - i) % n] if 0 <= j - i < len(genpoly.coeffs) else 0
                    for j in range(n))
              for i in range(k))
    hrev = tuple(reversed(checkpoly.coeffs))
    H = tuple(tuple(hrev[j - i] if 0 <= j - i < len(hrev) else 0
                    for j in range(n))
              for i in range(n - k))
    return CyclicCode(n=n, field=field, T=T, genpoly=genpoly,
                      checkpoly=checkpoly, k=k, G=G, H=H)


def code_under_mu(C: CyclicCode, a: int) -> CyclicCode:
    """The image code C mu_a, with defining set a^{-1} T mod n."""
    n = C.n
    if gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1")
    a_inv = pow(a, -1, n)
    return make_cyclic_code(n, C.field, mu_defining_set(C.T, a_inv))


def euclidean_dual(C: CyclicCode) -> CyclicCode:
    """Dual code, built from the defining-set formula and verified against
    the null space of G."""
    Td = dual_defining_set(C.T)
    D = make_cyclic_code(C.n, C.field, Td)
    if C.k > 0 and D.k > 0:
        ns = null_space(C.G, C.field)
        if not row_space_equal(ns, D.G, C.field):
            raise CyclicCodeError(
                "dual defining-set formula disagrees with null space (internal bug)"
            )
    return D


def hermitian_dual(C: CyclicCode) -> CyclicCode:
    """Hermitian dual over GF(q^2): null space of the conjugated generator
    matrix; verified against the defining-set formula."""
    q0 = _sqrt_exact(C.q)
    Td = hermitian_dual_defining_set(C.T)
    D = make_cyclic_code(C.n, C.field, Td)
    if C.k > 0 and D.k > 0:
        Gc = conjugate_matrix(C.G, C.field, q0)
        ns = null_space(Gc, C.field)
        if not row_space_equal(ns, D.G, C.field):
            raise CyclicCodeError(
                "hermitian dual formula disagrees with conjugated null space"
            )
    return D
