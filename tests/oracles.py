"""Slow, direct routes that the tests check the library against.

The distance oracles re-encode every message with digitwise addition and
the field's multiplication and compare codewords as sets, sharing no code
with the span kernel, the shortened-subcode rebuild or the MacWilliams
transform.  The support-search loop tests every candidate against the check
matrix one by one, as the library did before its pair-table search, and
the pair table itself is built by one lexsort of all its sums at once.  The
per-root generator polynomial multiplies one factor (x - alpha^j) per member
of the defining set, each root a separate power of alpha, and maps its
coefficients to GF(q) by inverting a subfield lift found by an additivity
search, where the library multiplies cached minimal polynomials of
cyclotomic cosets read off linear dependencies over GF(p).  Long division
checks the check polynomials and containments that the library reads off the
factorization of x^n - 1, and Gauss-Jordan null spaces check the duals that
the library verifies by orthogonality.  Coordinate sums of the rows check
the even-like structure that the quartet reads off g(1).  The generator and
check matrices, which no code keeps, are written out here from g and h as
tuples of rows, with their own shifting.  Field
products are checked against the convolution of digit vectors.  The other
linear-algebra and field helpers serve the cyclic-code and field tests only.
"""

import itertools
import math

import numpy as np

from qduadic.cyclic import CyclicCode
from qduadic.distance import DistanceError, DistanceResult
from qduadic.galois import Field, FieldError, Poly, primitive_nth_root


def _shifted_rows(coeffs, count: int, n: int) -> tuple:
    """(c_0, ..., c_d) placed at columns i..i+d of a length-n row, for each
    i < count."""
    return tuple(tuple(coeffs[j - i] if 0 <= j - i < len(coeffs) else 0
                       for j in range(n)) for i in range(count))


def generator_matrix(C) -> tuple:
    """The k x n generator matrix of C: row i is x^i*g(x)."""
    return _shifted_rows(C.genpoly.coeffs, C.k, C.n)


def check_matrix(C) -> tuple:
    """The (n-k) x n check matrix of C: row j is x^j*h~(x), h~(x) =
    x^k*h(1/x) the reciprocal of the check polynomial."""
    return _shifted_rows(C.checkpoly.coeffs[::-1], C.n - C.k, C.n)


def enumerate_codewords_naive(C) -> np.ndarray:
    """Every codeword of C, one row per message, by direct re-encoding."""
    f = C.field
    q = f.order
    digits = [f.element_to_coeffs(a) for a in range(q)]
    add = np.array([coeffs_to_element(f, [(x + y) % f.p
                                          for x, y in zip(a, b)])
                    for a in digits for b in digits],
                   dtype=np.uint16)  # add[a*q + b] = a + b
    msgs = np.array(list(itertools.product(range(q), repeat=C.k)),
                    dtype=np.intp).reshape(-1, C.k)
    words = np.zeros((len(msgs), C.n), dtype=np.uint16)
    for i, row in enumerate(generator_matrix(C)):
        multiples = np.array([[f.mul(m, x) for x in row] for m in range(q)],
                             dtype=np.uint16)
        words = add[words.astype(np.intp) * q + multiples[msgs[:, i]]]
    return words


def naive_binary_distribution(C, chunk: int = 1 << 12) -> dict[int, int]:
    """Weight histogram of a binary code by encoding every message as an
    integer matrix product mod 2, `chunk` messages at a time; for codes too
    long for the tables of `enumerate_codewords_naive`."""
    if C.q != 2:
        raise ValueError("binary codes only")
    G = np.array(generator_matrix(C), dtype=np.int64).reshape(C.k, C.n)
    bits = np.arange(C.k)
    hist = np.zeros(C.n + 1, dtype=np.int64)
    for start in range(0, 2**C.k, chunk):
        index = np.arange(start, min(start + chunk, 2**C.k))
        msgs = index[:, None] >> bits & 1
        hist += np.bincount((msgs @ G % 2).sum(axis=1), minlength=C.n + 1)
    return {w: int(c) for w, c in enumerate(hist) if c}


def _weights(words: np.ndarray) -> np.ndarray:
    return np.count_nonzero(words, axis=1)


def naive_min_weight(C) -> int:
    w = _weights(enumerate_codewords_naive(C))
    return int(w[w > 0].min())


def naive_min_odd_like(C) -> int:
    """Minimum weight over the codewords with nonzero coordinate sum."""
    f = C.field
    best = C.n + 1
    for word in enumerate_codewords_naive(C):
        s = 0
        for x in word:
            s = f.add(s, int(x))
        if s:
            best = min(best, int(np.count_nonzero(word)))
    return best


def naive_distribution(C) -> dict[int, int]:
    w, counts = np.unique(_weights(enumerate_codewords_naive(C)),
                          return_counts=True)
    return {int(a): int(b) for a, b in zip(w, counts)}


def min_weight_diffset(D, C) -> int:
    """Minimum weight over the set difference D \\ C of nested cyclic codes
    C subset D."""
    if not poly_divides(D.genpoly, C.genpoly):
        raise DistanceError("C is not contained in D (genpoly divisibility fails)")
    if C.T.as_set() == D.T.as_set():
        raise DistanceError("D equals C; the difference set is empty")
    inner = {w.tobytes() for w in enumerate_codewords_naive(C)}
    outer = enumerate_codewords_naive(D)
    keep = np.array([w.tobytes() not in inner for w in outer])
    return int(_weights(outer[keep]).min())


def support_search_loop(f: Field, H, budget: int) -> DistanceResult:
    """Search weight-w vectors against the check matrix H, a 2-d array of
    element indices of f with one column per coordinate, for w = 1, 2, ...
    First hit at level w is exact (all lower levels were exhausted); running
    out of budget certifies a lower bound.  `work` counts every candidate of
    the levels searched, the level of the hit included."""
    n, q = np.shape(H)[1], f.order
    H = np.asarray(H).tolist()
    cols = [tuple(row[j] for row in H) for j in range(n)]
    hlen = len(H)
    units = list(range(1, q))
    work = 0
    from math import comb

    for w in range(1, n + 1):
        level = comb(n, w) * (q - 1) ** (w - 1)
        if work + level > budget:
            lo = w  # levels 1..w-1 exhausted with no hit
            if lo == 1:
                return DistanceResult("interval", 1, n, "support_search", work)
            return DistanceResult("lower_bound", lo, None, "support_search", work)
        work += level
        for support in itertools.combinations(range(n), w):
            # first nonzero scalar fixed to 1 (codes are scale-invariant)
            for scalars in itertools.product(units, repeat=w - 1):
                syndrome_zero = True
                for r in range(hlen):
                    acc = cols[support[0]][r]
                    for pos, u in zip(support[1:], scalars):
                        if cols[pos][r]:
                            acc = f.add(acc, f.mul(u, cols[pos][r]))
                    if acc:
                        syndrome_zero = False
                        break
                if syndrome_zero:
                    return DistanceResult.exact(w, "support_search", work)
    raise DistanceError("no nonzero codeword found (zero code?)")


def pair_table_lexsort(syn: np.ndarray, p: int) -> tuple:
    """The support search's pair table built all at once: every pair sum
    h_j + u*h_k (j < k) in np.triu_indices order, its digit bytes as keys,
    and one lexsort by key and then by descending j; (keys, j) in that
    order."""
    n, nu, L = syn.shape
    J, K = np.triu_indices(n, 1)
    sums = ((syn[J, :1] + syn[K]) % p).reshape(-1, L)
    keys = sums.view(f"S{L * sums.itemsize}").ravel()
    order = np.lexsort((-np.repeat(J, nu), keys))
    return keys[order], J[order // nu]


def genpoly_per_root(n: int, field: Field, members) -> Poly:
    """prod_{j in members}(x - alpha^j) over `field`: the product is formed
    in the splitting field, one factor per root and one power of alpha per
    root, and mapped to `field` at the end by the inverse of subfield_lift."""
    ext, alpha = primitive_nth_root(n, field.order)
    g = Poly.one(ext)
    for j in members:
        g = g.mul(Poly.make([ext.neg(ext.pow(alpha, j)), 1], ext))
    down = {x: c for c, x in enumerate(subfield_lift(field, ext))}
    return Poly.make([down[x] for x in g.coeffs], field)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by b, by long division."""
    if a.field != b.field:
        raise FieldError("polynomials live in different fields")
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    f = a.field
    rem = list(a.coeffs)
    dq = len(a.coeffs) - len(b.coeffs)
    if dq < 0:
        return Poly.zero(f), a
    quo = [0] * (dq + 1)
    inv_lead = f.inv(b.coeffs[-1])
    for shift in range(dq, -1, -1):
        lead = rem[shift + len(b.coeffs) - 1]
        if lead:
            factor = f.mul(lead, inv_lead)
            quo[shift] = factor
            for i, c in enumerate(b.coeffs):
                rem[shift + i] = f.add(rem[shift + i], f.neg(f.mul(factor, c)))
    return Poly.make(quo, f), Poly.make(rem, f)


def poly_add(a: Poly, b: Poly) -> Poly:
    """Coefficientwise sum."""
    pairs = itertools.zip_longest(a.coeffs, b.coeffs, fillvalue=0)
    return Poly.make([a.field.add(x, y) for x, y in pairs], a.field)


def poly_divides(a: Poly, b: Poly) -> bool:
    """Whether a divides b."""
    return poly_divmod(b, a)[1].is_zero()


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
                rows[i] = [f.add(x, f.neg(f.mul(factor, y)))
                           for x, y in zip(rows[i], rows[r])]
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


def mat_mul(A, B, f: Field):
    rows = len(A)
    inner = len(B)
    cols = len(B[0]) if inner else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = 0
            for t in range(inner):
                if A[i][t] and B[t][j]:
                    acc = f.add(acc, f.mul(A[i][t], B[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def transpose(A):
    return tuple(zip(*A)) if A else ()


def rank(A, f: Field) -> int:
    return len(rref(A, f)[0])


def coordinate_sum(C: CyclicCode, word) -> int:
    f = C.field
    acc = 0
    for c in word:
        acc = f.add(acc, c)
    return acc


def is_even_like(C: CyclicCode, word) -> bool:
    return coordinate_sum(C, word) == 0


def even_like_subcode_matrix(C: CyclicCode):
    """Generator matrix of {c in C : sum(c) = 0}, computed by linear algebra
    (the alternative to the defining-set route, for cross-checks)."""
    f = C.field
    # one linear constraint: sum of coordinates of m*G equals 0
    G = generator_matrix(C)
    row_sums = tuple(coordinate_sum(C, row) for row in G)
    constraint = (row_sums,)
    msgs = null_space(constraint, f)
    return mat_mul(msgs, G, f) if msgs else ()


# ---------------------------------------------------------------------------
# Field helpers


def digit_products(f: Field, a, b) -> np.ndarray:
    """Elementwise products a*b of element indices (arrays, broadcast
    together) in f: the convolution of their base-p digit vectors, reduced
    by f.modulus by long division in numpy; shares no code with Field."""
    p, m = f.p, f.m
    powers = p ** np.arange(m, dtype=np.int64)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                               np.asarray(b, dtype=np.int64))
    da, db = (x[..., None] // powers % p for x in (a, b))
    prod = np.zeros(a.shape + (2 * m - 1,), dtype=np.int64)
    for i in range(m):
        prod[..., i:i + m] += da[..., i:i + 1] * db
    prod %= p
    mod = np.array(f.modulus, dtype=np.int64)  # monic, lowest degree first
    for d in range(2 * m - 2, m - 1, -1):  # cancel x^d with x^(d-m)*mod
        prod[..., d - m:d + 1] = (prod[..., d - m:d + 1]
                                  - prod[..., d:d + 1] * mod) % p
    return prod[..., :m] @ powers


def coeffs_to_element(f: Field, coeffs) -> int:
    """The element index of the polynomial-basis coefficients `coeffs`,
    lowest degree first: digit i of the index is the coefficient of x^i."""
    if len(coeffs) > f.m or any(not 0 <= c < f.p for c in coeffs):
        raise FieldError("coefficient vector does not fit this field")
    return sum(c * f.p**i for i, c in enumerate(coeffs))


def frobenius(f: Field, x: int, q: int) -> int:
    """The conjugation x -> x^q on GF(q^2) (or any field containing GF(q))."""
    if f.order == q:
        return f.pow(x, q)  # identity on the field itself
    t = 0
    order = f.order
    qq = q
    while qq < order:
        qq *= q
        t += 1
    if qq != order:
        raise FieldError(f"GF(q) with q={q} is not a subfield of {f}")
    return f.pow(x, q)


def subfield_lift(base: Field, ext: Field) -> list[int]:
    """lift[c] in `ext` for each element c of `base`: the embedding of `base`
    onto the subfield of `ext` of its size.  g^k -> omega^(jk) is
    multiplicative for every j; the first j coprime to q - 1 for which it
    also respects addition, checked on the whole field (phi(c + 1) =
    phi(c) + 1 for all c suffices), is taken."""
    if base.p != ext.p or ext.m % base.m != 0:
        raise FieldError(f"{base} is not a subfield of {ext}")
    q = base.order
    if base.m == 1:  # GF(p) sits at indices 0..p-1 of ext
        return list(range(q))
    step = (ext.order - 1) // (q - 1)
    log, x = {}, 1  # discrete logarithms to the base of base.generator
    for k in range(q - 1):
        log[x] = k
        x = base.mul(x, base.generator)
    for j in range(1, q - 1):
        if math.gcd(j, q - 1) != 1:
            continue
        lift = [0] + [ext.pow(ext.generator, step * j * log[c])
                      for c in range(1, q)]
        if all(lift[base.add(c, 1)] == ext.add(lift[c], 1) for c in range(q)):
            return lift
    raise FieldError(f"no embedding of {base} into {ext} found")


def embed_into_extension(poly: Poly, ext: Field) -> Poly:
    """Lift a base-field polynomial into an extension by subfield_lift."""
    lift = subfield_lift(poly.field, ext)
    return Poly.make([lift[c] for c in poly.coeffs], ext)
