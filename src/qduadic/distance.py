"""Minimum weights of cyclic codes: a Brouwer-Zimmermann search, exact
weight distributions by exhaustive enumeration, and a support search.

Builds and survey rows take their minimum weights from a Brouwer-Zimmermann
search over cyclic information sets (`brouwer_zimmermann`): it enumerates
the words of a systematic generator matrix by their number of nonzero
message coordinates, and stops once ceil(n*(w+1)/k) after level w reaches
the least weight found.  The weight histogram is the independent route
that `verify` compares with, and the MacWilliams transform turns it into
the histogram of the dual code.  Every GF(p^m) code is reduced to a
prime-field message space: the rows of the same systematic generator
matrix are expanded by the polynomial basis of the field, so a
k-dimensional code over GF(p^m) becomes a (k*m)-row code over GF(p).  One
span kernel enumerates it: a numpy block of every combination of the first
rows, plus one high word per step of a p-ary counter over the rest; the
weights of two steps are counted by one bincount of joint keys.  It scans
only the shortened subcode {c_(n-1) = 0}, q^(k-1) words, and the cyclic
symmetry rebuilds the full histogram from it exactly.  Beyond the budget,
a low-weight support search bounds the minimum weight, one whole level of
weights at a time, by looking for proportional columns of H and by binary
search for prefix sums in a sorted table of pair sums.

Both kernels hold codewords in one layout (`_Words`): in characteristic 2
as uint64 lanes of floor(64/m) m-bit cells, one cell per coordinate, added
by XOR, at every length; as arrays of GF(p) digits otherwise.  Work
counters are closed forms of n, q and k (and of the level where the search
stops), so they are reproducible and independent of the worker count.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from math import comb
from typing import NamedTuple

import numpy as np

from .cyclic import CyclicCode

DEFAULT_BUDGET = 1 << 26
_LOW_BLOCK_BITS = 16


class DistanceError(ValueError):
    """Invalid input to a weight computation, or a violated invariant of its
    result."""


class _DistanceFields(NamedTuple):
    kind: str  # exact | lower_bound | interval
    lo: int | None
    hi: int | None
    method: str  # brouwer_zimmermann | full_enumeration | support_search
    #              | defining_set_theory
    work: int


class DistanceResult(_DistanceFields):
    """An exact value or interval for a minimum-weight problem."""

    __slots__ = ()

    def __new__(cls, kind: str, lo: int | None, hi: int | None, method: str,
                work: int):
        if kind == "exact" and lo != hi:
            raise DistanceError("exact result requires lo == hi")
        if kind == "interval" and (lo is None or hi is None or lo > hi):
            raise DistanceError("interval requires lo <= hi")
        return super().__new__(cls, kind, lo, hi, method, work)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def value(self) -> int:
        if not self.is_exact:
            raise DistanceError(f"no exact value in a {self.kind} result")
        return self.lo

    @staticmethod
    def exact(value: int, method: str, work: int) -> "DistanceResult":
        return DistanceResult("exact", value, value, method, work)

    def to_dict(self) -> dict:
        return self._asdict()


# ---------------------------------------------------------------------------
# Generator rows and their word layout


def _systematic_rows(C: CyclicCode) -> np.ndarray:
    """GF(p) digits, shape (k, n + 1, m), of the rows x^(n-k+i) -
    (x^(n-k+i) mod g(x)), i < k, each with its coordinate sum in an extra
    cell: C's generator matrix in systematic form on the last k
    coordinates, row i being 1 at coordinate n-k+i and 0 at the others of
    them.  g is monic, so x^(n-k) mod g = x^(n-k) - g, and each later
    remainder is x times the one before, less its overflow times g."""
    f, n, k = C.field, C.n, C.k
    p, m, r = f.p, f.m, n - k
    if p == 2:
        sub = operator.xor  # on element indices, in every GF(2^m)
    elif m == 1:
        def sub(a, b):
            return (a - b) % p
    else:
        def sub(a, b):
            return f.add(a, f.neg(b))
    g = C.genpoly.coeffs
    multiples = {1: g}  # top -> top*g
    rem, rems = [sub(0, c) for c in g[:r]], []
    for _ in range(k):
        rems.append(rem)
        top, rem = (rem[-1], [0] + rem[:-1]) if r else (0, rem)
        if top:
            if top not in multiples:
                multiples[top] = [f.mul(top, x) for x in g]
            rem = list(map(sub, rem, multiples[top]))
    digits = np.zeros((k, n + 1, m), np.int64)
    digits[:, :r] = -_digits(np.array(rems, np.int64).reshape(k, r), p, m) % p
    digits[np.arange(k), r + np.arange(k), 0] = 1
    digits[:, n] = digits[:, :n].sum(axis=1) % p
    return digits


class _Words:
    """The rows of both enumeration kernels: words of `cells` cells of
    GF(p^m), packed from the GF(p) digits of the cells.

    In characteristic 2 a row is ceil(cells/c) uint64 lanes of c = 64 // m
    cells, m bits a cell: cell i sits in lane i // c at bit (i % c)*m, the
    bits past the last cell stay 0, and rows add by XOR.  For odd p a row
    is cells*m GF(p) digits, m a cell, added by `_add_digits`."""

    def __init__(self, f, cells: int):
        p, m = f.p, f.m
        self.p, self.m, self.cells = p, m, cells
        if p == 2:
            self.per = 64 // m
            self.width = -(-cells // self.per)
            # the lowest bit of every cell of a lane
            self.low = np.uint64(((1 << self.per * m) - 1) // ((1 << m) - 1))
        else:
            self.width = cells * m

    def pack(self, digits: np.ndarray) -> np.ndarray:
        """Rows from the digits of their cells, shape (..., cells, m)."""
        lead = digits.shape[:-2]
        if self.p != 2:  # in a dtype that holds the sum of two digits
            return digits.reshape(lead + (self.width,)).astype(
                np.min_scalar_type(2 * (self.p - 1)))
        size = self.cells * self.m
        bits = np.zeros(lead + (self.width * self.per * self.m,), np.uint64)
        bits[..., :size] = digits.reshape(lead + (size,))
        bits = bits.reshape(lead + (self.width, self.per * self.m))
        return np.bitwise_or.reduce(
            bits << np.arange(bits.shape[-1], dtype=np.uint64), axis=-1)

    def add(self, x, y, out=None) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(x, y, out=out)
        return _add_digits(x, y, self.p, out)

    def weights(self, rows: np.ndarray, scratch=()) -> np.ndarray:
        """The number of nonzero cells of each row.  In characteristic 2
        the bits of every cell are folded into its lowest bit and counted;
        `scratch`, three arrays of the shape of `rows` (uint64, uint64 and
        uint8), holds that work in place where given."""
        if self.p != 2:
            nonzero = rows.reshape(len(rows), self.cells, self.m) != 0
            return nonzero.any(axis=2).sum(axis=1)
        y, t, c = scratch or (None,) * 3
        if self.m > 1:
            for b in range(1, self.m):
                t = np.right_shift(rows, np.uint64(b), out=t)
                y = np.bitwise_or(t, rows if b == 1 else y, out=y)
            rows = np.bitwise_and(y, self.low, out=y)
        counts = np.bitwise_count(rows, out=c)
        if self.width == 1:
            return counts[:, 0]
        return np.add.reduce(counts, axis=1,
                             dtype=np.min_scalar_type(self.cells))

    def cell(self, rows: np.ndarray, i) -> np.ndarray:
        """The element index of cell i of each row, i an int or an array of
        them."""
        if self.p != 2:
            cells = rows.reshape(rows.shape[:-1] + (self.cells, self.m))
            return cells[..., i, :] @ self.p ** np.arange(self.m)
        lane, at = divmod(i, self.per)
        x = rows[..., lane] >> np.asarray(at * self.m, np.uint64)
        x &= np.uint64((1 << self.m) - 1)
        return x


def _low_rows(p: int, K: int) -> int:
    """How many of K rows span the low block: the most with p^h <= 2^16."""
    h = 0
    while h < K and p ** (h + 1) <= 1 << _LOW_BLOCK_BITS:
        h += 1
    return h


def _scan_range(words: _Words, rows: np.ndarray, start: int,
                end: int) -> np.ndarray:
    """Weight histogram of the GF(p)-span words at high indices [start, end).

    The first h rows span the low block, every one of their p^h
    combinations.  High index i stands for the high word sum_b i_b*high[b],
    i_b the base-p digits of i, and each high word is added to the whole
    low block.  From i - 1 to i the digits below the lowest nonzero digit j
    of i wrap from p - 1 to 0 and digit j steps up, so the high word gains
    high[0] + ... + high[j] (mod p), one precomputed prefix sum per step.

    Two consecutive steps share one bincount: the weights w_a, w_b of a
    block word at both form the key w_a*(n+1) + w_b into an (n+1)^2 joint
    table, whose two marginals are the two steps' histograms.  An odd last
    step is counted alone.

    The rows are laid out by `words`, whose cells are the n coordinates."""
    p, n = words.p, words.cells
    h = _low_rows(p, len(rows))
    block = np.zeros((p**h,) + rows.shape[1:], rows.dtype)
    for b, r in enumerate(rows[:h]):
        size = p**b  # block[:size] spans rows[:b]; copy c adds c*r to it
        for c in range(1, p):
            words.add(block[(c - 1) * size:c * size], r,
                      out=block[c * size:(c + 1) * size])
    word = np.zeros_like(block[0])
    high = rows[h:]
    x = start
    for r in high:  # the high word of index `start`
        for _ in range(x % p):
            word = words.add(word, r)
        x //= p
    prefix = list(accumulate(high, words.add))
    key_type = np.min_scalar_type((n + 1) ** 2 - 1)
    if p == 2:
        weights = _xor_weights(words, block)
    else:
        weights = _element_weights(block, p, n, words.m, key_type)
    key = np.empty(len(block), key_type)
    joint = np.zeros((n + 1) ** 2, dtype=np.int64)
    for i in range(start, end):
        if i > start:
            j, x = 0, i
            while x % p == 0:
                j, x = j + 1, x // p
            word = words.add(word, prefix[j])
        w = weights(word)
        if (i - start) % 2 == 0:
            np.multiply(w, key_type.type(n + 1), out=key)
        else:
            key += w
            joint += np.bincount(key, minlength=(n + 1) ** 2)
    joint = joint.reshape(n + 1, n + 1)
    hist = joint.sum(axis=1) + joint.sum(axis=0)
    if (end - start) % 2:
        hist += np.bincount(w, minlength=n + 1)
    return hist


def _xor_weights(words: _Words, block: np.ndarray):
    """word -> the number of nonzero cells of each row of block ^ word, in
    characteristic 2.  The block is XORed in place with the change of word,
    so it holds block ^ word after each call."""
    last = np.zeros_like(block[0])  # the word the block holds now
    scratch = (np.empty_like(block), np.empty_like(block),
               np.empty(block.shape, np.uint8))

    def weights(word):
        nonlocal last
        np.bitwise_xor(block, word ^ last, out=block)
        last = word
        return words.weights(block, scratch)
    return weights


def _element_weights(block: np.ndarray, p: int, n: int, m: int, dtype):
    """word -> the number of nonzero coordinates of each word of
    block + word, for digit rows.  The block is turned once into element
    indices, held coordinate by coordinate; a coordinate of block + word is
    zero where the block's element is that of -word.  The result array, of
    `dtype`, is reused by the next call."""
    index_type = np.min_scalar_type(p**m - 1)
    elements = np.ascontiguousarray(
        _element_indices(block.reshape(-1, n, m), p, index_type).T)
    nonzero = np.empty(elements.shape, np.uint8)
    w = np.empty(len(block), dtype)

    def weights(word):
        negated = _element_indices(((p - word) % p).reshape(n, m), p,
                                   index_type)
        np.not_equal(elements, negated[:, None], out=nonzero)
        return np.add.reduce(nonzero, axis=0, dtype=dtype, out=w)
    return weights


def _element_indices(digits: np.ndarray, p: int, dtype) -> np.ndarray:
    """Element indices from the digits along the last axis, digit i the
    coefficient of x^i."""
    out = digits[..., -1].astype(dtype)
    for i in range(digits.shape[-1] - 2, -1, -1):
        out *= p
        out += digits[..., i]
    return out


# ---------------------------------------------------------------------------
# Public operations


def enumerable(C: CyclicCode, budget: int) -> bool:
    """Whether C is enumerated exhaustively: q^k fits the budget."""
    return C.q**C.k <= budget


def weight_distribution(C: CyclicCode, budget: int = DEFAULT_BUDGET,
                        workers: int = 1) -> dict[int, int]:
    """Full weight histogram {weight: count}, rebuilt from a scan of the
    shortened subcode {c : c_(n-1) = 0}, q^(k-1) words: the span of the
    first k - 1 systematic rows, which are 0 at message coordinate n - 1.
    The cyclic shift is transitive on the coordinates, so a weight-w word
    has c_i = 0 at n - w of its n coordinates, equally often at each:
    n*A'_w = (n - w)*A_w for the subcode's A'_w, and A_n is what remains
    of q^k."""
    total = C.q**C.k
    if total > budget:
        raise DistanceError(f"q^k = {total} exceeds the budget {budget}")
    if C.k == 0:
        return {0: 1}
    n = C.n
    A = {}
    rows = _systematic_rows(C)[:-1, :n]
    for w, count in _histogram(C, rows, workers).items():
        if w == n or n * count % (n - w):
            raise DistanceError(
                f"the shortened subcode has {count} words of weight {w}, "
                f"which no cyclic code of length {n} has (internal bug)")
        A[w] = n * count // (n - w)
    rest = total - sum(A.values())
    if rest < 0:
        raise DistanceError(
            f"the rebuilt histogram holds more than q^k = {total} words "
            "(internal bug)")
    if rest:
        A[n] = rest
    return A


def _full_scan_distribution(C: CyclicCode, workers: int = 1) -> dict[int, int]:
    """Weight histogram of C from a scan of all q^k words, without the
    shortening; an independent route to check `weight_distribution`."""
    return _histogram(C, _systematic_rows(C)[:, :C.n], workers)


def _histogram(C: CyclicCode, rows, workers: int) -> dict[int, int]:
    """Weight histogram of the GF(q)-span of `rows`, the GF(p) digits of
    words of C, shape (rows, n, m)."""
    return {int(w): int(c) for w, c in enumerate(_scan(C, rows, workers)) if c}


def _scan(C: CyclicCode, rows, workers: int) -> np.ndarray:
    """Weight histogram of the GF(q)-span of `rows`, GF(p) digits of words
    of C, from one span kernel over the GF(p)-span of their expansion: each
    row followed by its multiples by x^b, 0 < b < m, in C's word layout.
    `workers` processes split the high indices, and their histograms add."""
    f = C.field
    words = _Words(f, C.n)
    rows = words.pack(np.stack([_times(f, f.p**b, rows) for b in range(f.m)],
                               axis=1).reshape(-1, C.n, f.m))
    nblocks = f.p ** (len(rows) - _low_rows(f.p, len(rows)))
    if workers > 1 and nblocks >= 2 * workers:
        # imported here, so a single-process run never loads the pool
        from concurrent.futures import ProcessPoolExecutor
        chunk = (nblocks + workers - 1) // workers
        ranges = [(s, min(s + chunk, nblocks)) for s in range(0, nblocks, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(_scan_range, *zip(*[
                (words, rows, s, t) for s, t in ranges])))
    return _scan_range(words, rows, 0, nblocks)


# ---------------------------------------------------------------------------
# Brouwer-Zimmermann search over cyclic information sets


def _extend(blocks, table, units: int, limit: int, add):
    """The blocks (words, j) of the next level after `blocks`, the words
    sum_i u_i*row_(j_i) of one level with j their last row: every word
    plus u*row_j for each row j past its own and each unit u, in that
    order.  `table` holds u*row_j for every unit u, ordered by j and then
    u, so a word has at most len(table) extensions, and a block extends
    limit // len(table) words (at least one)."""
    size = len(table)
    step = max(1, limit // size)
    for words, last in blocks:
        for lo in range(0, len(words), step):
            first = (last[lo:lo + step] + 1) * units  # first table entry
            count = size - first
            ends = np.cumsum(count)
            if not ends[-1]:
                continue
            # table index of every extension, word by word
            index = np.arange(ends[-1]) + np.repeat(first - ends + count,
                                                    count)
            yield (add(np.repeat(words[lo:lo + step], count, axis=0),
                       table.take(index, axis=0)), index // units)


def brouwer_zimmermann(C: CyclicCode,
                       odd_like: bool = False) -> tuple[DistanceResult,
                                                        tuple[int, ...]]:
    """The least weight of a nonzero word of C, or with `odd_like` of a word
    with nonzero coordinate sum, and the first such word found.

    The generator matrix is put in systematic form on the last k
    coordinates, and level w = 1, 2, ... enumerates the words with w nonzero
    message coordinates, the first of them 1: comb(k, w)*(q-1)^(w-1) words.
    Any k cyclically consecutive coordinates of a cyclic code form an
    information set, and a cyclic shift keeps the weight and the coordinate
    sum.  A word of weight t has, by averaging over its n windows of k
    consecutive coordinates, a shift with at most k*t/n nonzero message
    coordinates, so a word not met up to level w weighs at least
    ceil(n*(w+1)/k) (Chen, IEEE Trans. IT 16 (1970); Grassl, "Searching
    for linear codes with large minimum distance", 2006).  Over GF(2) that
    bound rounds up to odd for odd-like words, and to even in an even-like
    code (0 in T).  The search stops at the first level whose bound reaches
    the least weight found; `work` counts the words of levels 1 to w.

    Words are in the `_Words` layout: n cells, and with `odd_like` one more
    that carries the coordinate sum; ceil(cells/floor(64/m)) uint64 lanes in
    characteristic 2, where the sum cell is read from the lane that holds
    it, and cells*m GF(p) digits otherwise.  Blocks hold at most
    2^_LOW_BLOCK_BITS words, or k*(q-1) if more, and a level is kept for
    the next one only if it fits one block."""
    f, n, k, q = C.field, C.n, C.k, C.q
    if k == 0:
        raise DistanceError("zero code has no nonzero word")
    words = _Words(f, n + odd_like)  # the sum cell only where it is asked
    digits = _systematic_rows(C)[:, :words.cells]  # (k, cells, m)
    rows = words.pack(digits)
    # u*row_j for every unit u, ordered by j and then u; over GF(q), q > 2,
    # built only once level 2 needs it
    table = rows
    # over GF(2) odd-like weights are odd, and an even-like code's even
    parity = int(odd_like) if q == 2 and (odd_like or 0 in C.T.as_set()) \
        else None
    limit = 1 << _LOW_BLOCK_BITS
    # levels[w]: level w's blocks (words, last row), held while they fit
    # one block, else None and enumerated again from the last one held
    levels = [None, [(rows, np.arange(k))]]

    def level(w):
        held = levels[w] if w < len(levels) else None
        if held is not None:
            return iter(held)
        return _extend(level(w - 1), table, q - 1, limit, words.add)

    best, witness, work = n + 1, None, 0
    for w in range(1, k + 1):
        size = comb(k, w) * (q - 1) ** (w - 1)
        if w == 2 and q > 2:  # each unit's rows packed as they are made
            table = np.stack([words.pack(_times(f, u, digits))
                              for u in range(1, q)], axis=1)
            table = table.reshape(-1, words.width)
        if w > 1:
            levels.append(list(level(w)) if size <= limit else None)
        for block, _ in level(w):
            weight = words.weights(block)
            if odd_like:  # a nonzero sum cell adds 1 to the weight
                weight = np.where(words.cell(block, n), weight - 1, n + 1)
            i = int(np.argmin(weight))
            if weight[i] < best:
                best, witness = int(weight[i]), block[i]
        work += size
        bound = -(-n * (w + 1) // k)
        if parity is not None and bound % 2 != parity:
            bound += 1
        if bound >= best:
            break
    if witness is None:
        raise DistanceError("the code has no odd-like word")
    word = tuple(words.cell(witness, np.arange(n)).tolist())
    return DistanceResult.exact(best, "brouwer_zimmermann", work), word


def macwilliams(A: dict[int, int], n: int, q: int) -> dict[int, int]:
    """Weight distribution of the Euclidean dual of a length-n code over GF(q)
    with weight distribution A (MacWilliams identity):
    B_j = (1/|C|) * sum_i A_i K_j(i), with the Krawtchouk polynomials
    K_j(x) = sum_s (-1)^s (q-1)^(j-s) C(x, s) C(n-x, j-s), evaluated by their
    three-term recurrence in exact integers."""
    size = sum(A.values())
    sums = [0] * (n + 1)
    for x, a in A.items():
        prev, cur = 0, 1  # K_{-1}(x), K_0(x)
        for j in range(n + 1):
            sums[j] += a * cur
            prev, cur = cur, (((n - j) * (q - 1) + j - q * x) * cur
                              - (q - 1) * (n - j + 1) * prev) // (j + 1)
    B = {}
    for j, total in enumerate(sums):
        count, rem = divmod(total, size)
        if rem or count < 0:
            raise DistanceError(
                f"MacWilliams transform gives A_{j} = {total}/{size}, not a "
                "nonnegative integer: the input is no code's distribution"
            )
        if count:
            B[j] = count
    return B


def _digits(x, p: int, m: int) -> np.ndarray:
    """GF(p) digits of element indices x: coefficient of x^i at [..., i]."""
    return np.asarray(x)[..., None] // p ** np.arange(m) % p


def _add_digits(x: np.ndarray, y: np.ndarray, p: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """x + y mod p for GF(p) digits in an unsigned dtype that holds 2p - 2:
    where the sum s is below p, s - p wraps above it, so the lesser of the
    two is the sum mod p, without the integer division of `% p`."""
    s = np.add(x, y, out=out)
    return np.minimum(s, s - p, out=s)


def _times(f, u: int, digits: np.ndarray) -> np.ndarray:
    """Digits of u*x for the elements x with digits on the last axis: the
    map is GF(p)-linear, with row i of its matrix the digits of u*x^i."""
    M = _digits([f.mul(u, f.p ** i) for i in range(f.m)], f.p, f.m)
    return digits @ M % f.p


def _unit_multiples(f, base: np.ndarray) -> np.ndarray:
    """Digits of u*h_j for every column h_j and unit u, shape (n, q-1, L),
    from the digits `base` of H, shape (n, rows, m)."""
    syn = np.empty((len(base), f.order - 1, base[0].size), base.dtype)
    for u in range(1, f.order):
        syn[:, u - 1] = _times(f, u, base).reshape(len(base), -1)
    return syn


def _proportional_columns(f, H: np.ndarray, base: np.ndarray) -> bool:
    """Whether two of the nonzero columns of H are multiples of each other,
    so that some pair sum h_j + u*h_k is zero: scaled to leading entry 1,
    they become one column."""
    n = H.shape[1]
    lead = H[(H != 0).argmax(axis=0), np.arange(n)]
    norm = base.copy()
    for v in set(lead.tolist()) - {1}:  # no products over GF(2)
        norm[lead == v] = _times(f, f.inv(v), base[lead == v])
    return len({column.tobytes() for column in norm}) < n


def _pair_table(syn: np.ndarray, p: int) -> tuple:
    """The pair sums h_j + u*h_k (j < k) as keys of their digit bytes, sorted
    by key and then by descending j, so each key's first pair has its
    largest j; and the j of every pair in that order.

    The sums are filled into one array, a chunk of pairs at a time, laid out
    by descending j (then k, then u), so one stable argsort of the keys
    gives the order and the keys are then sorted in place: the table is
    never held twice."""
    n, nu, L = syn.shape
    # row r of the lower triangle, column c < r, is the pair
    # j = n - 1 - r, k = j + 1 + c: descending j, and k ascending within j
    row, col = np.tril_indices(n, -1)
    J = n - 1 - row
    K = J + 1 + col
    del row, col
    sums = np.empty((len(J) * nu, L), syn.dtype)
    step = 1 << 10
    for lo in range(0, len(J), step):
        j, k = J[lo:lo + step], K[lo:lo + step]
        out = sums[lo * nu:(lo + len(j)) * nu].reshape(len(j), nu, L)
        _add_digits(syn[j, :1], syn[k], p, out=out)
    del K
    keys = sums.view(f"S{L * sums.itemsize}").ravel()
    order = keys.argsort(kind="stable")
    order //= nu
    J = J[order]
    del order
    keys.sort(kind="stable")
    return keys, J


def _has_codeword(neg: np.ndarray, table: tuple, w: int, lo: int,
                  acc: np.ndarray, p: int) -> bool:
    """Whether a codeword of weight w has its first w - 2 columns at lo or
    beyond, on top of the fixed columns whose negated scaled sums are the
    rows of `acc`, one per choice of their scalars: a pair sum
    h_j + u*h_k of the table, j beyond those columns, equals the negated
    sum.  `neg` holds the digits of -u*h_j.  The last two of the w - 2
    columns (one at w = 3) are looked up as one block."""
    n, nu, L = neg.shape
    if w > 4:  # one more fixed column, tried in order
        return any(_has_codeword(neg, table, w - 1, i + 1,
                                 _add_digits(acc[:, None], neg[i],
                                             p).reshape(-1, L), p)
                   for i in range(lo, n - w + 1))
    pos = (np.arange(lo, n - 2)[:, None] if w == 3
           else np.transpose(np.triu_indices(n - 2 - lo, 1)) + lo)
    block = acc[None]
    for c in range(pos.shape[1]):
        block = _add_digits(block[:, :, None], neg[pos[:, c], None],
                            p).reshape(len(pos), -1, L)
    keys, J = table
    x = block.reshape(-1, L).view(keys.dtype).ravel()
    at = np.minimum(np.searchsorted(keys, x), len(keys) - 1)
    last = np.repeat(pos[:, -1], block.shape[1])
    return bool(((keys[at] == x) & (J[at] > last)).any())


def support_search_min_weight(f, H: np.ndarray,
                              budget: int) -> DistanceResult:
    """Search weight-w vectors against the check matrix H over the field f
    (element indices, one column per coordinate) for w = 1, 2, ...
    A hit at level w is exact (all lower levels were exhausted); running
    out of budget certifies a lower bound.

    Level w holds comb(n, w)*(q-1)^(w-1) candidates: the supports, each
    with its scalars, the first scalar fixed to 1.  A level is searched
    only if its candidates fit the budget with those of the levels below,
    and `work` counts the candidates of the levels searched.  Syndromes
    are the GF(p) digits of the columns h_j of H.  Level 1 looks for a zero
    column, level 2 for two columns that are multiples of each other;
    level w >= 3 looks up the negated sums of its first w - 2 columns in a
    table of the pair sums h_j + u*h_k sorted by their digit bytes, built
    once level 3 fits."""
    n, q, p = H.shape[1], f.order, f.p
    digits = _digits(np.arange(q), p, f.m)
    base = digits.astype(np.min_scalar_type(2 * (p - 1)))[H.T]
    work = 0
    for w in range(1, n + 1):
        level = comb(n, w) * (q - 1) ** (w - 1)
        if work + level > budget:  # levels 1..w-1 exhausted with no hit
            if w == 1:
                return DistanceResult("interval", 1, n, "support_search", work)
            return DistanceResult("lower_bound", w, None, "support_search", work)
        work += level
        if w == 1:
            hit = not base.any(axis=(1, 2)).all()  # a zero column
        elif w == 2:
            hit = _proportional_columns(f, H, base)
        else:
            if w == 3:
                syn = _unit_multiples(f, base)
                table, neg = _pair_table(syn, p), (p - syn) % p
            hit = _has_codeword(neg, table, w, 0,
                                np.zeros((1, neg.shape[2]), neg.dtype), p)
        if hit:
            return DistanceResult.exact(w, "support_search", work)
    raise DistanceError("no nonzero codeword found (zero code?)")
