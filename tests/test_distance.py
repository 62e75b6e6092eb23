import itertools
import random
import tracemalloc
from functools import reduce
from math import comb, gcd

import numpy as np
import pytest

from oracles import (
    check_matrix,
    enumerate_codewords_naive,
    min_weight_diffset,
    naive_binary_distribution,
    naive_distribution,
    naive_min_odd_like,
    naive_min_weight,
    pair_table_lexsort,
    support_search_loop,
)
import qduadic.distance
from qduadic import cyclic
from qduadic.cyclic import DefiningSet, cyclotomic_cosets, make_cyclic_code
from qduadic.distance import (
    DEFAULT_BUDGET,
    DistanceError,
    DistanceResult,
    _full_scan_distribution,
    _extend,
    _levels,
    _histogram,
    _digits,
    _low_rows,
    _pair_table,
    _scan_range,
    _systematic_rows,
    _unit_multiples,
    _Words,
    brouwer_zimmermann,
    enumerable,
    macwilliams,
    support_search_min_weight,
    weight_distribution,
)
from qduadic.duadic import (
    build_quartet,
    default_splitting,
    iter_splittings,
    splitting_by,
)
from qduadic.galois import (
    FIELD_SIZE_CAP,
    field_from_order,
    make_field,
    ord_mod,
)
from qduadic.stabilizer import stabilizer_params, theory_distance_interval
from qduadic.verify import _distributions


def _code(n, q, leaders):
    f = field_from_order(q)
    cs = cyclotomic_cosets(n, q)
    members: set[int] = set()
    for j in leaders:
        members.update(cs.coset_of(j))
    return make_cyclic_code(n, f, DefiningSet(n, q, tuple(members)))


def _least_weight(C):
    """Least nonzero weight, read off the engine's weight distribution."""
    return min(w for w in weight_distribution(C) if w)


def _searched(qt, construction="css"):
    """d and the purity that stabilizer_params reads off its two checked
    searches, of D0's odd-like words and of C0."""
    p = stabilizer_params(qt.splitting, qt, construction)
    return p.d, p.purity


def _from_distributions(qt, workers=1):
    """d and the purity of a quartet by verify's route: C0's weight
    distribution, and its MacWilliams transform for D0."""
    C, _, d = _distributions(qt, workers=workers)
    return d.value, min(w for w in C if w)


def _odd_like_from_distributions(D):
    """The engine's odd-like route on a single code: D minus its even-like
    subcode (defining set T union {0}), compared weight by weight."""
    C = make_cyclic_code(D.n, D.field,
                         DefiningSet(D.n, D.q, D.T.members + (0,)))
    A_D, A_C = weight_distribution(D), weight_distribution(C)
    return min(w for w, c in A_D.items() if c > A_C.get(w, 0))


class TestResult:
    def test_exact_value(self):
        r = DistanceResult.exact(3, "full_enumeration", 7)
        assert r.value == 3 and r.kind == "exact"

    def test_non_exact_has_no_value(self):
        r = DistanceResult("lower_bound", 4, None, "support_search", 9)
        assert not r.is_exact
        with pytest.raises(DistanceError):
            r.value


class TestAgainstNaiveOracle:
    """The span kernel must agree with direct re-encoding."""

    CASES = [(7, 2, [1]), (7, 2, [1, 0]), (15, 2, [1, 3]), (17, 2, [1]),
             (7, 4, [1]), (5, 4, [1]), (9, 4, [1, 0]),
             (11, 3, [1]), (13, 3, [1, 0]), (5, 9, [1]),
             # GF(p) digits whose products pass uint8 (17), whose sums pass
             # uint8 (131), and whose products pass uint16 (257, where the
             # oracle's own index arithmetic once wrapped)
             (5, 17, [0]), (3, 131, [0]), (3, 257, [0])]

    @pytest.mark.parametrize("n,q,leaders", CASES)
    def test_min_weight(self, n, q, leaders):
        C = _code(n, q, leaders)
        assert _least_weight(C) == naive_min_weight(C)

    @pytest.mark.parametrize("n,q,leaders", CASES)
    def test_distribution(self, n, q, leaders):
        C = _code(n, q, leaders)
        assert weight_distribution(C) == naive_distribution(C)

    @pytest.mark.parametrize("n,q,leaders", [(7, 2, [1]), (15, 2, [1, 3]),
                                             (7, 4, [1]), (11, 3, [1])])
    def test_min_odd_like(self, n, q, leaders):
        C = _code(n, q, leaders)
        assert _odd_like_from_distributions(C) == naive_min_odd_like(C)


class TestKnownValues:
    def test_hamming(self):
        C = _code(7, 2, [1])
        assert _least_weight(C) == 3

    def test_golay(self):
        assert _least_weight(_code(23, 2, [1])) == 7

    def test_golay_distribution(self):
        hist = weight_distribution(_code(23, 2, [1]))
        assert hist[0] == 1 and hist[7] == 253 and hist[8] == 506
        assert sum(hist.values()) == 2**12

    def test_work_counts_all_messages(self):
        # every message of the shortened subcode {c_(n-1) = 0} the kernel
        # scans, and every word of the search's levels up to where it stops
        qt = build_quartet(default_splitting(17, 2), make_field(2))
        assert _distributions(qt)[2].work == 2**(qt.C0.k - 1) - 1
        d, least = _searched(qt)
        assert d.work == _search_work(qt.D0, True) == 9
        assert least.work == _search_work(qt.C0, False) == 8


def _coset_unions(n, q, max_words=2**14, sample=64):
    """Defining sets of the cyclic codes of length n over GF(q) with
    0 < k and q^k <= max_words: every union of cyclotomic cosets whose
    complement holds k <= log_q(max_words) residues, or a fixed sample of
    them when there are more."""
    cosets = cyclotomic_cosets(n, q).cosets
    k_max = 0
    while q ** (k_max + 1) <= max_words:
        k_max += 1

    def complements(start, room):
        yield ()
        for i in range(start, len(cosets)):
            if len(cosets[i]) <= room:
                for more in complements(i + 1, room - len(cosets[i])):
                    yield (i,) + more

    unions = [tuple(sorted(j for i, c in enumerate(cosets) if i not in rest
                           for j in c))
              for rest in complements(0, k_max) if rest]
    if len(unions) > sample:
        unions = random.Random(1000 * n + q).sample(unions, sample)
    return unions


class TestShortening:
    """The kernel scans {c : c_(n-1) = 0} and the histogram is rebuilt by
    cyclic symmetry; the re-encoder scans every message."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25])
    def test_matches_naive_oracle(self, q):
        f = field_from_order(q)
        checked = 0
        for n in range(3, 40, 2):
            if gcd(n, q) != 1 or q ** ord_mod(n, q) > FIELD_SIZE_CAP:
                continue  # no splitting field under the cap
            for T in _coset_unions(n, q):
                C = make_cyclic_code(n, f, DefiningSet(n, q, T))
                assert weight_distribution(C) == naive_distribution(C), (n, T)
                checked += 1
        assert checked >= 30

    def test_full_scan_agrees(self):
        for n, q, leaders in TestAgainstNaiveOracle.CASES:
            C = _code(n, q, leaders)
            assert weight_distribution(C) == _full_scan_distribution(C)

    @pytest.mark.parametrize("code,k", [
        # packed: 19 shortened rows, 8 high blocks of 2^16 words
        (lambda: build_quartet(default_splitting(41, 2), make_field(2)).C0,
         20),
        # digits: 12 shortened rows, 9 high blocks of 3^10 words
        (lambda: _code(35, 3, [1, 5, 7]), 13),
    ], ids=["packed", "digits"])
    def test_workers_on_several_blocks(self, code, k):
        C = code()
        assert C.k == k
        assert weight_distribution(C, workers=2) == weight_distribution(C)

    def test_repetition_code(self):
        # k = 1: the shortened subcode is {0}, and every nonzero word has
        # weight n
        C = _code(7, 3, [1, 3])
        assert C.k == 1 and weight_distribution(C) == {0: 1, 7: 2}

    def test_full_space(self):
        C = make_cyclic_code(5, make_field(2), DefiningSet(5, 2, ()))
        assert weight_distribution(C) == \
            {w: comb(5, w) for w in range(6)}

    @pytest.mark.parametrize("hist,message", [
        # 7 * 1 / (7 - 3) is not an integer
        ({0: 1, 3: 1}, "which no cyclic code"),
        # a word of the subcode has c_(n-1) = 0, so its weight is below n
        ({0: 1, 7: 1}, "which no cyclic code"),
        # A_3 = 7 * 12 / 4 = 21 leaves A_7 = 16 - 22 < 0
        ({0: 1, 3: 12}, "more than q\\^k"),
    ])
    def test_impossible_subcode_histogram_raises(self, monkeypatch, hist,
                                                 message):
        monkeypatch.setattr(qduadic.distance, "_histogram",
                            lambda C, rows, workers: dict(hist))
        with pytest.raises(DistanceError, match=message):
            weight_distribution(_code(7, 2, [1]))


class TestKernelSteps:
    """The span kernel counts two consecutive high steps with one bincount
    of joint keys and an odd last step alone.  With a smaller low block,
    small codes take many high steps, and the re-encoder checks them."""

    @staticmethod
    def _blocks(C, rows: int) -> int:
        p = C.field.p
        return p ** (rows - _low_rows(p, rows))

    @pytest.mark.parametrize("n,q,leaders,bits,blocks", [
        (15, 2, [1], 4, 128),     # packed, 1-bit cells
        (15, 4, [1, 2, 3, 6, 7], 5, 32),  # packed, 2-bit cells
        (13, 3, [1], 4, 6561),    # digits, GF(3)
        (11, 5, [1], 5, 625),     # digits, GF(5)
        (5, 9, [1], 4, 81),       # digits, GF(9): 2 digits a coordinate
        (7, 2, [1], 16, 1),       # one step, counted alone
    ])
    def test_even_and_odd_step_counts(self, monkeypatch, n, q, leaders,
                                      bits, blocks):
        monkeypatch.setattr(qduadic.distance, "_LOW_BLOCK_BITS", bits)
        C = _code(n, q, leaders)
        assert self._blocks(C, C.k * C.field.m) == blocks
        expected = naive_distribution(C)
        assert _full_scan_distribution(C) == expected
        assert weight_distribution(C) == expected

    @pytest.mark.parametrize("n,q,leaders", [(15, 2, [1]), (13, 3, [1])],
                             ids=["packed", "digits"])
    def test_ranges_of_odd_length_add_up(self, monkeypatch, n, q, leaders):
        monkeypatch.setattr(qduadic.distance, "_LOW_BLOCK_BITS", 4)
        calls = []

        def record(*args):
            calls.append(args)
            return _scan_range(*args)

        monkeypatch.setattr(qduadic.distance, "_scan_range", record)
        C = _code(n, q, leaders)
        whole = _full_scan_distribution(C)
        words, rows, _, end = calls[0]
        assert rows.dtype == (np.uint64 if q == 2 else np.uint8) and end > 8
        parts = sum(_scan_range(words, rows, s, t)
                    for s, t in [(0, 1), (1, 4), (4, 7), (7, end)])
        assert {w: c for w, c in enumerate(parts.tolist()) if c} == whole
        assert whole == naive_distribution(C)

    def test_workers_with_a_range_of_odd_length(self, monkeypatch):
        monkeypatch.setattr(qduadic.distance, "_LOW_BLOCK_BITS", 4)
        C = _code(13, 3, [1])  # 9 shortened rows: 3^7 = 2187 high blocks
        blocks = self._blocks(C, C.k - 1)
        chunk = (blocks + 1) // 2  # the second worker scans [chunk, blocks)
        assert blocks == 2187 and (blocks - chunk) % 2 == 1
        assert weight_distribution(C, workers=2) == naive_distribution(C)

    def test_keys_wider_than_16_bits(self):
        # n = 257: a joint key w_a*258 + w_b reaches 257*258 + 257, past
        # 2^16, so the keys are 32-bit
        cs = cyclotomic_cosets(257, 2)
        T = tuple(x for c in cs.nonzero_cosets[1:] for x in c)
        C = make_cyclic_code(257, make_field(2), DefiningSet(257, 2, T))
        assert C.k == 17
        expected = naive_binary_distribution(C)
        assert expected[257] == 1
        assert weight_distribution(C) == expected  # one high step
        assert _full_scan_distribution(C) == expected  # two high steps
        # the all-ones word in the low block, so its weight 257 is the
        # first of a pair of steps, the one a 16-bit key would wrap
        rows = np.concatenate([np.ones((1, 257, 1), np.int64),
                               _systematic_rows(C)[:-1, :257]])
        assert _histogram(C, rows, 1) == expected

    def test_two_lanes_of_2_bit_cells(self, monkeypatch):
        # n = 33 over GF(4): 33 cells of 2 bits hold two uint64 lanes, and
        # a low block of 4 bits leaves several high steps
        monkeypatch.setattr(qduadic.distance, "_LOW_BLOCK_BITS", 4)
        C = _code(33, 4, [2, 3, 5, 6, 7, 22])
        assert _Words(C.field, C.n).width == 2
        assert 4 ** C.k <= 2**14 and self._blocks(C, C.k * 2) > 2
        expected = naive_distribution(C)
        assert _full_scan_distribution(C) == expected
        assert weight_distribution(C) == expected


class TestWords:
    """The word layout of both kernels against the field's own arithmetic,
    at the lane boundaries: c = 64 // m cells fill a lane of a GF(2^m)
    word."""

    @pytest.mark.parametrize("q", [2, 4, 8, 256, 3, 9],
                             ids=lambda q: f"gf{q}")
    @pytest.mark.parametrize("lanes,extra", [(1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["c-1", "c", "c+1", "2c+1"])
    def test_pack_add_weigh_read(self, q, lanes, extra):
        f = field_from_order(q)
        c = 64 // f.m
        cells = lanes * c + extra
        words = _Words(f, cells)
        rng = random.Random(q * 1000 + cells)
        x, y = ([[rng.choice([0, 0, rng.randrange(q)]) for _ in range(cells)]
                 for _ in range(40)] for _ in range(2))
        X, Y = (words.pack(_digits(np.array(a), f.p, f.m)) for a in (x, y))
        assert X.shape == (40, words.width)
        if f.p == 2:
            assert words.width == -(-cells // c)
        everywhere = np.arange(cells)
        assert words.cell(X, everywhere).tolist() == x
        assert [int(words.cell(X, i)[7]) for i in range(cells)] == x[7]
        assert words.cell(words.add(X, Y), everywhere).tolist() == \
            [[f.add(a, b) for a, b in zip(r, s)] for r, s in zip(x, y)]
        assert words.weights(X).tolist() == \
            [sum(map(bool, r)) for r in x]


def _least_from_distributions(C, odd_like):
    """The least nonzero weight of C, or its least odd-like weight (None
    where it has no odd-like word), read off the histogram route: the
    odd-like words are those outside the even-like subcode, whose defining
    set adds 0."""
    A = weight_distribution(C)
    if not odd_like:
        return min(w for w in A if w)
    if 0 in C.T.members:
        return None
    E = make_cyclic_code(C.n, C.field,
                         DefiningSet(C.n, C.q, C.T.members + (0,)))
    A_E = weight_distribution(E)
    return min(w for w, c in A.items() if c > A_E.get(w, 0))


def _level_sums(k, q):
    """sum_(i <= w) comb(k, i)*(q-1)^(i-1) for w = 1, ..., k."""
    return list(itertools.accumulate(comb(k, i) * (q - 1) ** (i - 1)
                                     for i in range(1, k + 1)))


def _search_work(C, odd_like):
    """The search's `work` replayed from every codeword of C, re-encoded by
    the oracle: a codeword is met at level w when w of its last k
    coordinates (the systematic message) are nonzero, and the search stops
    after the first level w at which ceil(n*(w+1)/k), over GF(2) made odd
    for odd-like words and even in an even-like code, reaches the least
    weight met so far (or at w = k)."""
    n, k, q = C.n, C.k, C.q
    words = enumerate_codewords_naive(C).astype(np.int64)
    level = (words[:, n - k:] != 0).sum(axis=1)
    weight = (words != 0).sum(axis=1)
    if odd_like:  # coordinate sums, digit by digit
        p, m = C.field.p, C.field.m
        digits = words[..., None] // p ** np.arange(m) % p
        weight[~(digits.sum(axis=1) % p).any(axis=1)] = n + 1
    weight[level == 0] = n + 1  # the zero word
    for w in range(1, k + 1):
        if _level_bound(C, w, odd_like) >= weight[level <= w].min():
            break
    return _level_sums(k, q)[w - 1]


def _level_bound(C, w, odd_like):
    """ceil(n*(w+1)/k), over GF(2) made odd for odd-like words and even in
    an even-like code."""
    bound = -(-C.n * (w + 1) // C.k)
    if C.q == 2 and (odd_like or 0 in C.T.members):
        bound += (bound - odd_like) % 2
    return bound


def _choices(k, q, w):
    """The message vectors of level w in lexicographic order: every choice
    of w of k rows in increasing order, the first scaled by 1 and the others
    by every unit 1, ..., q - 1, sorted by (j_1, u_1, j_2, u_2, ...)."""
    choices = sorted(
        ((js, (1,) + us)
         for js in itertools.combinations(range(k), w)
         for us in itertools.product(range(1, q), repeat=w - 1)),
        key=lambda c: [x for pair in zip(*c) for x in pair])
    return [[dict(zip(js, us)).get(i, 0) for i in range(k)]
            for js, us in choices]


def _is_codeword(C, word) -> bool:
    """H*word = 0, with the field's own products."""
    f = C.field
    for h in check_matrix(C):
        acc = 0
        for x, y in zip(h, word):
            acc = f.add(acc, f.mul(x, y))
        if acc:
            return False
    return True


def _support_search(C, budget):
    """The library's support search of C, on the library's check matrix."""
    return support_search_min_weight(C.field, cyclic.check_matrix(C), budget)


def _loop_oracle(C, budget):
    """The loop oracle's search of C, on the oracle's check matrix."""
    H = np.array(check_matrix(C), np.int64).reshape(-1, C.n)
    return support_search_loop(C.field, H, budget)


def _check_search(C) -> int:
    """brouwer_zimmermann against the histogram route, over nonzero and
    over odd-like words: its value, its word (a codeword of that weight,
    odd-like where asked) and its `work`.  Returns the number of searches
    compared; a code with no odd-like word must be refused."""
    checked = 0
    for odd_like in (False, True):
        expected = _least_from_distributions(C, odd_like)
        if expected is None:
            with pytest.raises(DistanceError, match="no odd-like word"):
                brouwer_zimmermann(C, odd_like)
            continue
        r, word = brouwer_zimmermann(C, odd_like)
        assert (r.kind, r.value, r.method) == ("exact", expected,
                                               "brouwer_zimmermann")
        if C.q ** C.k <= 2**14:
            assert r.work == _search_work(C, odd_like)
        assert r.work in _level_sums(C.k, C.q)
        assert sum(map(bool, word)) == expected and _is_codeword(C, word)
        if odd_like:
            total = 0
            for x in word:
                total = C.field.add(total, x)
            assert total
        checked += 1
    return checked


class TestExtremes:
    """The Brouwer-Zimmermann search against the histogram route, which
    the re-encoder checks above."""

    def test_shortening_corpus(self):
        f = make_field(2)
        checked = 0
        for n in range(3, 40, 2):
            if 2 ** ord_mod(n, 2) > FIELD_SIZE_CAP:
                continue  # no splitting field under the cap
            for T in _coset_unions(n, 2):
                checked += _check_search(
                    make_cyclic_code(n, f, DefiningSet(n, 2, T)))
        assert checked >= 60

    @pytest.mark.parametrize("q,n,lanes", [
        (2, 63, 1), (2, 65, 2), (2, 73, 2), (2, 127, 2),  # 64 cells a lane
        (4, 31, 1), (4, 33, 2),  # 32 cells a lane
        (8, 21, 2),  # 21 cells a lane: the sum cell opens the second
    ], ids=lambda x: str(x))
    def test_lane_boundaries(self, q, n, lanes):
        # the n + 1 cells of an odd-like search's word, its sum cell last,
        # fill one lane or open the next one
        f = field_from_order(q)
        assert _Words(f, n + 1).width == lanes
        checked = 0
        for T in _coset_unions(n, q, max_words=2**12, sample=4):
            checked += _check_search(make_cyclic_code(n, f,
                                                      DefiningSet(n, q, T)))
        assert checked

    def test_unit_table_is_held_packed(self, monkeypatch):
        # 255/256's C0 (k = 128): the level-2 table of u*row_j for the 255
        # units takes 8.4 MB in 32 lanes a word; as int64 digits, shape
        # (k, q-1, n, m), it would take 533 MB
        C = build_quartet(default_splitting(255, 256),
                          field_from_order(256)).C0
        table = C.k * 255 * 32 * 8

        class Built(Exception):
            pass

        def stop(blocks, table, *args):
            raise Built(table.nbytes)

        monkeypatch.setattr(qduadic.distance, "_extend", stop)
        tracemalloc.start()
        try:
            with pytest.raises(Built) as built:
                brouwer_zimmermann(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built.value.args == (table,)
        assert peak < 3 * table

    @pytest.mark.parametrize("n", [7, 17, 23, 31, 41, 47, 49])
    def test_default_quartets(self, n):
        qt = build_quartet(default_splitting(n, 2), make_field(2))
        d, least = _searched(qt)
        assert d.method == least.method == "brouwer_zimmermann"
        assert (d.value, least.value) == _from_distributions(qt)

    @pytest.mark.parametrize("n", [31, 49])
    def test_every_splitting(self, n):
        ids = set()
        for s in iter_splittings(n, 2):
            qt = build_quartet(s, make_field(2))
            d, least = _searched(qt)
            assert (d.value, least.value) == _from_distributions(qt)
            ids.add(s.splitting_id)
        assert len(ids) > 2  # more than the default's orbit

    @pytest.mark.parametrize("bits", [0, 4])
    @pytest.mark.parametrize("n,q,leaders", [(15, 2, [1]), (11, 3, [1]),
                                             (17, 2, [1]), (9, 4, [1])],
                             ids=["packed", "digits", "packed-17", "gf4"])
    def test_ranges(self, monkeypatch, n, q, leaders, bits):
        # blocks of one word, or of at most 16, or of k*(q-1) where that is
        # more: the same values, words and work as whole levels
        C = _code(n, q, leaders)
        whole = [brouwer_zimmermann(C, odd) for odd in (False, True)]
        monkeypatch.setattr(qduadic.distance, "_LOW_BLOCK_BITS", bits)
        assert [brouwer_zimmermann(C, odd) for odd in (False, True)] == whole
        assert _check_search(C) == 2


class TestLevels:
    """Levels built by `_extend` against itertools: level w is every choice
    of w rows in increasing order, the first scaled by 1 and the others by
    every unit, in lexicographic order, in blocks of at most `limit` words
    (or the extensions of one word)."""

    @pytest.mark.parametrize("limit", [1, 5, 64, 1 << 16])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_lexicographic_blocks(self, p, limit):
        k, units = 6, p - 1
        # row j is the unit vector e_j; the table holds u*e_j by j, then u
        rows = np.eye(k, dtype=np.int64)
        table = np.array([u * r for r in rows for u in range(1, p)])

        def add(x, y):
            return (x + y) % p

        blocks = [(rows, np.arange(k))]
        for w in range(1, k + 1):
            if w > 1:
                blocks = list(_extend(blocks, table, units, limit, add))
            words = np.concatenate([b for b, _ in blocks])
            last = np.concatenate([j for _, j in blocks])
            expected = _choices(k, p, w)
            assert words.tolist() == expected
            assert last.tolist() == [max(np.flatnonzero(x)) for x in expected]
            assert len(expected) == comb(k, w) * units ** (w - 1)
            assert all(len(b) <= max(limit, k * units) for b, _ in blocks)

    @pytest.mark.parametrize("bits", [0, 4, 16])
    @pytest.mark.parametrize("n,q,leaders,odd_like", [
        (15, 2, [0, 1], False), (17, 2, [1], True), (11, 3, [1], False),
        (9, 4, [1], True)], ids=["even-like", "odd-like", "gf3", "gf4"])
    def test_stream(self, monkeypatch, n, q, leaders, odd_like, bits):
        # every level of the search's stream, held (it fits one block) or
        # extended afresh from the last level held: its bound, its running
        # work, and its words in the order above, each with its weight
        monkeypatch.setattr(qduadic.distance, "_LOW_BLOCK_BITS", bits)
        C = _code(n, q, leaders)
        k, f = C.k, C.field
        words = _Words(f, n + odd_like)
        w = 0
        for w, (level, bound, work, blocks) in enumerate(
                _levels(C, odd_like), 1):
            assert (level, work) == (w, _level_sums(k, q)[w - 1])
            assert bound == _level_bound(C, w, odd_like)
            blocks = list(blocks)
            assert all(len(b) <= max(1 << bits, k * (q - 1))
                       for _, b in blocks)
            cells = words.cell(np.concatenate([b for _, b in blocks]),
                               np.arange(n)).tolist()
            # the message is the last k coordinates, row i being 1 at n-k+i
            assert [c[n - k:] for c in cells] == _choices(k, q, w)
            expected = [n + 1 if odd_like and not reduce(f.add, c, 0)
                        else sum(map(bool, c)) for c in cells]
            assert np.concatenate([x for x, _ in blocks]).tolist() == expected
        assert w == k


class TestSearch:
    """Every in-budget default splitting: builds read d and the purity off
    the search, checked against the distribution route."""

    # the lengths with a splitting, and C0 within the default budget
    CASES = ([("css", n, 2) for n in (7, 17, 23, 31, 41, 47, 49)]
             + [("css", n, 4) for n in (5, 7, 13, 15, 17, 19, 21, 23, 25, 27)]
             + [("css", n, 3) for n in (11, 13, 23)]
             + [("css", n, 5) for n in (11, 19)]
             + [("css", n, 9) for n in (5, 11, 13)]
             + [("hermitian", n, 2) for n in (5, 7, 13, 17, 23, 25)]
             + [("hermitian", n, 3) for n in (5, 11, 13)])

    @pytest.mark.parametrize("construction,n,q", CASES,
                             ids=[f"{c}-{n}-{q}" for c, n, q in CASES])
    def test_matches_distribution_route(self, construction, n, q):
        code_q = q * q if construction == "hermitian" else q
        s = (splitting_by(n, code_q, (-q) % n) if construction == "hermitian"
             else default_splitting(n, code_q))
        qt = build_quartet(s, field_from_order(code_q))
        d, least = _searched(qt, construction)
        assert (d.value, least.value) == _from_distributions(qt)
        assert d.work in _level_sums(qt.D0.k, code_q)
        assert least.work in _level_sums(qt.C0.k, code_q)

    @pytest.mark.parametrize("n,values", [(5, (3, 4)), (23, (7, 8))])
    def test_gf4_cells(self, n, values):
        # every bit of a 2-bit cell counts: masking the cells before
        # folding their bits once gave purity 2 at 5/2
        s = splitting_by(n, 4, (-2) % n)
        p = stabilizer_params(s, build_quartet(s, make_field(2, 2)),
                              "hermitian")
        assert (p.d.value, p.purity.value) == values


class TestParallel:
    def test_parallel_odd_like(self):
        qt = build_quartet(default_splitting(31, 2), make_field(2))
        assert (_distributions(qt, workers=4)
                == _distributions(qt, workers=1))

    def test_parallel_distribution(self):
        C = _code(31, 2, [1, 3, 5])
        assert weight_distribution(C, workers=4) == weight_distribution(C)


class TestSupportSearch:
    def test_exact_hit_matches_enumeration(self):
        for n, q, leaders in [(7, 2, [1]), (15, 2, [1, 3]), (7, 4, [1])]:
            C = _code(n, q, leaders)
            r = _support_search(C, budget=10**7)
            assert r.kind == "exact" and r.value == _least_weight(C)

    def test_budget_exhaustion_is_lower_bound(self):
        C = _code(23, 2, [1])
        r = _support_search(C, budget=2000)
        assert r.kind == "lower_bound" and 1 < r.lo <= 7

    def test_selected_when_budget_small(self):
        s = default_splitting(23, 2)
        qt = build_quartet(s, make_field(2))
        r = stabilizer_params(s, qt, "css", budget=100).purity
        assert r.method == "support_search"

    # default quartets; C1 and D1 carry other scalars than C0 and D0 for q > 2
    ORACLE_CASES = [(7, 2), (17, 2), (23, 2), (7, 4), (5, 4), (9, 4),
                    (11, 3), (13, 3), (13, 4), (11, 9)]
    ORACLE_CAP = 30_000  # the loop oracle runs at about 200k candidates/s

    @staticmethod
    def _level_budgets(n, q, cap):
        """Every budget at which a further level fits, and its neighbours."""
        budgets, total = set(), 0
        for w in range(1, n + 1):
            total += comb(n, w) * (q - 1) ** (w - 1)
            if total > cap:
                break
            budgets |= {total - 1, total, total + 1}
        return sorted(budgets)

    @pytest.mark.parametrize("n,q", ORACLE_CASES)
    def test_matches_loop_oracle(self, n, q):
        qt = build_quartet(default_splitting(n, q), field_from_order(q))
        kinds = set()
        for C in (qt.C0, qt.C1, qt.D0, qt.D1):
            for budget in self._level_budgets(n, q, self.ORACLE_CAP):
                r = _support_search(C, budget)
                assert r.to_dict() == _loop_oracle(C, budget).to_dict()
                kinds.add(r.kind)
        assert {"interval", "lower_bound"} <= kinds
        if (n, q) not in {(23, 2), (13, 4), (11, 9)}:  # hits beyond the cap
            assert "exact" in kinds

    @pytest.mark.parametrize("n,q", [(7, 2), (5, 4), (7, 3), (7, 5)])
    def test_full_space_hits_at_weight_one(self, n, q):
        C = _code(n, q, [])  # k = n: H has no rows
        assert cyclic.check_matrix(C).shape == (0, n)
        r = _support_search(C, budget=10**6)
        assert r == _loop_oracle(C, 10**6)
        assert r.to_dict() == {"kind": "exact", "lo": 1, "hi": 1,
                               "method": "support_search", "work": n}

    @pytest.mark.parametrize("n,q", [(7, 2), (5, 4), (7, 3), (7, 5), (5, 9)])
    def test_even_weight_code_hits_at_level_two(self, n, q):
        # [n, n-1]: x_0 - x_1 is a codeword, its scalar -1 the element
        # p - 1; work counts the whole of levels 1 and 2
        C = _code(n, q, [0])
        r = _support_search(C, budget=10**6)
        assert r == _loop_oracle(C, 10**6)
        assert r.kind == "exact" and r.value == 2
        assert r.work == n + comb(n, 2) * (q - 1)

    def test_digit_sums_past_255(self):
        # 130*x0 + 126*x1 + x2 = 0 over GF(131): (1, 26, 0) is a codeword,
        # while 130 + 126 = 256 wraps to 0 in a byte
        f, H = make_field(131), np.array([[130, 126, 1]])
        r = support_search_min_weight(f, H, budget=1000)
        assert r == support_search_loop(f, H, 1000)
        assert r.kind == "exact" and r.value == 2 and r.work == 3 + 3 * 130


    @staticmethod
    def _planted(q, rows, seed):
        """A random rows x 9 check matrix over GF(q) whose only columns that
        are multiples of each other are the pair {1, 7} and the group of
        three {2, 4, 5}."""
        f = field_from_order(q)
        rng = random.Random(seed)

        def normal(col):
            inv = f.inv(next(x for x in col if x))
            return tuple(f.mul(inv, x) for x in col)
        while True:
            cols = [[rng.randrange(q) for _ in range(rows)] for _ in range(9)]
            for j, k in [(1, 7), (2, 4), (2, 5)]:
                u = rng.randrange(1, q)
                cols[k] = [f.mul(u, x) for x in cols[j]]
            if all(map(any, cols)) and len({normal(c) for c in cols}) == 6:
                return f, np.array(cols).T

    @pytest.mark.parametrize("q,rows", [(4, 3), (5, 3), (9, 2), (256, 2)])
    def test_level_two_groups_scaled_columns(self, q, rows):
        for seed in range(3):
            f, H = self._planted(q, rows, seed)
            for budget in self._level_budgets(9, q, self.ORACLE_CAP):
                r = support_search_min_weight(f, H, budget)
                assert r == support_search_loop(f, H, budget)
            # levels 1 and 2 fit: the whole of both is counted
            r = support_search_min_weight(f, H, 9 + 36 * (q - 1))
            assert r.kind == "exact" and r.value == 2
            assert r.work == 9 + 36 * (q - 1)

    def test_level_two_of_255_256_needs_no_unit_multiples(self):
        # levels 1 and 2 of 255/256 fit 2^26, level 3 does not; all 255
        # unit multiples of H's 1024-digit columns would take 66 MB
        qt = build_quartet(default_splitting(255, 256), field_from_order(256))
        C = qt.C0
        r, peak = self._peak_bytes(C.field, cyclic.check_matrix(C), 2**26)
        assert r.to_dict() == {"kind": "lower_bound", "lo": 3, "hi": None,
                               "method": "support_search", "work": 8_258_430}
        assert peak < C.n * 255 * (C.n - C.k) * 8 // 8

    @staticmethod
    def _peak_bytes(f, H, budget):
        tracemalloc.start()
        try:
            r = support_search_min_weight(f, H, budget)
            return r, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_level_one_scales_no_column(self):
        # 255/256: 255 units and 1024-digit columns; level 1 needs only H
        qt = build_quartet(default_splitting(255, 256), field_from_order(256))
        C = qt.C0
        r, peak = self._peak_bytes(C.field, cyclic.check_matrix(C), 2**10)
        assert r == _loop_oracle(C, 2**10)
        assert r.to_dict() == {"kind": "lower_bound", "lo": 2, "hi": None,
                               "method": "support_search", "work": 255}
        # the digits of H take n * rows * 8 int64s; all 255 unit multiples
        # of its columns would take about 30 times that
        assert peak < 2 * C.n * (C.n - C.k) * 8 * 8

    def test_level_two_memory_stays_per_column(self):
        # GF(256), 30 random check rows: each column has L = 240 digits;
        # all comb(60, 2)*255 pair sums at once would take 108 MB
        rng = random.Random(1)
        n, rows = 60, 30
        H = np.array([[rng.randrange(256) for _ in range(n)]
                      for _ in range(rows)])
        budget = n + comb(n, 2) * 255  # levels 1 and 2, not level 3
        r, peak = self._peak_bytes(make_field(2, 8), H, budget)
        assert r.to_dict() == {"kind": "lower_bound", "lo": 3, "hi": None,
                               "method": "support_search", "work": budget}
        assert peak < 2 * n * 255 * rows * 8  # twice the unit multiples,
        # one byte a digit

    @pytest.mark.parametrize("n,q", [(257, 2), (45, 4), (30, 131)])
    def test_pair_table_matches_lexsort(self, n, q):
        # the keys are sorted in place after one stable argsort: the same
        # table as one lexsort of all the sums, without holding it twice
        # (2.4 times its keys' bytes at 257/2 with the lexsort); GF(131)
        # digits need uint16, and no small code over it has a quartet, so
        # its check matrix is random
        f = field_from_order(q)
        if q == 131:
            rng = random.Random(2)
            H = np.array([[rng.randrange(q) for _ in range(n)]
                          for _ in range(3)])
        else:
            C = build_quartet(default_splitting(n, q), f).C0
            H = cyclic.check_matrix(C)
        digits = _digits(np.arange(q), f.p, f.m)
        base = digits.astype(np.min_scalar_type(2 * (f.p - 1)))[H.T]
        syn = _unit_multiples(f, base)
        tracemalloc.start()
        try:
            table = _pair_table(syn, f.p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = pair_table_lexsort(syn, f.p)
        assert [(a.dtype, a.tolist()) for a in table] == \
            [(a.dtype, a.tolist()) for a in expected]
        assert len(table[0]) == comb(n, 2) * (q - 1)
        if n == 257:
            assert peak <= 1.6 * table[0].nbytes


class TestDiffset:
    """The set-difference oracle itself, against known values and the
    engine's odd-like route."""

    def test_even_like_fast_path(self):
        qt = build_quartet(splitting_by(7, 2, 6), make_field(2))
        assert min_weight_diffset(qt.D0, qt.C0) == 3 == \
            _distributions(qt)[2].value

    def test_general_path(self):
        # D = full space, C = Hamming: min weight outside Hamming is 1
        D = _code(7, 2, [])
        C = _code(7, 2, [1])
        assert min_weight_diffset(D, C) == 1

    def test_rejects_non_nested(self):
        with pytest.raises(DistanceError):
            min_weight_diffset(_code(7, 2, [1]), _code(7, 2, []))

    def test_rejects_equal(self):
        C = _code(7, 2, [1])
        with pytest.raises(DistanceError):
            min_weight_diffset(C, C)


class TestEdgeCases:
    def test_zero_dim_rejected(self):
        f = make_field(2)
        C = make_cyclic_code(7, f, DefiningSet(7, 2, tuple(range(7))))
        with pytest.raises(DistanceError, match="zero code"):
            brouwer_zimmermann(C)
        with pytest.raises(DistanceError, match="no nonzero codeword"):
            _support_search(C, budget=10**6)

    def test_full_space(self):
        C = _code(7, 2, [])
        assert _least_weight(C) == 1
        assert _support_search(C, budget=10).value == 1

    def test_bad_budget(self):
        with pytest.raises(DistanceError):
            weight_distribution(_code(7, 2, [1]), budget=0)

    def test_odd_like_interval_when_infeasible(self):
        # beyond the budget no search runs: d is the square-root interval
        # (mu_(-1) gives the splitting of 23) and the purity a support
        # search's bound
        qt = build_quartet(default_splitting(23, 2), make_field(2))
        p = stabilizer_params(qt.splitting, qt, "css", budget=10)
        assert p.d == theory_distance_interval(23, True)
        assert p.d.kind == "interval" and (p.d.lo, p.d.hi) == (6, 23)
        assert p.purity.method == "support_search"

    def test_odd_p_field_extension(self):
        # GF(9) exercises the digit kernel with a nontrivial extension
        C = _code(5, 9, [1])
        assert _least_weight(C) == naive_min_weight(C)

    def test_char2_two_lanes_of_4_bit_cells(self):
        # 17 coordinates of 4 bits: one full uint64 lane of 16 cells and
        # one cell of a second lane
        C = _code(17, 16, [0, 2, 3, 4, 5, 6, 7, 8])  # k = 2
        assert weight_distribution(C) == naive_distribution(C)
        assert enumerable(C, DEFAULT_BUDGET)


class TestMacWilliams:
    CASES = TestAgainstNaiveOracle.CASES

    @pytest.mark.parametrize("n,q,leaders", CASES)
    def test_matches_dual_enumeration(self, n, q, leaders):
        from qduadic.cyclic import euclidean_dual
        C = _code(n, q, leaders)
        assert macwilliams(weight_distribution(C), n, q) == \
            naive_distribution(euclidean_dual(C))

    def test_hamming_to_simplex(self):
        assert macwilliams({0: 1, 3: 7, 4: 7, 7: 1}, 7, 2) == {0: 1, 4: 7}

    def test_involution(self):
        A = weight_distribution(_code(11, 3, [1]))
        assert macwilliams(macwilliams(A, 11, 3), 11, 3) == A

    def test_rejects_non_code_distribution(self):
        with pytest.raises(DistanceError):
            macwilliams({0: 1, 1: 2}, 3, 2)  # 3 words: not a linear code
        with pytest.raises(DistanceError):
            macwilliams({0: 1, 2: 3}, 2, 2)  # gives A_1 = -1
