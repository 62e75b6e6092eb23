"""Slow, direct routes that the tests check the distance engine against.

They re-encode every message with the field's own addition and
multiplication tables and compare codewords as sets, sharing no code with the
packed Gray kernel, the odometer or the MacWilliams transform.
"""

import itertools

import numpy as np

from qduadic.distance import DistanceError


def enumerate_codewords_naive(C) -> np.ndarray:
    """Every codeword of C, one row per message, by direct re-encoding."""
    f = C.field
    q = f.order
    add = np.array([f.add(a, b) for a in range(q) for b in range(q)],
                   dtype=np.uint16)  # add[a*q + b] = a + b
    msgs = np.array(list(itertools.product(range(q), repeat=C.k)),
                    dtype=np.intp).reshape(-1, C.k)
    words = np.zeros((len(msgs), C.n), dtype=np.uint16)
    for i, row in enumerate(C.G):
        multiples = np.array([[f.mul(m, x) for x in row] for m in range(q)],
                             dtype=np.uint16)
        words = add[words * q + multiples[msgs[:, i]]]
    return words


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
    if not D.genpoly.divides(C.genpoly):
        raise DistanceError("C is not contained in D (genpoly divisibility fails)")
    if C.T.as_set() == D.T.as_set():
        raise DistanceError("D equals C; the difference set is empty")
    inner = {w.tobytes() for w in enumerate_codewords_naive(C)}
    outer = enumerate_codewords_naive(D)
    keep = np.array([w.tobytes() not in inner for w in outer])
    return int(_weights(outer[keep]).min())
