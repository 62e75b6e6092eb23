"""Quantum stabilizer code parameters from duadic quartets.

CSS path: C_i subset D_i gives an [[n, 1, d]]_q code whose distance is the
minimum odd-like weight of the odd-like duadic codes; the stabilizer's
classical codes are the even-like codes (up to equivalence), so "pure to d'"
is reported as their exact minimum weight and the code is degenerate iff that
value is strictly below d.

Hermitian path: over GF(q^2), C_0^{perp_h} = D_0 exactly when mu_{-q} gives
the splitting; the construction is refused otherwise.

`select_splitting` is the one place that picks the splitting of a request,
and refuses (ConstructionError) when there is nothing to build.
`stabilizer_params` is the one place that decides how d and the purity are
measured, for both paths.  It checks once that mu_a maps C0 onto C1 (and so
D0 onto D1), so C0 and D0 alone are searched, and their values are C1's and
D1's too.  When q^k of C0 fits the budget, the purity is read off a
Brouwer-Zimmermann search of C0 (its least nonzero weight) and d off one of
D0 over its odd-like words, each stopping once the bound ceil(n*(w+1)/k)
after level w reaches the least weight found; `work` counts the words
enumerated, and each least word is re-checked against the check matrix.
Beyond the budget d is the square-root interval and a support search of C0
bounds the purity; without a quartet the purity is [1, n].  The
square-root bound is judged on d once; its checks are the report's
`bound_checks`, and a violated one raises.  Only parameters and
classical-code witnesses are materialized, never the quantum state space.
`verify` holds the independent route through the weight distributions and
compares it with these parameters.
"""

from __future__ import annotations

from functools import reduce
from math import isqrt
from typing import NamedTuple

import numpy as np

from .cyclic import CyclicCode, _check_dual, check_matrix, mu_apply
from .distance import (
    DEFAULT_BUDGET,
    DistanceError,
    DistanceResult,
    brouwer_zimmermann,
    enumerable,
    support_search_min_weight,
)
from .duadic import (
    DegeneracyCertificate,
    DuadicQuartet,
    Splitting,
    SplittingError,
    default_splitting,
    duadic_exists,
    splitting_by,
    splitting_with_id,
)


class ConstructionError(ValueError):
    """A stabilizer construction is refused: there is nothing to build."""


def select_splitting(n: int, q: int, construction: str,
                     splitting_id: str | None = None) -> Splitting:
    """The splitting of the "css" or "hermitian" code of length n over
    GF(q): the one with `splitting_id` (over GF(q^2) for Hermitian), else
    mu_(-q)'s over GF(q^2) for Hermitian, else `default_splitting`'s.
    Raises ConstructionError when there is nothing to build: no duadic codes
    over GF(q) (CSS), or no splitting given by mu_(-q) (Hermitian); and
    ValueError for an id that no splitting has."""
    hermitian = construction == "hermitian"
    code_q = q * q if hermitian else q
    if not hermitian and not duadic_exists(n, q):
        raise ConstructionError(f"no duadic codes of length {n} over GF({q})")
    if splitting_id is None:  # duadic codes exist, so a CSS default does
        s = (splitting_by(n, code_q, (-q) % n) if hermitian
             else default_splitting(n, q))
        refusal = f"mu_(-q) gives no splitting of {n} over GF({code_q})"
    else:
        s = splitting_with_id(n, code_q, splitting_id)
        if s is None:
            raise ValueError(f"no splitting with id {splitting_id} found")
        refusal = f"splitting {splitting_id} is not given by mu_(-q)"
    if hermitian and not (s is not None and s.is_given_by((-q) % n)):
        raise ConstructionError(f"{refusal}; Hermitian construction refused")
    return s


def check_square_root_bound(s: Splitting, d: DistanceResult) -> dict:
    """The report's `bound_checks` on the odd-like distance d of the quartet
    of s: d^2 >= n, whether mu_{-1} gives the splitting, d^2 - d + 1 >= n
    (mu_{-1} case only), and the equal odd-like distances of D0 and
    D1 = mu_a(D0), which `stabilizer_params` checks on the defining sets.  A
    violated bound is False; an interval d makes every check but mu_{-1}
    vacuous (None)."""
    n, mu1, exact = s.n, s.is_given_by(s.n - 1), d.is_exact
    v = d.value if exact else 0
    return {
        "d_squared_ge_n": v * v >= n if exact else None,
        "mu_minus1_splitting": mu1,
        "d_sq_minus_d_plus_1_ge_n": v * v - v + 1 >= n if exact and mu1
        else None,
        "odd_like_weights_equal": exact or None,
    }


class StabilizerParams(NamedTuple):
    """Parameters [[n, k, d]]_q of a duadic quantum code, with purity and
    degeneracy verdicts."""

    n: int
    k: int
    q: int  # base field order of the quantum code
    construction: str  # "CSS" | "Hermitian"
    d: DistanceResult
    purity: DistanceResult
    degenerate: str  # "yes" | "no" | "undecided"
    bound_checks: dict  # from check_square_root_bound
    certificate: DegeneracyCertificate | None = None
    purity_agreement: str | None = None  # agrees | discrepancy | not_applicable

    def to_dict(self) -> dict:
        return {
            "n": self.n, "k": self.k, "q": self.q,
            "construction": self.construction,
            "d": self.d.to_dict(),
            "purity": self.purity.to_dict(),
            "degenerate": self.degenerate,
            "bound_checks": dict(self.bound_checks),
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "purity_agreement": self.purity_agreement,
        }


def _degeneracy_tristate(purity: DistanceResult, d: DistanceResult) -> str:
    if purity.is_exact and d.is_exact:
        return "yes" if purity.value < d.value else "no"
    # interval reasoning can still settle the comparison
    if purity.hi is not None and d.lo is not None and purity.hi < d.lo:
        return "yes"
    if d.hi is not None and purity.lo is not None and purity.lo >= d.hi:
        return "no"
    return "undecided"


def theory_distance_interval(n: int, mu_minus1: bool) -> DistanceResult:
    """Square-root-bound interval for the odd-like distance when enumeration
    is out of reach: d^2 >= n, sharpened to d^2 - d + 1 >= n under mu_{-1}."""
    lo = 1
    while (lo * lo - lo + 1 < n) if mu_minus1 else (lo * lo < n):
        lo += 1
    return DistanceResult("interval", lo, n, "defining_set_theory", 0)


def _checked(C: CyclicCode, result: DistanceResult, word: tuple, name: str,
             odd_like: bool) -> DistanceResult:
    """`result` of a search of C, once its value and its word pass checks
    that share nothing with the search: the value is at most the Singleton
    bound n - k + 1 (some row of a systematic generator matrix is odd-like
    if any word is), over GF(2) odd for an odd-like word and even in the
    even-like C0, and the word is a nonzero codeword of that weight, with a
    nonzero coordinate sum if odd-like.  Membership is H*word = 0, summed
    over the word's support alone: one integer matrix product mod p over a
    prime field, the field's products otherwise."""
    f, n, v = C.field, C.n, result.value
    kind = "odd-like weight" if odd_like else "nonzero weight"
    if v > n - C.k + 1:
        raise DistanceError(
            f"{name} of length {n} and dimension {C.k} has least {kind} {v}, "
            "above the Singleton bound (internal bug)")
    if C.q == 2 and v % 2 != odd_like:
        raise DistanceError(
            f"{name} over GF(2) has least {kind} {v}, of the wrong parity "
            "(internal bug)")
    support = [i for i, x in enumerate(word) if x] if len(word) == n else []
    scalars = [word[i] for i in support]
    columns = check_matrix(C)[:, support].astype(np.int64)
    if f.m == 1:  # integers mod p
        syndrome = (columns @ np.array(scalars, np.int64) % f.p).tolist()
        total = sum(scalars) % f.p
    else:
        syndrome = [reduce(f.add, map(f.mul, h, scalars), 0)
                    for h in columns.tolist()]
        total = reduce(f.add, scalars, 0)
    if (len(word) != n or not 0 < len(support) == v or any(syndrome)
            or odd_like and not total):
        raise DistanceError(
            f"the word found for {name} is not a codeword of weight {v}"
            f"{' with a nonzero coordinate sum' if odd_like else ''} "
            "(internal bug)")
    return result


def stabilizer_params(s: Splitting, quartet: DuadicQuartet | None,
                      construction: str,
                      budget: int = DEFAULT_BUDGET) -> StabilizerParams:
    """[[n, 1, d]]_q parameters of the "css" or "hermitian" code of a
    splitting.  The Hermitian route needs mu_{-q} to give the splitting, so
    that C_0^{perp_h} = D_0 over GF(q^2).  This is the one place that
    decides how d and the purity are measured:

    * when q^k of C0 fits the budget, both are exact, from two
      Brouwer-Zimmermann searches, each checked by `_checked`: of D0 over
      its odd-like words (D0 \\ C0) for d, and of C0 for the purity;
    * beyond the budget, d is the square-root interval and a support search
      of C0 bounds the purity;
    * without a quartet (its splitting field is beyond the cap), d is the
      square-root interval, the purity is [1, n] and the verdict undecided.

    With a quartet, mu_a must map C0 onto C1: the multiplier of the
    splitting swaps S0 and S1, so it permutes the coordinates of C0 onto C1
    and of D0 onto D1, and C1 and D1 have C0's and D0's weights.  The
    square-root bound is checked on d in every case, and a violation, which
    only a bug can produce, raises."""
    n, q0 = s.n, isqrt(s.q)
    hermitian = construction == "hermitian"
    if hermitian and not (q0 * q0 == s.q and s.is_given_by((-q0) % n)):
        raise ConstructionError(
            f"mu_(-q) does not give this splitting of n={n}; the Hermitian "
            "construction does not apply")
    d = theory_distance_interval(n, s.is_given_by(n - 1))
    purity = DistanceResult("interval", 1, n, "defining_set_theory", 0)
    if quartet is not None:
        C0, C1, D0 = quartet.C0, quartet.C1, quartet.D0
        # build_quartet has checked the CSS containment C_i subset D_i
        if (C1.field != C0.field
                or mu_apply(C0.T.members, quartet.splitting.a, n)
                != C1.T.as_set()):
            raise DistanceError(
                "C1 is not the mu_a image of C0, so it cannot share C0's "
                "weight distribution (internal bug)")
        if hermitian:  # D0 has the dimension of C_0^{perp_h} and is in it
            _check_dual(C0, D0, q0, "hermitian dual")
        if enumerable(C0, budget):
            d = _checked(D0, *brouwer_zimmermann(D0, odd_like=True), "D0",
                         True)
            purity = _checked(C0, *brouwer_zimmermann(C0), "C0", False)
        else:
            purity = support_search_min_weight(C0.field, check_matrix(C0),
                                               budget)
    checks = check_square_root_bound(s, d)
    if False in (checks["d_squared_ge_n"], checks["d_sq_minus_d_plus_1_ge_n"]):
        raise SplittingError(
            f"square-root bound violated at n={n}, d_o={d.value}: "
            "this is a theorem, so the implementation is buggy")
    return StabilizerParams(
        n=n, k=1, q=q0 if hermitian else s.q,
        construction="Hermitian" if hermitian else "CSS", d=d, purity=purity,
        degenerate=_degeneracy_tristate(purity, d), bound_checks=checks)


def degeneracy_verdict(params: StabilizerParams,
                       certificate: DegeneracyCertificate) -> StabilizerParams:
    """Attach a certificate and reconcile its predicted purity bound with the
    computed purity.  Computed values are never overridden by predictions."""
    predicted = certificate.hypotheses_met or certificate.example_clause_7m
    if not predicted:
        agreement = "not_applicable"
    elif params.purity.is_exact:
        agreement = ("agrees" if params.purity.value <= certificate.purity_bound
                     else "discrepancy")
    else:
        agreement = "not_applicable"
    return params._replace(certificate=certificate,
                           purity_agreement=agreement)
