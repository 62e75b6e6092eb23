"""Cross-module property suite: re-checks the theorems empirically over all
feasible lengths up to a cap.  Used by the `verify` CLI command; every
assertion tallies as passed, failed, or skipped (budget/cap limits).

Builds and survey rows print d, the purity and the degeneracy verdict of
`stabilizer_params`.  This suite checks them by an independent route, the
weight distributions (`_distributions`): C0 is enumerated, D0's
distribution is its MacWilliams transform, and d is the least weight where
D0 has more words than C0.  That route, and `--workers`, serve only this
suite's exhaustive scans."""

from __future__ import annotations

from math import gcd

from .cyclic import (
    CyclicCodeError,
    code_under_mu,
    euclidean_dual,
    hermitian_dual,
    is_quadratic_residue,
    ord_mod,
)
from .distance import (
    DEFAULT_BUDGET,
    DistanceError,
    DistanceResult,
    _full_scan_distribution,
    enumerable,
    macwilliams,
    weight_distribution,
)
from .duadic import (
    DuadicQuartet,
    default_splitting,
    find_splittings,
    materialize_quartet,
    splitting_by,
)
from .stabilizer import (
    ConstructionError,
    check_square_root_bound,
    select_splitting,
    stabilizer_params,
)


class SuiteResult:
    """Per-assertion tallies of passed, failed and skipped checks, and the
    detail of every failure."""

    def __init__(self):
        self.tallies: dict = {}
        self.failures: list = []

    def record(self, name: str, outcome: str, detail: str = "") -> None:
        bucket = self.tallies.setdefault(
            name, {"passed": 0, "failed": 0, "skipped": 0})
        bucket[outcome] += 1
        if outcome == "failed":
            self.failures.append({"assertion": name, "detail": detail})

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.record(name, "passed" if ok else "failed", detail)

    @property
    def all_passed(self) -> bool:
        """No check failed and at least one passed."""
        return not self.failures and any(
            t["passed"] for t in self.tallies.values())

    def to_dict(self) -> dict:
        return {"tallies": self.tallies, "failures": self.failures,
                "all_passed": self.all_passed}


def _distributions(quartet: DuadicQuartet, budget: int = DEFAULT_BUDGET,
                   workers: int = 1) -> tuple[dict, dict, DistanceResult]:
    """C0's weight distribution, D0's, and the odd-like distance d of D0,
    by enumerating C0 once.  C0^perp has the defining set -S1, the mu_{-1}
    image of D1's, so D0's distribution is the MacWilliams transform of
    C0's.  (A Hermitian dual is the conjugate of the Euclidean dual and has
    the same distribution.)  D0 \\ C0 is the set of odd-like words of D0,
    so d is the least w with A_w(D0) > A_w(C0)."""
    C0, D0 = quartet.C0, quartet.D0
    C = weight_distribution(C0, budget, workers)
    D = macwilliams(C, quartet.n, quartet.q)
    if (D.get(0) != 1 or sum(D.values()) != quartet.q**D0.k
            or any(D.get(w, 0) < c for w, c in C.items())):
        raise DistanceError(
            "transformed distribution of D0 does not contain that of C0 "
            "(internal bug)")
    odd = min(w for w, c in D.items() if c > C.get(w, 0))
    # the nonzero words of {c in C0 : c_(n-1) = 0}, which the kernel scans
    work = C0.q**(C0.k - 1) - 1
    return C, D, DistanceResult.exact(odd, "full_enumeration", work)


def run_suite(q: int, max_n: int, budget: int = DEFAULT_BUDGET,
              workers: int = 1) -> SuiteResult:
    res = SuiteResult()
    lengths = [n for n in range(3, max_n + 1, 2) if gcd(n, q) == 1]

    for n in lengths:
        # (a) splittings exist iff q is a quadratic residue mod n
        has_split = bool(find_splittings(n, q, limit=1))
        res.check("splitting_iff_quadratic_residue",
                  has_split == is_quadratic_residue(q, n), f"n={n}")
        if not has_split:
            continue

        s = default_splitting(n, q)
        quartet = materialize_quartet(s)
        if quartet is None:
            res.record("quartet_constructible", "skipped", f"n={n} field cap")
            continue

        # (b), (c) odd-like weight equality and square-root bounds; the
        # engine takes C1's distribution to be C0's through mu_a, so C1 is
        # enumerated here directly to check that equivalence
        if enumerable(quartet.C0, budget):
            C, D, d = _distributions(quartet, budget, workers)
            res.check("odd_like_weights_equal",
                      weight_distribution(quartet.C1, budget, workers) == C,
                      f"n={n}")
            detail = f"n={n} d_o={d.value}"
            checks = check_square_root_bound(s, d)
            res.check("square_root_bound", checks["d_squared_ge_n"], detail)
            if checks["mu_minus1_splitting"]:
                res.check("square_root_bound_mu_minus1",
                          checks["d_sq_minus_d_plus_1_ge_n"], detail)
            # builds and survey rows print the d, purity and verdict of
            # stabilizer_params, read off two Brouwer-Zimmermann searches
            params = stabilizer_params(s, quartet, "css", budget)
            least = min(w for w in C if w)
            res.check("extremes_match_distribution",
                      (params.d.value, params.purity.value, params.degenerate)
                      == (d.value, least, "yes" if least < d.value else "no"),
                      f"n={n}")
            # the engine scans only {c in C0 : c_(n-1) = 0}; a scan of all of
            # C0 by the same kernel checks the rebuilt histogram
            if n <= 21:
                res.check("shortening_matches_full_scan",
                          _full_scan_distribution(quartet.C0, workers) == C,
                          f"n={n}")
        else:
            res.record("odd_like_weights_equal", "skipped",
                       f"n={n} exceeds budget")

        # (d) defining-set duals match the generator matrices (checked
        # inside euclidean_dual / hermitian_dual, which raise on mismatch)
        try:
            euclidean_dual(quartet.C0)
            euclidean_dual(quartet.D0)
            res.record("dual_defining_set_matches_matrix", "passed")
        except CyclicCodeError as exc:
            res.record("dual_defining_set_matches_matrix", "failed",
                       f"n={n}: {exc}")

        # (e) mu_a images are equivalent: identical weight distributions;
        # the direct distribution of D0 also checks the MacWilliams route
        # (D0 has one dimension more than C0, so D is C0's transform here)
        if n <= 21 and enumerable(quartet.D0, budget):
            wd = weight_distribution(quartet.D0, budget, workers)
            res.check("macwilliams_matches_enumeration", wd == D, f"n={n}")
            for a in sorted({s.a, n - 1}):
                img = code_under_mu(quartet.D0, a)
                wd2 = weight_distribution(img, budget, workers)
                res.check("mu_image_weight_distribution", wd == wd2,
                          f"n={n} a={a}")

    # (f) for odd ord_n(q): mu_{-1} and mu_{-q} give the same GF(q^2) splitting
    for n in lengths:
        if ord_mod(n, q) % 2 == 1:
            s1 = splitting_by(n, q * q, n - 1)
            s2 = splitting_by(n, q * q, (-q) % n)
            ok = (s1 is not None and s2 is not None
                  and {frozenset(s1.S0), frozenset(s1.S1)}
                  == {frozenset(s2.S0), frozenset(s2.S1)})
            res.check("mu_minus1_equals_mu_minus_q", ok, f"n={n}")

    # hermitian dual formula vs conjugated generator matrix at small n
    for n in lengths:
        if n > 15:
            break
        try:
            s = select_splitting(n, q, "hermitian")
        except ConstructionError:
            continue
        quartet = materialize_quartet(s)
        if quartet is None:
            res.record("hermitian_dual_is_D0", "skipped", f"n={n} field cap")
            continue
        try:
            hd = hermitian_dual(quartet.C0)
        except CyclicCodeError as exc:
            res.record("hermitian_dual_is_D0", "failed", f"n={n}: {exc}")
            continue
        res.check("hermitian_dual_is_D0",
                  hd.T.as_set() == quartet.D0.T.as_set(), f"n={n}")
    return res
