"""Command-line surface: construct, survey, and verify duadic quantum codes.

Subcommands:
    exists N Q            duadic existence test with quadratic-residue witness
    build {css,hermitian} N Q
                          full pipeline: splitting, quartet, distances, verdicts
    survey --q Q --max-n N
                          one row per admissible odd length
    verify --q Q --max-n N
                          run the cross-module property suite

stdout is machine-parseable (JSON, or CSV with --format csv); progress and
diagnostics go to stderr.  Exit codes: 0 success, 1 usage error,
2 mathematical nonexistence, 3 partial (interval) results, 4 assertion
failure (a violated property in `verify`, or an internal invariant).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import locale  # noqa: F401  argparse's gettext needs it in every run; load it here
import sys
import time
from math import gcd, isqrt

from .cyclic import (
    CyclicCodeError,
    cyclotomic_cosets,
    ord_mod,
    quadratic_residue_witness,
)
from .distance import DEFAULT_BUDGET, DistanceError
from .duadic import (
    DuadicQuartet,
    Splitting,
    SplittingError,
    default_splitting,
    degeneracy_certificate,
    duadic_exists,
    iter_splittings,
    materialize_quartet,
    splitting_by,
)
from .galois import FieldError, prime_power
from .stabilizer import (
    ConstructionError,
    degeneracy_verdict,
    stabilizer_params,
    verify_hermitian_condition,
)
from .verify import run_suite

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONEXISTENT = 2
EXIT_PARTIAL = 3
EXIT_ASSERTION = 4

# Fields are capped far below this, so a larger q could only ever give
# theory intervals; below it (and for the root of q^2) the prime-power test
# is exact and fast
Q_CAP = 1 << 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive(value: int) -> int:
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def positive_int(text: str) -> int:
    return _positive(int(text))


def parse_budget(text: str) -> int:
    """Accepts positive plain integers and the 2^k shorthand."""
    if "^" in text:
        base, _, exp = text.partition("^")
        if int(exp) < 0:  # a negative power is a fraction, not a budget
            raise argparse.ArgumentTypeError(
                f"must be a positive integer, got {text}")
        return _positive(int(base) ** int(exp))
    return _positive(int(text))


def _validate_q(q: int) -> None:
    if q >= Q_CAP:
        raise UsageError(f"q beyond desk scale (cap 2^64), got {q}")
    if prime_power(q) is None:
        raise UsageError(f"q must be a prime power, got {q}")


def _validate_nq(n: int, q: int) -> None:
    if n < 3 or n % 2 == 0:
        raise UsageError(f"length n must be odd and >= 3, got {n}")
    _validate_q(q)
    if gcd(n, q) != 1:
        raise UsageError(f"n and q must be coprime, got gcd({n}, {q}) > 1")


def _emit(payload: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(
                f"cannot write --output {output}: {exc.strerror}") from None
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------


def cmd_exists(args) -> int:
    n, q = args.n, args.q
    _validate_nq(n, q)
    exists = duadic_exists(n, q)
    cs = cyclotomic_cosets(n, q)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "q": q,
        "exists": exists,
        "quadratic_residue_witness": quadratic_residue_witness(q, n),
        "cosets": [list(c) for c in cs.cosets],
        "ord_n_q": ord_mod(n, q),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    return EXIT_OK if exists else EXIT_NONEXISTENT


def _quartet_summary(quartet: DuadicQuartet) -> dict:
    def code_doc(C):
        return {
            "n": C.n, "k": C.k, "q": C.q,
            "defining_set": list(C.T.members),
            "genpoly": list(C.genpoly.coeffs),
        }
    return {"D0": code_doc(quartet.D0), "D1": code_doc(quartet.D1),
            "C0": code_doc(quartet.C0), "C1": code_doc(quartet.C1)}


def _splitting_doc(s: Splitting) -> dict:
    return {"n": s.n, "q": s.q, "a": s.a, "S0": list(s.S0), "S1": list(s.S1),
            "id": s.splitting_id}


def _select_splitting(n: int, code_q: int, construction: str,
                      splitting_id: str | None) -> Splitting | None:
    if splitting_id:
        for s in iter_splittings(n, code_q):
            if s.splitting_id == splitting_id:
                return s
        raise UsageError(f"no splitting with id {splitting_id} found")
    if construction == "hermitian":
        return splitting_by(n, code_q, (-isqrt(code_q)) % n)
    return default_splitting(n, code_q)


def cmd_build(args) -> int:
    n, q = args.n, args.q
    _validate_nq(n, q)
    construction = args.construction
    code_q = q * q if construction == "hermitian" else q
    t0 = time.monotonic()

    if construction == "css" and not duadic_exists(n, q):
        sys.stderr.write(f"no duadic codes of length {n} over GF({q})\n")
        return EXIT_NONEXISTENT

    splitting = _select_splitting(n, code_q, construction, args.splitting_id)
    if splitting is None:
        if construction == "hermitian":
            sys.stderr.write(
                f"mu_(-q) gives no splitting of {n} over GF({code_q}); "
                "Hermitian construction refused\n")
        else:
            sys.stderr.write(f"no splitting of {n} over GF({code_q})\n")
        return EXIT_NONEXISTENT
    if construction == "hermitian" and not verify_hermitian_condition(splitting):
        sys.stderr.write(
            f"splitting {splitting.splitting_id} is not given by mu_(-q); "
            "Hermitian construction refused\n")
        return EXIT_NONEXISTENT

    quartet = materialize_quartet(splitting, lambda exc: sys.stderr.write(
        f"quartet not materialized: {exc}\n"))
    params = stabilizer_params(splitting, quartet, construction, args.budget,
                               args.workers)
    cert_kind = "Hermitian" if construction == "hermitian" else "CSS"
    params = degeneracy_verdict(params,
                                degeneracy_certificate(n, q, cert_kind))

    report = {
        "schema_version": SCHEMA_VERSION,
        "input": {"n": n, "q": q, "construction": construction,
                  "splitting_id": splitting.splitting_id},
        "splitting": _splitting_doc(splitting),
        "quartet": _quartet_summary(quartet) if quartet else None,
        "stabilizer": params.to_dict(),
        "timing": {"seconds": round(time.monotonic() - t0, 6)},
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.output)
    exact = params.d.is_exact and params.purity.is_exact
    return EXIT_OK if exact else EXIT_PARTIAL


SURVEY_COLUMNS = ("n", "q", "exists", "ord_n_q", "mu_minus1_splits",
                  "mu_minus_q_splits", "d_kind", "d_lo", "d_hi",
                  "purity_kind", "purity_lo", "purity_hi", "degenerate",
                  "bounds_ok")


def _survey_row(n: int, q: int, construction: str, budget: int,
                workers: int) -> dict:
    code_q = q * q if construction == "hermitian" else q
    row = dict.fromkeys(SURVEY_COLUMNS)
    row.update({
        "n": n,
        "q": q,
        "exists": duadic_exists(n, code_q),
        "ord_n_q": ord_mod(n, q),
        "mu_minus1_splits": splitting_by(n, code_q, n - 1) is not None,
        "mu_minus_q_splits": splitting_by(n, q * q, (-q) % n) is not None,
    })
    if not row["exists"]:
        return row
    splitting = _select_splitting(n, code_q, construction, None)
    if splitting is None:
        return row
    params = stabilizer_params(splitting, materialize_quartet(splitting),
                               construction, budget, workers)
    row.update({
        "d_kind": params.d.kind, "d_lo": params.d.lo, "d_hi": params.d.hi,
        "purity_kind": params.purity.kind,
        "purity_lo": params.purity.lo, "purity_hi": params.purity.hi,
        "degenerate": params.degenerate,
        "bounds_ok": params.bound_report.all_satisfied,
    })
    return row


def _validate_max_n(max_n: int) -> None:
    if max_n > 10**4:
        raise UsageError("--max-n beyond desk scale (cap 10^4)")


def cmd_survey(args) -> int:
    q = args.q
    _validate_q(q)
    _validate_max_n(args.max_n)
    rows = []
    for n in range(3, args.max_n + 1, 2):
        if gcd(n, q) != 1:
            continue
        sys.stderr.write(f"survey n={n}\n")
        rows.append(_survey_row(n, q, args.construction, args.budget,
                                args.workers))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=SURVEY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.output)
    else:
        doc = {"schema_version": SCHEMA_VERSION, "q": q,
               "construction": args.construction, "rows": rows}
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    _validate_q(args.q)
    _validate_max_n(args.max_n)
    result = run_suite(args.q, args.max_n, args.budget, args.workers)
    doc = {"schema_version": SCHEMA_VERSION, "q": args.q,
           "max_n": args.max_n, **result.to_dict()}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    return EXIT_OK if result.all_passed else EXIT_ASSERTION


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="qduadic",
                     description="Duadic quantum stabilizer code construction "
                                 "and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exists", parents=[], help="duadic existence test")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--output")
    p.set_defaults(func=cmd_exists)

    p = sub.add_parser("build", help="construct a quantum duadic code")
    p.add_argument("construction", choices=["css", "hermitian"])
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--splitting-id")
    p.add_argument("--budget", type=parse_budget, default=DEFAULT_BUDGET)
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("--output")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("survey", help="tabulate admissible lengths")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--construction", choices=["css", "hermitian"],
                   default="css")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--budget", type=parse_budget, default=DEFAULT_BUDGET)
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("--output")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("verify", help="run the cross-module property suite")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--budget", type=parse_budget, default=DEFAULT_BUDGET)
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (SplittingError, ConstructionError, DistanceError,
            CyclicCodeError, FieldError, AssertionError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_ASSERTION
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
