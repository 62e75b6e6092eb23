"""qduadic: construct, survey and verify quantum codes from duadic codes.

usage: qduadic exists N Q [--output FILE]
       qduadic build {css,hermitian} N Q [--splitting-id ID] [--budget B]
                     [--workers W] [--output FILE]
       qduadic survey --q Q --max-n N [--construction {css,hermitian}]
                      [--format {json,csv}] [--budget B] [--workers W]
                      [--output FILE]
       qduadic verify --q Q --max-n N [--budget B] [--workers W]
                      [--output FILE]

commands:
  exists N Q         duadic existence test with quadratic-residue witness
  build C N Q        full pipeline: splitting, quartet, distances, verdicts,
                     by the css or the hermitian construction
  survey             one row per admissible odd length up to --max-n
  verify             run the cross-module property suite up to --max-n

options, each given in full as --name value or --name=value:
  --q Q              survey, verify: a prime power below 2^64 (required)
  --max-n N          survey, verify: the largest length, at most 10^4
                     (required)
  --splitting-id ID  build: the splitting with this id as printed in every
                     report, 12 lowercase hex digits (default: mu_(-1) if
                     it splits, else the smallest splitting multiplier;
                     for hermitian, mu_(-q))
  --budget B         a positive integer or a power such as 2^30, at most
                     2^64 (default 2^26): d and the purity are exact when
                     q^k of the code C0 fits; build and survey then run a
                     Brouwer-Zimmermann search, and verify enumerates.
                     Beyond it, a support search of C0 tries the words of
                     weight w = 1, 2, ... while all candidates up to weight
                     w fit, and bounds the purity
  --workers W        worker processes for verify's exhaustive scans, a
                     positive integer; the pool is imported only above 1
                     (default 1); build and survey accept it, and their
                     search runs in one process
  --output FILE      write the report to FILE (default: stdout)
  --construction C   survey: css or hermitian (default css)
  --format F         survey: json or csv (default json)
  -h, --help         print this text and exit

stdout is machine-parseable (JSON, or CSV with --format csv); progress and
diagnostics go to stderr.  Exit codes: 0 success, 1 usage error,
2 mathematical nonexistence, 3 partial (interval) results, 4 assertion
failure (a violated property in `verify`, or an internal invariant).  A
usage error prints one usage line and one error line.
"""

from __future__ import annotations

import json
import sys
import time
from math import gcd
from types import SimpleNamespace

from .cyclic import (
    CyclicCodeError,
    cyclotomic_cosets,
    ord_mod,
    quadratic_residue_witness,
)
from .distance import DEFAULT_BUDGET, DistanceError
from .duadic import (
    FACTORIZATION_CAP,
    DuadicQuartet,
    Splitting,
    SplittingError,
    degeneracy_certificate,
    duadic_exists,
    materialize_quartet,
    splitting_by,
)
from .galois import FieldError, prime_power
from .stabilizer import (
    ConstructionError,
    degeneracy_verdict,
    select_splitting,
    stabilizer_params,
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
# a budget bounds q^k of the codes searched or enumerated and the candidates
# of a support search; scanning 2^64 words or candidates would take centuries
BUDGET_CAP = 1 << 64


class UsageError(Exception):
    pass


def _positive(value: int) -> int:
    if value <= 0:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


def positive_int(text: str) -> int:
    return _positive(int(text))


def parse_splitting_id(text: str) -> str:
    """Accepts the 12 lowercase hex digits of a splitting id."""
    if len(text) != 12 or text.strip("0123456789abcdef"):
        raise ValueError(f"must be 12 lowercase hex digits, got {text!r}")
    return text


def parse_output(text: str) -> str:
    """Accepts a nonempty file name."""
    if not text:
        raise ValueError("expected a file name, got ''")
    return text


def parse_budget(text: str) -> int:
    """Accepts positive plain integers and the 2^k shorthand, up to 2^64."""
    if "^" in text:
        base, _, exp = text.partition("^")
        base, exp = int(base), int(exp)
        if exp < 0:  # a negative power is a fraction, not a budget
            raise ValueError(f"must be a positive integer, got {text}")
        # base^exp >= 2^(exp * (bit_length - 1)): a power that large is
        # refused before it is computed, since 3^10^9 would take minutes
        fits = exp * (base.bit_length() - 1) <= 64
        value = base ** exp if fits else BUDGET_CAP + 1
    else:
        value = int(text)
    if value > BUDGET_CAP:
        raise ValueError(f"beyond desk scale (cap 2^64), got {text}")
    return _positive(value)


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
    if n > FACTORIZATION_CAP:  # before any work; exists lists every coset
        raise UsageError(
            f"n = {n} exceeds the trial-division cap {FACTORIZATION_CAP}")


def _emit(payload: str, output: str | None) -> None:
    if output is not None:
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


def cmd_build(args) -> int:
    n, q = args.n, args.q
    _validate_nq(n, q)
    construction = args.construction
    t0 = time.monotonic()
    splitting = select_splitting(n, q, construction, args.splitting_id)
    quartet = materialize_quartet(splitting, lambda exc: sys.stderr.write(
        f"quartet not materialized: {exc}\n"))
    params = stabilizer_params(splitting, quartet, construction, args.budget)
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


def _survey_row(n: int, q: int, construction: str, budget: int) -> dict:
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
    try:
        splitting = select_splitting(n, q, construction)
    except ConstructionError:  # nothing to build: the code columns stay blank
        return row
    params = stabilizer_params(splitting, materialize_quartet(splitting),
                               construction, budget)
    row.update({
        "d_kind": params.d.kind, "d_lo": params.d.lo, "d_hi": params.d.hi,
        "purity_kind": params.purity.kind,
        "purity_lo": params.purity.lo, "purity_hi": params.purity.hi,
        "degenerate": params.degenerate,
        # every check that ran passed; none runs on an interval d
        "bounds_ok": params.bound_checks["d_squared_ge_n"],
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
        rows.append(_survey_row(n, q, args.construction, args.budget))
    if args.format == "csv":
        # every cell is an int, a bool, a kind word or empty (None), so no
        # cell is quoted; lines end in \r\n, as in the excel dialect
        table = [SURVEY_COLUMNS] + [[row[c] for c in SURVEY_COLUMNS]
                                    for row in rows]
        _emit("".join(",".join("" if v is None else str(v) for v in line)
                      + "\r\n" for line in table), args.output)
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


# Each command's function and parameters, positionals first, each with a
# converter (a tuple lists the choices) and a default (or _REQUIRED)
_REQUIRED = object()
_CONSTRUCTION = ("css", "hermitian")
_N_Q = {"n": (int, _REQUIRED), "q": (int, _REQUIRED)}
_RANGE = {"--q": (int, _REQUIRED), "--max-n": (int, _REQUIRED)}
_RUN = {"--budget": (parse_budget, DEFAULT_BUDGET),
        "--workers": (positive_int, 1), "--output": (parse_output, None)}
COMMANDS = {
    "exists": (cmd_exists, {**_N_Q, "--output": (parse_output, None)}),
    "build": (cmd_build, {"construction": (_CONSTRUCTION, _REQUIRED), **_N_Q,
                          "--splitting-id": (parse_splitting_id, None), **_RUN}),
    "survey": (cmd_survey, {**_RANGE,
                            "--construction": (_CONSTRUCTION, "css"),
                            "--format": (("json", "csv"), "json"), **_RUN}),
    "verify": (cmd_verify, {**_RANGE, **_RUN}),
}


def _parse_argv(argv: list[str]) -> tuple:
    """argv -> its command's function and arguments, or a UsageError."""
    func, params = COMMANDS.get(argv[0] if argv else "", (None, {}))
    if func is None:
        raise UsageError(f"choose a command from {', '.join(COMMANDS)}")
    positionals = (name for name in params if not name.startswith("--"))
    texts, rest = {}, list(reversed(argv[1:]))  # pop() takes the next word
    while rest:
        word = rest.pop()
        # an option's value is inline after "=" or the next word
        name, inline, text = (word.partition("=") if word.startswith("--")
                              else (next(positionals, None), True, word))
        if name not in params:
            raise UsageError(f"unrecognized argument {word}")
        if not inline and (not rest or rest[-1].startswith("--")):
            raise UsageError(f"argument {name}: expected one value")
        texts[name] = text if inline else rest.pop()
    args = SimpleNamespace()
    for name, (conv, default) in params.items():
        text = texts.get(name)
        try:
            value = (default if text is None else
                     text if isinstance(conv, tuple) else conv(text))
            if value is _REQUIRED:
                raise ValueError("required")
            if isinstance(conv, tuple) and value not in conv:
                raise ValueError(f"choose from {', '.join(conv)}, got {value}")
        except ValueError as exc:
            raise UsageError(f"argument {name}: {exc}") from None
        setattr(args, name.strip("-").replace("-", "_"), value)
    return func, args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__)
        return EXIT_OK
    try:
        func, args = _parse_argv(argv)
    except UsageError as exc:
        command = (argv[0] if argv and argv[0] in COMMANDS
                   else "{%s} ..." % ",".join(COMMANDS))
        usage = [name if default is _REQUIRED else f"[{name}]"
                 for name, (_, default)
                 in COMMANDS.get(command, (None, {}))[1].items()]
        sys.stderr.write(f"usage: qduadic {' '.join([command, *usage])}\n"
                         f"qduadic: error: {exc}\n")
        return EXIT_USAGE
    try:
        return func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ConstructionError as exc:  # a refusal: nothing to build
        sys.stderr.write(f"{exc}\n")
        return EXIT_NONEXISTENT
    except (SplittingError, DistanceError,
            CyclicCodeError, FieldError, AssertionError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_ASSERTION
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
