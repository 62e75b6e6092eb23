"""Workload request lists, the reference table every report is checked
against, and the open-gap count.

A request is the argv a user would pass to ``qduadic``.  Every run of every
workload also runs the same three small coverage probes once, so that every
layer the trace measures runs on every workload and no reported time is
structurally zero:

* ``verify --q 2 --max-n 15`` runs the ``verify`` layer and the char-2 kernel;
* ``build css 11 3`` runs the odd-characteristic odometer and the
  set-difference cross-check (``min_weight_diffset``);
* ``build css 23 2 --budget 2^10`` runs support search and leaves an open
  interval, so ``open_gap`` is never zero.

Together they add about 0.07 s of ``main`` time to a run.
"""

from __future__ import annotations

import csv
import io
import json

PROBES = (
    ("verify", "--q", "2", "--max-n", "15"),
    ("build", "css", "11", "3"),
    ("build", "css", "23", "2", "--budget", "2^10"),
)

WORKLOADS = {
    # The packed char-2 Gray kernel does most of the work; the splitting
    # fields are GF(2^5) (tabled) and GF(2^23), GF(2^21), GF(2^22) (too large
    # for log tables), so field-construction changes should not show here.
    "char2-css": (
        ("build", "css", "31", "2"),
        ("build", "css", "47", "2"),
        ("build", "css", "49", "2"),
        ("build", "hermitian", "23", "2"),
    ),
    # Many lengths per process: field construction (log tables up to
    # GF(2^20)) is the largest share; also splitting enumeration and the
    # rref-based dual checks.  survey stops at 45 because 47 and 49 would
    # repeat the kernel work of char2-css.
    "sweep": (
        ("verify", "--q", "2", "--max-n", "61"),
        ("survey", "--q", "2", "--max-n", "45", "--format", "csv"),
    ),
    # Support search (2.3M candidates on n=73), theory-only output (n=71:
    # GF(2^35) is over the field cap) and certificate-only output (n=343).
    "beyond-budget": (
        ("build", "css", "73", "2", "--budget", "2^22"),
        ("build", "css", "71", "2", "--budget", "2^22"),
        ("build", "hermitian", "343", "2"),
    ),
}


def requests(workload: str) -> tuple[list[tuple], list[tuple]]:
    """(the workload's own requests, the coverage probes), each with
    ``--workers 1``."""
    return ([req + ("--workers", "1") for req in WORKLOADS[workload]],
            [req + ("--workers", "1") for req in PROBES])


# ---------------------------------------------------------------------------
# Reference table.  For every build request: the interval each record must lie
# in (the seed's certified interval; lo == hi where the seed is exact), the
# true value where it is known (the record must contain it), and the
# degeneracy verdict where the seed decided it.  A later change that tightens
# an interval still passes; one that loosens or contradicts it is an error.

def _exact(d: int, purity: int, degenerate: str) -> dict:
    return {"d": (d, d, d), "purity": (purity, purity, purity),
            "degenerate": degenerate}


BUILD_REFERENCE = {
    ("css", 7, 2): _exact(3, 4, "no"),
    ("hermitian", 7, 2): _exact(3, 4, "no"),
    ("css", 31, 2): _exact(7, 8, "no"),
    ("css", 47, 2): _exact(11, 12, "no"),
    ("css", 49, 2): _exact(9, 4, "yes"),
    ("hermitian", 23, 2): _exact(7, 8, "no"),
    ("css", 11, 3): _exact(5, 6, "no"),
    # (lo, hi, truth); truth None where unknown
    ("css", 23, 2): {"d": (6, 23, 7), "purity": (3, 23, 8)},
    ("css", 73, 2): {"d": (9, 73, None), "purity": (5, 73, None)},
    # D0 is the [71, 36, 11] quadratic-residue code
    ("css", 71, 2): {"d": (9, 71, 11), "purity": (1, 71, None)},
    ("hermitian", 343, 2): {"d": (19, 343, None), "purity": (1, 343, None)},
}

# survey --q 2 --max-n 45 (CSS): n -> (d, purity, degenerate) for the lengths
# that have a code; every other odd length has no duadic code over GF(2).
SURVEY_REFERENCE = {7: (3, 4, "no"), 17: (5, 6, "no"), 23: (7, 8, "no"),
                    31: (7, 8, "no"), 41: (9, 10, "no")}

# the acceptance checks of `verify`, each of which must pass at least once
VERIFY_REQUIRED = (
    "splitting_iff_quadratic_residue",
    "odd_like_weights_equal",
    "square_root_bound",
    "square_root_bound_mu_minus1",
    "dual_defining_set_matches_matrix",
    "mu_image_weight_distribution",
    "mu_minus1_equals_mu_minus_q",
)


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def parse_report(argv, stdout: str):
    """The report as data: a dict for build and verify, a list of row dicts
    for survey --format csv."""
    if argv[0] == "survey" and _flag(argv, "--format") == "csv":
        return list(csv.DictReader(io.StringIO(stdout)))
    return json.loads(stdout)


def normalized(argv, stdout: str) -> str:
    """The report with its only nondeterministic field, timing, removed."""
    doc = parse_report(argv, stdout)
    if isinstance(doc, dict):
        doc.pop("timing", None)
    return json.dumps(doc, sort_keys=True)


def _tristate(purity: dict, d: dict, n: int) -> str:
    p_lo, p_hi = purity["lo"], purity["hi"] if purity["hi"] is not None else n
    d_lo, d_hi = d["lo"], d["hi"] if d["hi"] is not None else n
    if p_hi < d_lo:
        return "yes"
    if p_lo >= d_hi:
        return "no"
    return "undecided"


def _check_record(name: str, rec: dict, n: int, ref: tuple) -> list[str]:
    lo_min, hi_max, truth = ref
    lo, hi = rec.get("lo"), rec.get("hi")
    top = n if hi is None else hi
    bad = []
    if not isinstance(lo, int) or not lo <= top:
        bad.append(f"{name}: malformed record {rec}")
        return bad
    if rec.get("kind") == "exact" and lo != hi:
        bad.append(f"{name}: exact record with lo != hi")
    if lo < lo_min or top > hi_max:
        bad.append(f"{name}: [{lo}, {top}] leaves the certified "
                   f"[{lo_min}, {hi_max}]")
    if truth is not None and not lo <= truth <= top:
        bad.append(f"{name}: [{lo}, {top}] excludes the true value {truth}")
    return bad


def _check_build(argv, code: int, doc: dict) -> list[str]:
    construction, n, q = argv[1], int(argv[2]), int(argv[3])
    ref = BUILD_REFERENCE[(construction, n, q)]
    st = doc["stabilizer"]
    bad = []
    if (st["n"], st["k"], st["q"]) != (n, 1, q):
        bad.append(f"parameters {(st['n'], st['k'], st['q'])} != {(n, 1, q)}")
    for name in ("d", "purity"):
        bad += _check_record(name, st[name], n, ref[name])
    verdict = _tristate(st["purity"], st["d"], n)
    if st["degenerate"] != verdict:
        bad.append(f"degenerate={st['degenerate']} but the records imply "
                   f"{verdict}")
    if "degenerate" in ref and st["degenerate"] != ref["degenerate"]:
        bad.append(f"degenerate={st['degenerate']}, expected "
                   f"{ref['degenerate']}")
    exact = st["d"]["kind"] == "exact" and st["purity"]["kind"] == "exact"
    if code != (0 if exact else 3):
        bad.append(f"exit code {code} with exact={exact}")
    return bad


def _check_verify(code: int, doc: dict) -> list[str]:
    bad = []
    if code != 0 or doc.get("all_passed") is not True or doc.get("failures"):
        bad.append(f"verify did not pass (exit {code})")
    tallies = doc.get("tallies", {})
    bad += [f"{k}: {t['failed']} failed" for k, t in tallies.items()
            if t["failed"]]
    bad += [f"{k}: never passed" for k in VERIFY_REQUIRED
            if tallies.get(k, {}).get("passed", 0) <= 0]
    return bad


def _check_survey(argv, code: int, rows: list[dict]) -> list[str]:
    max_n = int(_flag(argv, "--max-n"))
    bad = [] if code == 0 else [f"exit code {code}"]
    if [int(r["n"]) for r in rows] != list(range(3, max_n + 1, 2)):
        return bad + ["survey rows do not cover the odd lengths"]
    for r in rows:
        n = int(r["n"])
        want = SURVEY_REFERENCE.get(n)
        if want is None:
            if r["exists"] != "False" or r["d_kind"]:
                bad.append(f"n={n}: unexpected code")
            continue
        got = (r["d_kind"], r["d_lo"], r["d_hi"], r["purity_kind"],
               r["purity_lo"], r["purity_hi"], r["degenerate"],
               r["bounds_ok"])
        d, purity, degenerate = want
        if got != ("exact", str(d), str(d), "exact", str(purity),
                   str(purity), degenerate, "True"):
            bad.append(f"n={n}: row {got} != d={d} purity={purity} "
                       f"degenerate={degenerate}")
    return bad


def check(argv, code, stdout: str) -> list[str]:
    """Every way the report of one request fails the reference; empty when
    the report is correct."""
    if code is None:
        return ["request raised instead of returning an exit code"]
    try:
        doc = parse_report(argv, stdout)
        if argv[0] == "build":
            return _check_build(argv, code, doc)
        if argv[0] == "verify":
            return _check_verify(code, doc)
        return _check_survey(argv, code, doc)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable report: {exc!r}"]


def _gap(lo, hi, n: int) -> int:
    return (n if hi is None else hi) - lo


def open_gap(argv, stdout: str) -> int:
    """Sum of hi - lo over every d and purity record of one report, taking
    hi = n when it is null; 0 when every record is exact."""
    doc = parse_report(argv, stdout)
    if argv[0] == "build":
        st = doc["stabilizer"]
        return sum(_gap(st[k]["lo"], st[k]["hi"], st["n"])
                   for k in ("d", "purity"))
    if argv[0] == "survey":
        return sum(_gap(int(r[k + "_lo"]),
                        int(r[k + "_hi"]) if r[k + "_hi"] else None,
                        int(r["n"]))
                   for r in doc for k in ("d", "purity") if r[k + "_kind"])
    return 0
