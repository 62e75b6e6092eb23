"""Self-test of the benchmark's own code; takes a few seconds.

    python3 perfbench/selftest.py

Runs build css 7 2, build hermitian 7 2 and verify --q 2 --max-n 15 through
the fresh-process runner, untraced and traced, and checks that every report
is read and passes, that corrupted reports count as errors, that self times
and buckets come out right on a synthetic span tree, that the layer self
times of a traced request add up to its wall time, and that open_gap is right
on hand-made records.  Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import os
import sys

from run import END_TO_END, ROOT, RUN_DEADLINE_S, audit, run_request
from spans import PER_LAYER, layer_metrics, request_sums, self_times
from tracer import LAYERS
from workloads import WORKLOADS, check, open_gap, parse_report

REQUESTS = [
    ("build", "css", "7", "2", "--workers", "1"),
    ("build", "hermitian", "7", "2", "--workers", "1"),
    ("verify", "--q", "2", "--max-n", "15", "--workers", "1"),
]


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def _with_stdout(rec: dict, doc) -> dict:
    return {**rec, "stdout": json.dumps(doc)}


def test_real_reports() -> None:
    plain = [run_request(r, False, RUN_DEADLINE_S) for r in REQUESTS]
    traced = [run_request(r, True, RUN_DEADLINE_S) for r in REQUESTS]
    for label, records in (("untraced", plain), ("traced", traced)):
        for argv, rec in zip(REQUESTS, records):
            parse_report(argv, rec["stdout"])
            expect(check(argv, rec["exit"], rec["stdout"]) == [],
                   f"{' '.join(argv[:-2])} ({label}): report read and correct")
    expect(audit(REQUESTS, [{"records": plain}, {"records": traced}])[1] == 0,
           "traced and untraced reports agree")
    expect(all(r["main_ref_s"] > 0 and r["import_ref_s"] > 0 for r in plain)
           and all(r["main_ref_s"] is None and r["import_ref_s"] > 0
                   for r in traced),
           "untraced main() and every import timed at the reference speed")

    for argv, rec in zip(REQUESTS, traced):
        m = layer_metrics(request_sums(rec["spans"]))
        total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        expect(abs(total - m["trace.wall_s"]) < 1e-9 * max(1, total)
               and m["trace.wall_s"] <= rec["main_s"],
               f"{' '.join(argv[:-2])}: layer self times add up to the "
               "traced wall time")
    m = layer_metrics(request_sums(traced[0]["spans"]))
    expect(m["distance.enum_words"] > 0 and m["galois.fields_built"] > 0
           and m["distance.crosscheck_s"] > 0,
           "build css 7 2: enumeration, field and cross-check counters set")

    build = json.loads(plain[0]["stdout"])
    corrupt = copy.deepcopy(build)
    corrupt["stabilizer"]["d"].update(lo=4, hi=4)
    looser = copy.deepcopy(build)
    looser["stabilizer"]["purity"].update(kind="interval", lo=2, hi=7)
    verdict = copy.deepcopy(build)
    verdict["stabilizer"]["degenerate"] = "yes"
    failing = json.loads(plain[2]["stdout"])
    failing["tallies"]["square_root_bound"]["failed"] = 1
    bad = [
        (REQUESTS[0], _with_stdout(plain[0], corrupt)),
        (REQUESTS[0], _with_stdout(plain[0], looser)),
        (REQUESTS[0], _with_stdout(plain[0], verdict)),
        (REQUESTS[0], {**plain[0], "exit": 3}),
        (REQUESTS[0], {**plain[0], "stdout": plain[0]["stdout"][:40]}),
        (REQUESTS[2], _with_stdout(plain[2], failing)),
    ]
    for argv, rec in bad:
        attempted, failed, problems = audit([argv], [{"records": [rec]}])
        expect(attempted == 1 and failed == 1,
               f"corrupted report counted as an error: {problems[0]}")


def test_self_time() -> None:
    def span(i, parent, name, start, end, **kw):
        return {"id": i, "parent": parent, "name": name, "start": start,
                "end": end, **kw}

    spans = [
        span(0, None, "cli.main", 0.0, 10.0),
        span(1, 0, "stabilizer.css_from_quartet", 1.0, 9.0),
        span(2, 1, "distance.min_weight_diffset", 2.0, 5.0, p=2,
             work=7, method="full_enumeration"),
        span(3, 2, "distance.min_odd_like_weight", 3.0, 4.0, p=2,
             work=9, method="full_enumeration"),
        span(4, 1, "distance.min_weight", 5.0, 8.5, p=2, work=100,
             method="support_search"),
        span(5, 4, "distance.support_search_min_weight", 6.0, 8.0, p=2,
             work=100, method="support_search"),
        span(6, 0, "galois.make_field", 9.0, 9.5, cold=True, order=32),
    ]
    expect(self_times(spans) == {0: 1.5, 1: 1.5, 2: 2.0, 3: 1.0, 4: 1.5,
                                 5: 2.0, 6: 0.5},
           "self times on a synthetic span tree")
    m = layer_metrics(request_sums(spans))
    expect(m["distance.crosscheck_s"] == 3.0 and m["distance.enum_s"] == 1.5
           and m["distance.support_s"] == 2.0
           and m["distance.support_candidates"] == 100
           and m["distance.enum_words"] == 0
           and m["galois.field_s"] == 0.5 and m["galois.field_elements"] == 32
           and m["trace.wall_s"] == 10.0,
           "bucket attribution on a synthetic span tree")


def test_open_gap() -> None:
    def record(kind, lo, hi):
        return {"kind": kind, "lo": lo, "hi": hi, "method": "m", "work": 0}

    doc = {"stabilizer": {"n": 73, "d": record("interval", 9, 73),
                          "purity": record("lower_bound", 5, None)}}
    expect(open_gap(("build", "css", "73", "2"), json.dumps(doc)) == 132,
           "open_gap of an interval and a lower bound")
    doc["stabilizer"].update(d=record("exact", 11, 11),
                             purity=record("exact", 12, 12))
    expect(open_gap(("build", "css", "73", "2"), json.dumps(doc)) == 0,
           "open_gap of exact records")
    csv_text = ("n,d_kind,d_lo,d_hi,purity_kind,purity_lo,purity_hi\n"
                "5,,,,,,\n"
                "7,exact,3,3,exact,4,4\n"
                "41,interval,6,41,lower_bound,3,\n")
    survey = ("survey", "--q", "2", "--max-n", "41", "--format", "csv")
    expect(open_gap(survey, csv_text) == 35 + 38,
           "open_gap of survey rows")


def test_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
           and {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
           and [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json names the metrics, units and workloads reported")


if __name__ == "__main__":
    test_benchmark_json()
    test_self_time()
    test_open_gap()
    test_real_reports()
    print("selftest passed")
