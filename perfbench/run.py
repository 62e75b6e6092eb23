"""The qduadic benchmark: runs one workload's requests as a user would, each
in a fresh interpreter, checks every report, and prints the metrics.

    python3 perfbench/run.py --workload char2-css --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run first runs the coverage probes once, then repeats passes over the
workload's requests for about --seconds (at least one pass), in orders drawn
from --seed.  Requests run one at a time with --workers 1.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes, reports the per-layer metrics of the median traced pass
together with the traced probes, and writes every traced span as JSON lines
to perfbench/out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 2 means the
benchmark could not run (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

from spans import PER_LAYER, layer_metrics, request_sums
from workloads import WORKLOADS, check, normalized, open_gap, requests

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# name -> unit, in the order of the report
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "open_gap": "count"}
# a run must end within 180 s; no request is started after this
RUN_DEADLINE_S = 165
# import-only children per run, on top of one per request
SETUP_SAMPLES = 5


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (not a wrong report)."""


def run_request(argv, traced: bool, timeout: float) -> dict:
    """One request in a fresh interpreter; the child's JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           *(["--trace"] if traced else []), "--", *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{' '.join(argv)}: no result within "
                             f"{timeout:.0f} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{' '.join(argv)}: child exited "
                             f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_passes(reqs, probes, seed: int, seconds: float, trace: bool):
    """(import-only records, probe records, passes).
    The probes run once, traced when `trace`; then passes over the requests
    repeat until about `seconds` have gone, each {"traced": bool, "records":
    [record per request index]}, alternating untraced and traced passes when
    `trace`."""
    if not os.path.isfile(os.path.join(ROOT, "src", "qduadic", "cli.py")):
        raise BenchmarkError(f"no qduadic sources under {ROOT}/src")
    deadline = time.monotonic() + RUN_DEADLINE_S
    rng = random.Random(seed)

    def run_all(argvs, traced):
        order = list(range(len(argvs)))
        rng.shuffle(order)
        records = [None] * len(argvs)
        for i in order:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchmarkError("run exceeded its deadline")
            records[i] = run_request(argvs[i], traced, left)
        return records

    # the first child compiles the bytecode and warms the page cache, so it
    # is not measured; the others add import-time samples for setup_s
    warm = run_all([("exists", "7", "2")] * (1 + SETUP_SAMPLES), False)[1:]
    probe_records = run_all(probes, trace)
    start = time.monotonic()
    modes = (False, True) if trace else (False,)
    passes = []
    while True:
        for traced in modes:
            passes.append({"traced": traced,
                           "records": run_all(reqs, traced)})
        elapsed = time.monotonic() - start
        cycle = elapsed * len(modes) / len(passes)
        if elapsed + cycle > seconds or time.monotonic() + cycle > deadline:
            return warm, probe_records, passes


def audit(reqs, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): every report against the reference
    table, and against the first pass's report of the same request."""
    first = [normalized_or_none(argv, passes[0]["records"][i])
             for i, argv in enumerate(reqs)]
    attempted = failed = 0
    problems = []
    for p in passes:
        for i, argv in enumerate(reqs):
            rec = p["records"][i]
            bad = check(argv, rec["exit"], rec["stdout"])
            if rec["error"]:
                bad.append(rec["error"].strip().splitlines()[-1])
            if not bad and normalized_or_none(argv, rec) != first[i]:
                bad.append("report differs between passes")
            attempted += 1
            if bad:
                failed += 1
                problems += [f"{' '.join(argv)}: {b}" for b in bad]
    return attempted, failed, problems


def normalized_or_none(argv, rec) -> str | None:
    try:
        return normalized(argv, rec["stdout"])
    except ValueError:
        return None


def _wall(reqs, passes, key: str = "main_ref_s") -> float:
    """Sum over requests of the median main() time across the passes."""
    return sum(statistics.median(p["records"][i][key] for p in passes)
               for i in range(len(reqs)))


def end_to_end(reqs, probes, warm, probe_records,
               passes) -> dict[str, float]:
    """The end-to-end metrics, the timed ones at the reference speed (see
    child.py), and the same timed ones as measured under `raw_` names."""
    records = probe_records + [r for p in passes for r in p["records"]]
    gap = 0
    for argv, rec in [*zip(reqs, passes[0]["records"]),
                      *zip(probes, probe_records)]:
        try:
            gap += open_gap(argv, rec["stdout"])
        except (ValueError, KeyError, TypeError):
            pass  # an unreadable report is already counted as failed

    def wall(key):
        return _wall(reqs, passes, key) + sum(r[key] for r in probe_records)

    def setup(key):
        return statistics.median(r[key] for r in warm + records)

    return {
        "wall_s": wall("main_ref_s"),
        "setup_s": setup("import_ref_s"),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024,
        "open_gap": gap,
        "raw_wall_s": wall("main_s"),
        "raw_setup_s": setup("import_s"),
    }


def _layer_sums(records) -> dict[str, float]:
    sums: dict[str, float] = {}
    for rec in records:
        for k, v in request_sums(rec["spans"]).items():
            sums[k] = sums.get(k, 0.0) + v
    return sums


def per_layer(reqs, probes, probe_records, passes, workload: str,
              seed: int) -> dict[str, float]:
    """The metrics of the median traced pass, together with the probes."""
    plain = [p for p in passes if not p["traced"]]
    traced = sorted((p for p in passes if p["traced"]),
                    key=lambda p: _layer_sums(p["records"])["trace.wall_s"])
    median_pass = traced[(len(traced) - 1) // 2]
    out = layer_metrics(_layer_sums(median_pass["records"] + probe_records))
    out["trace.overhead_s"] = (_wall(reqs, traced, "main_s")
                               - _wall(reqs, plain, "main_s"))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl")
    with open(path, "w") as fh:
        labelled = [("probe", zip(probes, probe_records))]
        labelled += [(f"pass{n}", zip(reqs, p["records"]))
                     for n, p in enumerate(traced)]
        for label, pairs in labelled:
            for argv, rec in pairs:
                req = f"{label}.{' '.join(argv)}"
                for span in rec["spans"]:
                    fh.write(json.dumps({"request": req, **span}) + "\n")
    return out


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    reqs, probes = requests(workload)
    warm, probe_records, passes = run_passes(
        reqs, probes, seed, seconds, trace)
    attempted, failed, problems = audit(reqs, passes)
    p_attempted, p_failed, p_problems = audit(
        probes, [{"records": probe_records}])
    attempted, failed = attempted + p_attempted, failed + p_failed
    for line in (problems + p_problems)[:20]:
        sys.stderr.write(f"INCORRECT {line}\n")
    if trace:
        values = per_layer(reqs, probes, probe_records, passes, workload,
                           seed)
        units = PER_LAYER
    else:
        values = end_to_end(reqs, probes, warm, probe_records, passes)
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(f"workload {workload}: seed {seed}, {len(passes)} passes of "
          f"{len(reqs)} requests and {len(probes)} probes once, "
          f"{failed} of {attempted} reports wrong")
    for k, m in metrics.items():
        print(f"  {k:<36} {m['value']:>16.6f} {m['unit']}")
    if not trace:
        print(f"  as measured: wall {values['raw_wall_s']:.6f} s, setup "
              f"{values['raw_setup_s']:.6f} s")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds,
                                   bool(args.trace)) for w in names}
    except BenchmarkError as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
