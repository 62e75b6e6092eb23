"""Run one qduadic request in this fresh interpreter, as a user's command
would, and print one JSON line describing it.

    python3 perfbench/child.py [--trace] -- <qduadic arguments...>

The import of ``qduadic.cli`` (numpy included) is timed on its own
(``import_s``), then ``main(argv)`` (``main_s``) with stdout captured.  The
line carries the exit code, the captured report, the peak RSS of this
process and, with ``--trace``, the spans.

Reference speed.  The shared host's speed changes from one second to the
next, by up to a third, and every request slows or speeds up with it.  So
the child samples the speed all through the import and, untraced, all
through ``main``: every ``SAMPLE_EVERY_S`` a SIGALRM handler times a fixed
piece of pure-Python work (``reference_work``) that does not touch qduadic.
``import_s`` and ``main_s`` leave the handler's time out.  ``import_ref_s``
and ``main_ref_s`` are the same times at the reference speed: multiplied by
the mean, over the phase's samples, of ``REF_S / sample time``, that is, in
seconds on a host where one sample takes ``REF_S``.  Traced, ``main`` is not
sampled and ``main_ref_s`` is null.
"""

import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLE_EVERY_S = 0.05
REF_S = 0.004


class _Field:
    """A stand-in for a small field's table lookups and method calls."""

    def __init__(self):
        self.table = tuple((i * 7 + 3) % 251 for i in range(256))

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        return self.table[(a + b) & 255]


_FIELD = _Field()
_COLUMNS = [tuple((i * j + 1) & 255 for j in range(16)) for i in range(32)]


def reference_work() -> int:
    """A fixed mix of integer arithmetic, method calls, tuple indexing and
    dict stores, about 4 ms on a 2-core shared Xeon."""
    s = 0
    for i in range(20_000):
        s = (s * 31 + i) % 1000003
    acc, seen = 0, {}
    for i in range(2_500):
        col = _COLUMNS[i & 31]
        for r in (1, 5, 9):
            if col[r]:
                acc = _FIELD.add(acc, _FIELD.mul(r, col[r]))
        seen[i & 63] = acc
    return s + acc + len(seen)


class SpeedSampler:
    """Times ``reference_work`` now and then every SAMPLE_EVERY_S until
    ``stop``; ``spent`` is the handler's time after the first sample."""

    def __init__(self):
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        self._sample()
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def at_reference(self, seconds: float) -> float:
        return seconds * sum(REF_S / c for c in self.samples) / len(
            self.samples)


def run(trace: bool, argv: list[str]) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sampler = SpeedSampler()
    sampler.start()
    t0 = time.perf_counter()
    import qduadic.cli as cli
    sampler.stop()
    import_s = time.perf_counter() - t0 - sampler.spent
    import_ref_s = sampler.at_reference(import_s)

    import io
    import resource
    import traceback

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    captured, real_stdout = io.StringIO(), sys.stdout
    sys.stdout = captured
    error = None
    if not trace:
        sampler.start()
    t1 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:
        code, error = None, traceback.format_exc()
    finally:
        if not trace:
            sampler.stop()
        main_s = time.perf_counter() - t1
        sys.stdout = real_stdout
    if not trace:
        main_s -= sampler.spent
    return {
        "import_s": import_s,
        "import_ref_s": import_ref_s,
        "main_s": main_s,
        "main_ref_s": None if trace else sampler.at_reference(main_s),
        "exit": code,
        "error": error,
        "stdout": captured.getvalue(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else None,
    }


if __name__ == "__main__":
    args = sys.argv[1:]
    sep = args.index("--")
    result = run("--trace" in args[:sep], args[sep + 1:])
    import json
    sys.stdout.write(json.dumps(result) + "\n")
