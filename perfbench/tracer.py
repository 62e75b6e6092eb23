"""Outside-in tracer: wraps the public functions of each qduadic module and
records one span per call, in memory.

Nothing under ``src/`` knows about it.  ``install`` replaces every public
module-level function of the seven layers, and every name the other modules
bound to it by ``from .x import f``, with a wrapper that records
``{id, parent, name, start, end}`` plus the counters the return value carries:
``work`` and ``method`` of a ``DistanceResult``, the characteristic ``p`` of
the code a distance function scanned, ``order`` of a field from
``make_field``, and whether an ``lru_cache`` call was a miss (``cold``).
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("galois", "cyclic", "duadic", "distance", "stabilizer", "verify",
          "cli")


def _counters(name: str, args, result) -> dict:
    out = {}
    if name == "galois.make_field":
        out["order"] = result.order
    elif name.startswith("distance."):
        field = getattr(args[0], "field", None) if args else None
        if field is not None:
            out["p"] = field.p
        if name == "distance.weight_distribution":
            out["work"] = sum(result.values())
            out["method"] = "full_enumeration"
        elif hasattr(result, "work"):
            out["work"] = result.work
            out["method"] = result.method
    return out


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1] if stack else None,
                    "name": name}
            spans.append(span)
            stack.append(span["id"])
            misses = cache_info().misses if cache_info else 0
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = clock()
                stack.pop()
            if cache_info:
                span["cold"] = cache_info().misses > misses
            span.update(_counters(name, args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layers, where it is defined and
        wherever another module imported it by name."""
        modules = {layer: importlib.import_module(f"qduadic.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in [*modules.values(), importlib.import_module("qduadic")]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
