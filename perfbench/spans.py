"""Self times and per-layer metrics from the spans of traced requests.

A span's self time is its duration minus the part of that interval covered by
its child spans, so the self times of one request add up to its root span
(``cli.main``).  Each span's self time counts toward its layer's ``self_s``
and toward at most one bucket of that layer, such as ``distance.enum_s``;
the per-layer metrics are sums over buckets and counters.
"""

from __future__ import annotations

from collections import defaultdict

# a span belongs to the bucket of its nearest ancestor-or-self listed here
_BUCKET_ROOTS = {
    "cyclic.euclidean_dual": "cyclic.dual_s",
    "cyclic.hermitian_dual": "cyclic.dual_s",
    "duadic.find_splittings": "duadic.splitting_s",
    "duadic.splitting_by": "duadic.splitting_s",
    "duadic.default_splitting": "duadic.splitting_s",
    "duadic.degeneracy_certificate": "duadic.certificate_s",
    "distance.min_weight_diffset": "distance.crosscheck_s",
}
_OWN_BUCKET = {
    "cyclic.make_cyclic_code": "cyclic.code_s",
    "duadic.build_quartet": "duadic.quartet_s",
    "distance.support_search_min_weight": "distance.support_s",
    "distance.min_weight": "distance.enum_s",
    "distance.min_odd_like_weight": "distance.enum_s",
    "distance.weight_distribution": "distance.enum_s",
}

# name -> unit, in the order of the report
PER_LAYER = {
    "galois.field_s": "s",
    "galois.fields_built": "count",
    "galois.field_elements": "count",
    "galois.self_s": "s",
    "cyclic.code_s": "s",
    "cyclic.dual_s": "s",
    "cyclic.self_s": "s",
    "duadic.splitting_s": "s",
    "duadic.quartet_s": "s",
    "duadic.certificate_s": "s",
    "duadic.self_s": "s",
    "distance.enum_s": "s",
    "distance.enum_words": "count",
    "distance.char2_words_per_s": "1/s",
    "distance.oddchar_words_per_s": "1/s",
    "distance.crosscheck_s": "s",
    "distance.support_s": "s",
    "distance.support_candidates": "count",
    "distance.support_candidates_per_s": "1/s",
    "distance.self_s": "s",
    "stabilizer.self_s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def _bucket(span: dict, by_id: dict) -> str | None:
    """The metric a span's self time counts toward, besides its layer's
    self_s: set by the nearest bucket root among its ancestors-or-self in the
    same layer, else by its own name."""
    layer = span["name"].split(".")[0]
    node = span
    while node is not None and node["name"].split(".")[0] == layer:
        if node["name"] == "galois.make_field" and node.get("cold"):
            return "galois.field_s"
        if node["name"] in _BUCKET_ROOTS:
            return _BUCKET_ROOTS[node["name"]]
        node = by_id.get(node["parent"])
    return _OWN_BUCKET.get(span["name"])


def request_sums(spans: list[dict]) -> dict[str, float]:
    """Additive per-layer sums for the spans of one request; see
    ``layer_metrics`` for the rates derived from them."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        layer = s["name"].split(".")[0]
        t = selfs[s["id"]]
        out[f"{layer}.self_s"] += t
        bucket = _bucket(s, by_id)
        if bucket is not None:
            out[bucket] += t
        if s["name"] == "galois.make_field" and s.get("cold"):
            out["galois.fields_built"] += 1
            out["galois.field_elements"] += s["order"]
        if bucket == "distance.enum_s":
            kind = "char2" if s.get("p") == 2 else "oddchar"
            out[f"_{kind}_s"] += t
            if s.get("method") == "full_enumeration":
                out["distance.enum_words"] += s["work"]
                out[f"_{kind}_words"] += s["work"]
        if s["name"] == "distance.support_search_min_weight":
            out["distance.support_candidates"] += s["work"]
        if s["parent"] is None:
            out["trace.wall_s"] += s["end"] - s["start"]
    out["trace.spans"] += len(spans)
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(sums: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_s`` from the summed
    ``request_sums`` of one pass."""
    out = {name: float(sums.get(name, 0.0)) for name in PER_LAYER
           if name != "trace.overhead_s"}
    out["distance.char2_words_per_s"] = _rate(sums.get("_char2_words", 0),
                                              sums.get("_char2_s", 0))
    out["distance.oddchar_words_per_s"] = _rate(sums.get("_oddchar_words", 0),
                                                sums.get("_oddchar_s", 0))
    out["distance.support_candidates_per_s"] = _rate(
        out["distance.support_candidates"], out["distance.support_s"])
    return out
