"""Span tracing for the traced pass, from the benchmark's own code.

``install`` replaces lenspp's layer functions at the module attributes their
callers look up (``lenspp.classify._transported``, ``lenspp.classify.is_free``,
...) with wrappers that record one span per call: name, start, end and the
span that was open when the call began.  Nothing under ``src/`` changes.  A
layer's self time is its spans' duration minus the time their child spans
cover.  Spans live in flat arrays of about 26 bytes per span, so the ~3.3 M
spans of a traced census_p5 take ~85 MB.

``cache_sizes`` reads lenspp's module-global caches through the original
objects captured at import, so it works before and after ``install``.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

from lenspp import actions, census, classify, cli, forms, gfp, pontrjagin, quotient_ring

# The module caches a cold process starts without; captured before any wrapping.
_LRU_CACHES = {
    "substitution_matrix": forms.substitution_matrix,
    "transported": classify._transported,
    "min_fingerprint": census._min_fingerprint,
}


def cache_sizes() -> dict[str, int]:
    sizes = {"orbits": sum(len(orbit) for orbit in classify._ORBITS.values())}
    for name, fn in _LRU_CACHES.items():
        sizes[name] = fn.cache_info().currsize
    return sizes


class Tracer:
    """In-memory span store plus plain counters, for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Wrap fn so every call records a span called name."""
        nid = self._id(name)
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = self.span_start.append, self.span_end.append
        starts, ends, stack, clock = self.span_start, self.span_end, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def counted(self, name: str, fn):
        """Wrap fn so every call adds one to counts[name]; no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, sites, make) -> None:
        """Replace owner.attr at every (owner, attr) site by make(original);
        one wrapper per distinct original, so a function imported into several
        modules is wrapped once."""
        wrappers: dict[int, object] = {}
        for owner, attr in sites:
            original = getattr(owner, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = make(original)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_times(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)}."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        cover = array("d", bytes(8 * n))
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                cover[parent] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, start, end, covered in zip(self.span_name, starts, ends, cover):
            calls[nid] += 1
            self_s[nid] += end - start - covered
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": [["name", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
            "clock": "time.perf_counter seconds",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


# Span name -> the (module, attribute) sites callers look the function up at.
SPANS = {
    "cli.main": [(cli, "main")],
    "census.run_census": [(census, "run_census"), (cli, "run_census")],
    "census.scan": [(census, "_census_chunk")],
    "census.rank2": [(census, "_rank2")],
    "census.free_by_planes": [(census, "_free_by_planes")],
    "census.classify_item": [(census, "_classify_item")],
    "census.write": [(census, "write_census"), (cli, "write_census")],
    "census.verify_application": [(census, "verify_application"), (cli, "verify_application")],
    "classify.homeomorphic": [(classify, "homeomorphic"), (census, "homeomorphic"), (cli, "homeomorphic")],
    "classify.transport": [(classify, "_transported")],
    "forms.apply_matrix": [(forms, "apply_matrix"), (classify, "apply_matrix"), (census, "apply_matrix")],
    "forms.product_of_linear_forms": [(forms, "product_of_linear_forms"), (census, "product_of_linear_forms")],
    "gfp.is_odd_prime": [(gfp, "is_odd_prime")],
    "gfp.rref_with_pivots": [(gfp, "rref_with_pivots"), (quotient_ring, "rref_with_pivots")],
    "pontrjagin.total_pontrjagin_raw": [
        (pontrjagin, "total_pontrjagin_raw"),
        (classify, "total_pontrjagin_raw"),
        (census, "total_pontrjagin_raw"),
    ],
    "actions.is_free": [(actions, "is_free"), (classify, "is_free")],
    "quotient_ring.reduce": [(quotient_ring.CohomRingModel, "reduce")],
}

# Counter name -> sites; these count calls without recording spans.
COUNTED = {
    "forms.HomogeneousForm.created": [(forms.HomogeneousForm, "__post_init__")],
    "quotient_ring.CohomRingModel.built": [(quotient_ring.CohomRingModel, "__init__")],
    "actions.validate.calls": [(actions, "validate"), (cli, "validate")],
    "classify.transport.span_matched": [(classify, "_mix_solver")],
}


def install(tracer: Tracer) -> None:
    for name, sites in SPANS.items():
        tracer.patch(sites, lambda fn, name=name: tracer.span(name, fn))
    for name, sites in COUNTED.items():
        tracer.patch(sites, lambda fn, name=name: tracer.counted(name, fn))
    counts = tracer.counts

    def canonicalize(fn):
        traced = tracer.span("classify.canonicalize", fn)

        def wrapper(p, n, key):
            orbit = classify._ORBITS.get((p, n))
            if orbit is None or key not in orbit:
                counts["classify.canonicalize.bfs"] += 1
            return traced(p, n, key)

        return wrapper

    def decide(fn):
        traced = tracer.span("classify.decide", fn)

        def wrapper(X, Y, level, marked=False, class_check=None):
            if class_check is not None:
                class_check = tracer.span("classify.class_check", class_check)
            verdict = traced(X, Y, level, marked, class_check)
            counts["classify.decide.checked_pairs"] += verdict.checked_pairs
            return verdict

        return wrapper

    tracer.patch([(classify, "_canonicalize"), (census, "_canonicalize")], canonicalize)
    tracer.patch([(classify, "_decide")], decide)


def layer_metrics(tracer: Tracer, caches_end: dict[str, int]) -> dict[str, float]:
    """Every per-layer number of one traced run, by metric name."""
    times = tracer.layer_times()
    metrics: dict[str, float] = {}
    for name in [*SPANS, "classify.canonicalize", "classify.decide", "classify.class_check"]:
        calls, self_s = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    metrics.update({name: tracer.counts[name] for name in COUNTED})
    metrics["classify.canonicalize.bfs"] = tracer.counts["classify.canonicalize.bfs"]
    metrics["classify.decide.checked_pairs"] = tracer.counts["classify.decide.checked_pairs"]

    tested = metrics["census.rank2.calls"]
    metrics["census.free_yield"] = metrics["census.classify_item.calls"] / tested if tested else 0.0
    scanned = metrics["classify.transport.calls"]
    metrics["classify.transport.scanned"] = scanned
    metrics["classify.transport.useful_ratio"] = (
        metrics["classify.transport.span_matched"] / scanned if scanned else 0.0
    )
    metrics["classify.orbit_entries"] = caches_end["orbits"]
    for cache, prefix in (
        ("transported", "classify.transported"),
        ("substitution_matrix", "forms.substitution_matrix"),
        ("min_fingerprint", "census.min_fingerprint"),
    ):
        info = _LRU_CACHES[cache].cache_info()
        metrics[f"{prefix}.hits"] = info.hits
        metrics[f"{prefix}.misses"] = info.misses
        metrics[f"{prefix}.size"] = info.currsize
    return metrics
