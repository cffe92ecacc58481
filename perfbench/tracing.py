"""Per-layer spans and counters, recorded from outside the package.

:func:`install` wraps the public functions of each ``mbti_szondi`` module
(and the ``ProfileSet`` / ``Interpretation`` / ``PolarityCache`` methods) in
place.  Modules bind each other's functions by name (``from .logic import
models``), so every module-level binding of a wrapped function is replaced,
not only the one in the defining module.  ``evaluate`` recurses through its
own module's binding, so only the bindings in the modules that call it are
wrapped, which counts calls from outside ``logic`` once each.

Spans of the layer entry points (connection, cache, interpretation, CLI)
are kept as records (name, start, end, parent, op) and written out at the
end.  ``ProfileSet`` operations, ``models``, ``parse_formula`` and
``row_set`` run thousands of times per operation, so they are aggregated
(calls, total and self time per name and per root span) instead of kept
one by one.  ``Box`` methods are not wrapped at all: ``Box.intersect``
runs hundreds of thousands of times per verification and its wrapper would
swamp what it measures.  A span's self time is its duration minus the
durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

STORE, AGGREGATE, COUNT = "store", "aggregate", "count"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.stats: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[list] = []  # [child_ns, nearest stored span, root name]

    def wrap(self, fn, name: str, mode: str, after=None):
        spans, stats, stack, counts = self.spans, self.stats, self._stack, self.counts
        clock = time.perf_counter_ns

        if mode == COUNT:

            def counted(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(counts, result, args)
                return result

            return counted

        def traced(*args, **kwargs):
            counts[name] += 1
            parent = stack[-1] if stack else None
            index = parent[1] if parent else -1
            if mode == STORE:
                spans.append([name, 0, 0, index, self.op])
                index = len(spans) - 1
            frame = [0, index, parent[2] if parent else name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                entry = stats[(name, frame[2])]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if mode == STORE:
                    spans[index][1] = start
                    spans[index][2] = end
            if after is not None:
                after(counts, result, args)
            return result

        return traced

    def dump(self, path) -> None:
        """Write spans, aggregated stats and counters as one JSON document."""
        payload = {
            "spans": self.spans,
            "stats": [[name, root, *entry] for (name, root), entry in self.stats.items()],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _cases(counts, result, args) -> None:
    counts["connection.cases_checked"] += sum(check.trials for check in result)


def _kernel(counts, result, args) -> None:
    counts["connection.kernel_classes_found"] += len(result)
    counts["connection.kernel_sets_computed"] += 1 << 16


def _cache_bytes(counts, result, args) -> None:
    counts["cache.bytes"] += os.path.getsize(result)
    counts["cache.entries_written"] += 1 << 16


def _boxes(counts, result, args) -> None:
    counts["boxes.boxes_in_sets"] += len(args[0].boxes)


# (module, attribute, span name, mode, after-hook)
TARGETS = (
    ("cli", "main", "cli.main", STORE, None),
    ("connection", "right_polarity", "connection.right_polarity", STORE, None),
    ("connection", "left_polarity", "connection.left_polarity", STORE, None),
    ("connection", "closure_left", "connection.closure_left", STORE, None),
    ("connection", "all_right_polarities", "connection.all_right_polarities", STORE, None),
    ("connection", "kernel_classes", "connection.kernel_classes", STORE, _kernel),
    ("connection", "verify_facts", "connection.verify_facts", STORE, _cases),
    ("connection", "verify_lemma", "connection.verify_lemma", STORE, _cases),
    ("connection", "verify_theorem", "connection.verify_theorem", STORE, _cases),
    ("connection", "run_verification", "connection.run_verification", STORE, None),
    ("cache", "write_cache", "cache.write", STORE, _cache_bytes),
    ("cache", "open_cache", "cache.open", STORE, None),
    ("cache", "PolarityCache.lookup", "cache.lookup", STORE, None),
    ("interpret", "builtin_interpretation", "interpret.builtin", STORE, None),
    ("interpret", "load_interpretation", "interpret.load", STORE, None),
    ("interpret", "Interpretation.fingerprint", "interpret.fingerprint", STORE, None),
    ("interpret", "Interpretation.row_set", "interpret.row_set", AGGREGATE, None),
    ("logic", "models", "logic.models", AGGREGATE, None),
    ("logic", "parse_formula", "logic.parse", AGGREGATE, None),
    ("logic", "evaluate", "logic.evaluate", COUNT, None),
    ("boxes", "ProfileSet.intersect", "boxes.intersect", AGGREGATE, None),
    ("boxes", "ProfileSet.union", "boxes.union", AGGREGATE, None),
    ("boxes", "ProfileSet.subtract", "boxes.subtract", AGGREGATE, None),
    ("boxes", "ProfileSet.issubset", "boxes.issubset", AGGREGATE, None),
    ("boxes", "ProfileSet.__init__", "boxes.sets_built", COUNT, _boxes),
)


def install(tracer: Tracer, package) -> None:
    """Wrap every target in the imported ``package`` (``mbti_szondi``)."""
    modules = [
        module
        for name, module in sys.modules.items()
        if module is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
    ]
    for module_name, attribute, name, mode, after in TARGETS:
        home = sys.modules.get(f"{package.__name__}.{module_name}")
        if home is None:  # not imported by this process (the CLI in a worker)
            continue
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(home, cls_name)
            if method == "row_set":
                setattr(cls, method, _row_set_wrapper(tracer, getattr(cls, method)))
            else:
                setattr(cls, method, tracer.wrap(getattr(cls, method), name, mode, after))
            continue
        original = getattr(home, attribute)
        wrapped = tracer.wrap(original, name, mode, after)
        for module in modules:
            if module is home and attribute == "evaluate":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def _row_set_wrapper(tracer: Tracer, method):
    """Count ``row_set`` calls that had to compile the row (memo misses)."""
    traced = tracer.wrap(method, "interpret.row_set", AGGREGATE)
    counts = tracer.counts

    def row_set(self, indicator):
        before = counts["logic.models"]
        result = traced(self, indicator)
        if counts["logic.models"] != before:
            counts["interpret.row_set_misses"] += 1
        return result

    return row_set


def merge(payloads):
    """Spans, per-(name, root) stats and counters of several dumps combined."""
    spans: list[list] = []
    stats: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
    counts: Counter = Counter()
    for payload in payloads:
        offset = len(spans)
        for name, start, end, parent, op in payload["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        for name, root, *entry in payload["stats"]:
            totals = stats[(name, root)]
            for position, value in enumerate(entry):
                totals[position] += value
        counts.update(payload["counts"])
    return spans, stats, counts


def _is_compute(name: str) -> bool:
    """Spans that compute answers; opening or writing a table is I/O."""
    return name.startswith("connection.") or name == "cache.lookup"


def summarize(payloads, op_wall_ns: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced operations: name -> (value, unit).

    Times are totals over the traced operations; ``op_wall_ns`` is the
    traced operations' wall time.  ``logic.models_ms`` is self time (without
    the box algebra it calls); ``logic.models_share`` is the share of the
    wall time spent inside ``models`` calls, box algebra included.
    """
    spans, stats, counts = merge(payloads)
    by_name: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    verify_self: Counter = Counter()
    for (name, root), entry in stats.items():
        totals = by_name[name]
        for position, value in enumerate(entry):
            totals[position] += value
        if root == "connection.run_verification":
            verify_self[name.split(".")[0]] += entry[2]

    def total_ms(name):
        return by_name[name][1] / 1e6

    # Compute time not already inside another compute span.
    inside, compute_ns = [], 0
    for name, start, end, parent, _ in spans:
        outer = parent >= 0 and inside[parent]
        inside.append(outer or _is_compute(name))
        if _is_compute(name) and not outer:
            compute_ns += end - start
    row_sets = counts["interpret.row_set"]
    sets = counts["boxes.sets_built"]
    kernel_sets = counts["connection.kernel_sets_computed"]
    entries = counts["cache.entries_written"]
    verify_ns = by_name["connection.run_verification"][1]
    models_ns = by_name["logic.models"]
    out = {
        "interpret.row_set_calls": (row_sets, "count"),
        "interpret.row_set_hit_ratio": (1 - counts["interpret.row_set_misses"] / row_sets if row_sets else 0.0, "ratio"),
        "interpret.fingerprint_calls": (counts["interpret.fingerprint"], "count"),
        "interpret.fingerprint_ms": (total_ms("interpret.fingerprint"), "ms"),
        "interpret.load_calls": (counts["interpret.load"], "count"),
        "interpret.load_ms": (total_ms("interpret.load"), "ms"),
        "logic.models_calls": (counts["logic.models"], "count"),
        "logic.models_ms": (models_ns[2] / 1e6, "ms"),
        "logic.models_share": (models_ns[1] / op_wall_ns, "ratio"),
        "logic.evaluate_calls": (counts["logic.evaluate"], "count"),
        "logic.parse_ms": (total_ms("logic.parse"), "ms"),
        "boxes.sets_built": (sets, "count"),
        "boxes.boxes_per_set": (counts["boxes.boxes_in_sets"] / sets if sets else 0.0, "count"),
        "connection.cases_checked": (counts["connection.cases_checked"], "count"),
        "connection.distinct_ratio": (
            counts["connection.kernel_classes_found"] / kernel_sets if kernel_sets else 0.0,
            "ratio",
        ),
        "connection.all_right_polarities_ms": (total_ms("connection.all_right_polarities"), "ms"),
        "connection.kernel_classes_ms": (total_ms("connection.kernel_classes"), "ms"),
        "connection.verify_facts_s": (total_ms("connection.verify_facts") / 1e3, "s"),
        "connection.verify_lemma_s": (total_ms("connection.verify_lemma") / 1e3, "s"),
        "connection.verify_theorem_s": (total_ms("connection.verify_theorem") / 1e3, "s"),
        "cache.write_ms": (total_ms("cache.write"), "ms"),
        "cache.open_ms": (total_ms("cache.open"), "ms"),
        "cache.lookup_calls": (counts["cache.lookup"], "count"),
        "cache.lookup_ms": (total_ms("cache.lookup"), "ms"),
        "cache.bytes": (counts["cache.bytes"], "bytes"),
        "cache.bytes_per_entry": (counts["cache.bytes"] / entries if entries else 0.0, "bytes"),
        "cli.main_calls": (counts["cli.main"], "count"),
        "cli.compute_share": (compute_ns / op_wall_ns, "ratio"),
        "trace.spans": (len(spans), "count"),
    }
    for op in ("intersect", "union", "subtract", "issubset"):
        out[f"boxes.{op}_calls"] = (counts[f"boxes.{op}"], "count")
        out[f"boxes.{op}_ms"] = (total_ms(f"boxes.{op}"), "ms")
    for op in ("right_polarity", "left_polarity"):
        out[f"connection.{op}_calls"] = (counts[f"connection.{op}"], "count")
        out[f"connection.{op}_ms"] = (total_ms(f"connection.{op}"), "ms")
    if verify_ns:
        out["logic.models_share_of_verify"] = (
            sum(e[1] for (n, r), e in stats.items() if n == "logic.models" and r == "connection.run_verification")
            / verify_ns,
            "ratio",
        )
        for layer, self_ns in verify_self.items():
            out[f"verify.self_share.{layer}"] = (self_ns / verify_ns, "ratio")
    mains: dict[str, list[int]] = defaultdict(list)
    for name, start, end, _, op in spans:
        if name == "cli.main":
            mains[op].append(end - start)
    for command, durations in mains.items():
        out[f"cli.main_ms.{command}"] = (statistics.median(durations) / 1e6, "ms")
    return out
