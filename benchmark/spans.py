"""In-memory span recorder and the wrappers that feed it.

The span model follows Dapper (Sigelman et al., 2010): every span has a
name, a start, an end, the span that caused it and the id of the
operation it belongs to.  Spans are kept in a list while the run lasts and
written out as JSON once it ends.

:func:`instrument` wraps the public entry points of every ``vkg`` layer for
the duration of a traced run.  It rebinds module and class attributes in
this process only; no file under ``src/vkg`` is touched.  Every module of
the package that imported a wrapped function by name gets the wrapper too,
so calls the program makes internally (``vkg_search`` -> ``top_k``) nest
under the benchmark's own call.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from itertools import count
from pathlib import Path


class Tracer:
    """Collects spans as ``[id, parent, name, start_ns, end_ns, op, attr, n]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = "setup"
        self._ids = count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, attr=None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread of a parallel execute: its cause is the span
            # the main thread has open
            parent = self._main_stack[-1] if self._main_stack else None
        span = [next(self._ids), parent, name, time.perf_counter_ns(), 0,
                self.op, attr, None]
        stack.append(span[0])
        return span

    def finish(self, span: list, n=None) -> None:
        span[4] = time.perf_counter_ns()
        span[7] = n
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn, name: str, attr=None, n=None):
        """``fn`` recorded as span ``name``; ``attr``/``n`` map (args, result)."""

        def traced(*args, **kwargs):
            span = self.start(name, attr(args, kwargs) if attr else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.finish(span, n(args, result) if n and result is not None else None)

        traced.__wrapped__ = fn
        return traced


def _size(args, result):
    return len(result)


# (module or class, function name, span name, attr(args, kwargs), n(args, result))
def _targets():
    from vkg import embedding, evaluation, ingest, kg, linking, query, rules
    model, graph = embedding.EmbeddingModel, kg.Graph
    return [
        (ingest, "build_corpus", "ingest.build_corpus", None, None),
        (ingest, "preprocess", "ingest.preprocess", None, None),
        (ingest, "extract_triples", "ingest.extract_triples", None, _size),
        (embedding, "train", "embedding.train", None, None),
        (model, "top_k", "embedding.top_k", None, lambda a, r: len(a[0])),
        (model, "save_text", "embedding.save_text", None, None),
        (model, "load_text", "embedding.load_text", None, None),
        (graph, "parse", "kg.parse", None, None),
        (graph, "save", "kg.save", None, None),
        (graph, "to_text", "kg.to_text", None, None),
        (graph, "assert_triple", "kg.assert", None, None),
        (graph, "retract_triple", "kg.retract", None, None),
        (graph, "merge_same_as", "kg.merge_same_as", None, None),
        (graph, "match_pattern", "kg.match_pattern", None, _size),
        (graph, "instances_of", "kg.instances_of", None, _size),
        (graph, "entities", "kg.entities", None, _size),
        (linking, "link_all", "linking.link_all", None, None),
        (linking, "table_from_graph", "linking.table_from_graph", None, None),
        (linking, "reverse_links", "linking.reverse_links", None, None),
        (query, "parse", "query.parse", None, None),
        (query, "decompose", "query.decompose", None, None),
        (query, "execute", "query.execute",
         lambda a, k: "parallel" if k.get("parallel") else "seq", None),
        (query, "vkg_search", "query.vkg_search",
         lambda a, k: a[1] if len(a) > 1 else k.get("class_filter"), _size),
        (query, "format_bindings", "query.format_bindings", None, None),
        (rules, "evaluate", "rules.evaluate", None, None),
        (rules, "load_rules", "rules.load_rules", None, None),
        (evaluation, "evaluate_all", "evaluation.evaluate_all", None, None),
        (evaluation, "evaluate_backend", "evaluation.evaluate_backend",
         lambda a, k: a[0], None),
        (evaluation, "rank_graph", "evaluation.rank_graph", None, None),
        (evaluation, "timing_comparison", "evaluation.timing_comparison", None, None),
    ]


def instrument(tracer: Tracer):
    """Wrap every target for ``tracer``; returns a function that undoes it."""
    undo = []
    for owner, fname, span_name, attr, n in _targets():
        raw = owner.__dict__[fname]
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        wrapper = tracer.wrap(original, span_name, attr, n)
        replacement = classmethod(wrapper) if is_classmethod else wrapper
        # a method lives on its class; a function also in every vkg module
        # that imported it by name
        owners = [owner] if isinstance(owner, type) else [
            mod for name, mod in list(sys.modules.items())
            if (name == "vkg" or name.startswith("vkg.")) and mod is not None
            and getattr(mod, fname, None) is original]
        for mod in owners:
            undo.append((mod, fname, mod.__dict__[fname]))
            setattr(mod, fname, replacement)

    def restore() -> None:
        for mod, fname, previous in reversed(undo):
            setattr(mod, fname, previous)

    return restore


# --- summaries ------------------------------------------------------------------

def self_times(spans: list[list]) -> dict[int, int]:
    """Span id -> duration minus the part of it that its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for s in spans:
        covered, cursor = 0, s[3]
        for start, end in sorted(children.get(s[0], ())):
            start, end = max(start, cursor), min(end, s[4])
            if end > start:
                covered += end - start
                cursor = end
        out[s[0]] = (s[4] - s[3]) - covered
    return out


def summarize(spans: list[list]) -> dict:
    """Per span name and per layer: calls, total and self time."""
    selfs = self_times(spans)
    names: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    for s in spans:
        dur = s[4] - s[3]
        row = names.setdefault(s[2], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0,
                                      "durations": []})
        row["calls"] += 1
        row["total_ms"] += dur / 1e6
        row["self_ms"] += selfs[s[0]] / 1e6
        row["durations"].append(dur)
        layer = layers.setdefault(s[2].split(".", 1)[0], {"calls": 0, "self_ms": 0.0})
        layer["calls"] += 1
        layer["self_ms"] += selfs[s[0]] / 1e6
    for row in names.values():
        row["median_us"] = statistics.median(row.pop("durations")) / 1e3
    return {"names": names, "layers": layers}


def write_json(path: Path, payload: dict, spans: list[list]) -> None:
    payload = dict(payload)
    payload["summary"] = summarize(spans)
    payload["span_fields"] = ["id", "parent", "name", "start_ns", "end_ns", "op",
                              "attr", "n"]
    payload["spans"] = spans
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
