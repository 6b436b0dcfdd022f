"""MAP evaluation of the three similarity backends, timing, and the sweep.

Backends: ``graph`` ranks by (predicate, neighbor) Jaccard overlap,
``vector`` by plain cosine neighborhood, ``vkg`` by class-filtered cosine
neighborhood.  Every member of a similarity group is used as a query
against the others, per-group average precision is the mean over member
queries, and MAP is the mean over groups.  Absolute scores are corpus
specific; what carries over from corpus to corpus is the ordering.
"""

from __future__ import annotations

import heapq
import json
import logging
import statistics
import time
from dataclasses import dataclass, replace
from typing import Sequence

from . import embedding
from .embedding import EmbeddingModel, TrainingConfig
from .errors import (CorpusFormatError, EmptyRelevantSetError, EmptyVocabularyError,
                     VkgError)
from .kg import Graph, normalize
from .linking import LinkTable
from .query import vkg_search

logger = logging.getLogger(__name__)

BACKENDS = ("graph", "vector", "vkg")

GROUP_KINDS = frozenset({"vulnerability", "attack", "product"})


@dataclass(frozen=True)
class SimilarityGroup:
    name: str
    kind: str
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in GROUP_KINDS:
            raise CorpusFormatError(
                f"group '{self.name}': unknown kind '{self.kind}'")
        if len(self.members) < 2:
            raise CorpusFormatError(f"group '{self.name}': needs >= 2 members")
        if len(set(self.members)) != len(self.members):
            raise CorpusFormatError(f"group '{self.name}': duplicate members")


def load_groups(path) -> list[SimilarityGroup]:
    """JSON array of {name, kind, members} objects; members is a list of strings."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"groups file {path}: invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise CorpusFormatError(f"groups file {path} must hold a JSON array")
    groups = []
    for obj in data:
        try:
            members = obj["members"]
            if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
                raise TypeError(f"members must be a list of strings, got {members!r}")
            groups.append(SimilarityGroup(obj["name"], obj["kind"],
                                          tuple(normalize(m) for m in members)))
        except (KeyError, TypeError) as exc:
            raise CorpusFormatError(f"groups file {path}: malformed group entry: {exc}") from None
        except VkgError as exc:
            raise CorpusFormatError(f"groups file {path}: {exc}") from None
    return groups


def average_precision(ranking: Sequence[str], relevant: set[str]) -> float:
    """Mean of precision-at-rank over the ranks holding relevant items.

    Normalized by |relevant|, so relevant items missing from a truncated
    ranking count as misses.
    """
    if not relevant:
        raise EmptyRelevantSetError("relevant set must be non-empty")
    if len(set(ranking)) != len(ranking):
        raise ValueError("ranking contains duplicates")
    hits = 0
    precision_sum = 0.0
    for rank, item in enumerate(ranking, start=1):
        if item in relevant:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / len(relevant)


# --- backend rankings -----------------------------------------------------------

def rank_graph(graph: Graph, query: str, k: int,
               universe: Sequence[str] | None = None) -> list[str]:
    """Entities ranked by Jaccard graph similarity to the query.

    Descending score, ties by name.  A member sharing no (predicate,
    neighbor) pair with the query scores 0.0.  The others are scored in
    descending order of c, the number of the query's pairs pq they share
    (``Graph._overlaps``), each from c and its pair count
    (``Graph._pair_count``); c / len(pq) bounds every score not yet computed,
    so the walk stops once k members score strictly above the next bound.
    Without a universe every entity is a member: a counted node's members
    are the entities of its sameAs class (``Graph._entity_members``), and
    ``Graph.entities`` is read for the zero-score fill only when the walk
    never stops.
    """
    c = graph.resolve(query)
    if k <= 0:
        return []
    pq, counts = graph._overlaps(c)
    if universe is None:
        members, zeros = graph._entity_members, None
    else:
        groups: dict[str, list[str]] = {c: []}   # c and counted canonicals -> members
        zeros = []
        for other in universe:
            oc = graph.resolve(other)
            if oc == c or oc in counts:
                groups.setdefault(oc, []).append(other)
            else:
                zeros.append((0.0, other))
        members = groups.get
    ranked = [(-1.0, other) for other in members(c) if other != query]  # (-score, member)
    best = [1.0] * min(k, len(ranked))  # min-heap of the k highest scores so far
    for oc in sorted(counts, key=counts.__getitem__, reverse=True):
        n = counts[oc]
        if len(best) == k and best[0] > n / len(pq):
            break
        group = members(oc)
        if group:
            score = n / (len(pq) + graph._pair_count(oc) - n)
            for other in group:
                ranked.append((-score, other))
                (heapq.heappush if len(best) < k else heapq.heappushpop)(best, score)
    else:
        if zeros is None:   # every entity the walk did not score
            zeros = [(0.0, other) for other in
                     graph.entities() - {other for _, other in ranked} - {query}]
        ranked += zeros
    return [other for _, other in heapq.nsmallest(k, ranked)]


def rank_vector(model: EmbeddingModel, query: str, k: int) -> list[str]:
    return [token for token, _ in model.top_k(query, k)]


def rank_vkg(graph: Graph, model: EmbeddingModel, links: LinkTable, query: str,
             k: int, class_name: str | None = None) -> list[str]:
    return [entity for entity, _ in
            vkg_search(query, class_name, k, graph, model, links)]


@dataclass
class BackendReport:
    backend: str
    per_group: dict[str, float]
    map_score: float
    skipped: list[tuple[str, str]]
    elapsed: float


@dataclass
class EvalReport:
    backends: dict[str, BackendReport]
    wins: dict[str, float]
    group_count: int


def evaluate_backend(backend: str, groups: Sequence[SimilarityGroup],
                     graph: Graph | None, model: EmbeddingModel | None,
                     links: LinkTable | None, k: int = 10,
                     kind_to_class: dict[str, str] | None = None) -> BackendReport:
    """Per-group AP and MAP for one backend.

    A member absent from the backend's universe is recorded and skipped as
    a query (it still counts as a relevant target for the others).  The
    vkg backend maps each group's kind to a class filter.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend '{backend}'")
    kind_to_class = kind_to_class or {kind: kind for kind in GROUP_KINDS}
    per_group: dict[str, float] = {}
    skipped: list[tuple[str, str]] = []
    start = time.perf_counter()
    if backend == "graph":
        known, where = graph.entities(), "graph"
    else:
        known, where = model, "vocabulary"
    rank = {
        "graph": lambda member, kind: rank_graph(graph, member, k),
        "vector": lambda member, kind: rank_vector(model, member, k),
        "vkg": lambda member, kind: rank_vkg(graph, model, links, member, k,
                                             kind_to_class.get(kind)),
    }[backend]
    for group in groups:
        aps = []
        for member in group.members:
            if member not in known:
                skipped.append((group.name, member))
                logger.warning("%s backend: '%s' not in %s, query skipped",
                               backend, member, where)
                continue
            relevant = set(group.members) - {member}
            aps.append(average_precision(rank(member, group.kind), relevant))
        if aps:
            per_group[group.name] = sum(aps) / len(aps)
    elapsed = time.perf_counter() - start
    map_score = sum(per_group.values()) / len(per_group) if per_group else 0.0
    return BackendReport(backend, per_group, map_score, skipped, elapsed)


def evaluate_all(groups: Sequence[SimilarityGroup], graph: Graph,
                 model: EmbeddingModel, links: LinkTable, k: int = 10,
                 kind_to_class: dict[str, str] | None = None) -> EvalReport:
    """All three backends plus per-group win counts (ties split evenly)."""
    reports = {
        backend: evaluate_backend(backend, groups, graph, model, links, k,
                                  kind_to_class)
        for backend in BACKENDS
    }
    scored_groups = [
        g.name for g in groups
        if all(g.name in reports[b].per_group for b in BACKENDS)
    ]
    wins = {backend: 0.0 for backend in BACKENDS}
    for name in scored_groups:
        best = max(reports[b].per_group[name] for b in BACKENDS)
        winners = [b for b in BACKENDS if reports[b].per_group[name] == best]
        for b in winners:
            wins[b] += 1.0 / len(winners)
    return EvalReport(backends=reports, wins=wins, group_count=len(scored_groups))


# --- timing ---------------------------------------------------------------------

@dataclass
class TimingResult:
    vector_median: float
    graph_median: float
    ratio: float           # graph / vector; > 1 means the vector side is faster
    below_floor: bool      # either median under 1 ms: too small to compare
    runs: int


def timing_comparison(groups: Sequence[SimilarityGroup], graph: Graph,
                      model: EmbeddingModel, links: LinkTable, k: int = 10,
                      runs: int = 5) -> TimingResult:
    """Median wall time of all member queries per backend, vector vs graph.

    One warm-up run per backend is discarded.  Medians under 1 ms set
    ``below_floor``; the ratio is then too noisy to assert anything.
    """
    queries = [m for g in groups for m in g.members if m in model]
    universe = sorted(graph.entities())
    universe_set = set(universe)
    graph_queries = [m for g in groups for m in g.members if m in universe_set]

    def vector_pass() -> None:
        for q in queries:
            model.top_k(q, k)

    def graph_pass() -> None:
        for q in graph_queries:
            rank_graph(graph, q, k, universe)

    vector_times, graph_times = [], []
    vector_pass()
    graph_pass()
    for _ in range(max(5, runs)):
        t0 = time.perf_counter()
        vector_pass()
        vector_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        graph_pass()
        graph_times.append(time.perf_counter() - t0)
    vector_median = statistics.median(vector_times)
    graph_median = statistics.median(graph_times)
    ratio = graph_median / vector_median if vector_median > 0 else float("inf")
    return TimingResult(
        vector_median=vector_median,
        graph_median=graph_median,
        ratio=ratio,
        below_floor=min(vector_median, graph_median) < 1e-3,
        runs=max(5, runs),
    )


# --- hyperparameter sweep --------------------------------------------------------

@dataclass
class SweepRow:
    dimension: int
    min_count: int
    map_vector: float | None   # None when nothing survives min_count


def sweep(sentences: Sequence[Sequence[str]], groups: Sequence[SimilarityGroup],
          base: TrainingConfig, dimensions: Sequence[int] = (16, 32, 64),
          min_counts: Sequence[int] = (1, 2, 5), k: int = 10) -> list[SweepRow]:
    """Reduced hyperparameter sweep: vector-backend MAP per combination."""
    rows = []
    for dimension in dimensions:
        for min_count in min_counts:
            cfg = replace(base, dimension=dimension, min_count=min_count)
            try:
                model = embedding.train(sentences, cfg)
            except EmptyVocabularyError:
                rows.append(SweepRow(dimension, min_count, None))
                continue
            report = evaluate_backend("vector", groups, None, model, None, k)
            rows.append(SweepRow(dimension, min_count,
                                 report.map_score if report.per_group else None))
    return rows


# --- reporting --------------------------------------------------------------------

def render_report(report: EvalReport) -> str:
    """Human-readable table: one row per group, then MAP / wins / time."""
    names = sorted({n for b in report.backends.values() for n in b.per_group})
    width = max([len(n) for n in names] + [10]) + 2
    lines = [
        "".join(["group".ljust(width)] + [b.rjust(9) for b in BACKENDS]),
    ]
    for name in names:
        cells = []
        for backend in BACKENDS:
            ap = report.backends[backend].per_group.get(name)
            cells.append(("-" if ap is None else f"{ap:.4f}").rjust(9))
        lines.append("".join([name.ljust(width)] + cells))
    lines.append("".join(
        ["MAP".ljust(width)]
        + [f"{report.backends[b].map_score:.4f}".rjust(9) for b in BACKENDS]))
    lines.append("".join(
        ["wins".ljust(width)]
        + [f"{report.wins[b]:.1f}".rjust(9) for b in BACKENDS]))
    lines.append("".join(
        ["time_s".ljust(width)]
        + [f"{report.backends[b].elapsed:.3f}".rjust(9) for b in BACKENDS]))
    return "\n".join(lines) + "\n"


def report_to_json(report: EvalReport) -> dict:
    return {
        "group_count": report.group_count,
        "wins": report.wins,
        "backends": {
            backend: {
                "map": br.map_score,
                "per_group": br.per_group,
                "skipped": [list(pair) for pair in br.skipped],
                "elapsed_seconds": br.elapsed,
            }
            for backend, br in report.backends.items()
        },
    }
