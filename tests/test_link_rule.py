"""Differential tests of the hasVector link rule.

``link_all`` only retracts stale link triples and asserts missing ones.  Its
oracle is the rebuild it replaced: retract every link, then assert one per
entity in the vocabulary.  Both run over random sequences of type
asserts/retracts, relation asserts/retracts, stray link triples, sameAs
merges and model swaps.  ``vkg_search``, which reads identity links only, is
checked against a full-vocabulary scan over random merges and tied vectors.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vkg import datasets
from vkg.embedding import EmbeddingModel
from vkg.kg import Graph, Literal
from vkg.linking import HAS_VECTOR, LinkTable, link_all, table_from_graph
from vkg.query import vkg_search

FUZZ = settings(max_examples=200, deadline=None, database=None, derandomize=True)

WORDS = ["aa", "bb", "cc", "dd", "ee"]
CLASSES = ["product", "software", "vulnerability"]


def model_over(tokens) -> EmbeddingModel:
    tokens = sorted(tokens)
    return EmbeddingModel(tokens, np.arange(1.0, 2 * len(tokens) + 1).reshape(-1, 2))


def rebuild_links(graph: Graph, model: EmbeddingModel, model_version: int = 1) -> LinkTable:
    """``link_all`` before it kept the links in sync: retract all, re-assert each."""
    for t in [t for t in graph if t.predicate == HAS_VECTOR]:
        graph.retract_triple(t.subject, t.predicate, t.object)
    links: dict[str, str] = {}
    unlinked: set[str] = set()
    for entity in sorted(graph.entities()):
        if entity in model:
            links[entity] = entity
            graph.assert_triple(entity, HAS_VECTOR, Literal(entity))
        else:
            unlinked.add(entity)
    return LinkTable(MappingProxyType(links), frozenset(unlinked), model_version)


word = st.sampled_from(WORDS)
step = st.one_of(
    st.tuples(st.just("tag"), word, st.sampled_from(CLASSES)),
    st.tuples(st.just("untag"), word, st.sampled_from(CLASSES)),
    st.tuples(st.just("relate"), word, word),
    st.tuples(st.just("unrelate"), word, word),
    st.tuples(st.just("stray"), word, word),
    st.tuples(st.just("merge"), word, word),
    st.tuples(st.just("model"), st.frozensets(st.sampled_from(WORDS + ["zz"]), min_size=1)),
)


def apply(graph: Graph, kind: str, a, b) -> None:
    if kind == "tag":
        graph.assert_triple(a, "type", b)
    elif kind == "untag":
        graph.retract_triple(a, "type", b)
    elif kind == "relate":
        graph.assert_triple(a, "hasVulnerability", b)
    elif kind == "unrelate":
        graph.retract_triple(a, "hasVulnerability", b)
    elif kind == "stray":
        graph.assert_triple(a, HAS_VECTOR, Literal(b))
    elif kind == "merge":
        graph.merge_same_as(a, b)


@FUZZ
@given(steps=st.lists(step, max_size=25))
def test_link_all_matches_the_rebuild_oracle(steps):
    schema = datasets.security_schema()
    graph, mirror = Graph(schema), Graph(schema)
    model = model_over(WORDS[:3])
    for kind, *args in steps:
        if kind == "model":
            model = model_over(args[0])
        else:
            apply(graph, kind, *args)
            apply(mirror, kind, *args)
        got = link_all(graph, model)
        want = rebuild_links(mirror, model)
        assert graph.to_text() == mirror.to_text()
        assert dict(got.links) == dict(want.links)
        assert got.unlinked == want.unlinked
        read = table_from_graph(graph, model)
        assert dict(read.links) == dict(got.links)
        assert read.unlinked == got.unlinked
    text = graph.to_text()
    link_all(graph, model)
    assert graph.to_text() == text


def search_oracle(term, class_filter, k, graph, model, table):
    """Full scan; keep linked tokens outside the query's sameAs class that
    pass the filter, under their canonical name, first occurrence each."""
    own = graph.canonical(term)
    allowed = None if class_filter is None else graph.instances_of(class_filter)
    out, seen = [], set()
    for token, score in model.top_k(term, len(model)):
        entity = graph.canonical(token)
        if token not in table.links or entity == own or entity in seen:
            continue
        if allowed is None or entity in allowed:
            seen.add(entity)
            out.append((entity, score))
    return out[:k]


VOCAB = WORDS + ["q", "zz"]


@FUZZ
@given(
    tags=st.dictionaries(word, st.sampled_from(CLASSES + [None])),
    merges=st.lists(st.tuples(word, word), max_size=4),
    coords=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                    min_size=len(VOCAB), max_size=len(VOCAB)),
    term=st.sampled_from(VOCAB),
    class_filter=st.sampled_from([None, "product", "vulnerability"]),
    k=st.integers(1, 8),
)
def test_search_matches_a_full_scan(tags, merges, coords, term, class_filter, k):
    graph = Graph(datasets.security_schema())
    for w, cls in tags.items():
        if cls is None:   # an untyped entity, next to one outside the vocabulary
            graph.assert_triple(w, "hasVulnerability", "vv")
        else:
            graph.assert_triple(w, "type", cls)
    vectors = np.array([c if c != (0, 0) else (1, 0) for c in coords], dtype=float)
    model = EmbeddingModel(VOCAB, vectors)
    table = link_all(graph, model)
    for a, b in merges:
        graph.merge_same_as(a, b)
    assert (vkg_search(term, class_filter, k, graph, model, table)
            == search_oracle(term, class_filter, k, graph, model, table))
