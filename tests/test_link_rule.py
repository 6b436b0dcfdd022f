"""Differential tests of the hasVector link rule.

``link_all`` only retracts stale link triples and asserts missing ones.  Its
oracle is the rebuild it replaced: retract every link, then assert one per
entity in the vocabulary.  Both run over random sequences of type
asserts/retracts, relation asserts/retracts, stray link triples, direct
unlinks, sameAs merges, class declarations, snapshots and model swaps.  The
mask of linked rows that each built table carries must equal
``row_mask(links)``, no later write may change an earlier table, and a table
used with another model, or built by hand without a mask, must search as a
fresh one does.  After a first ``link_all``, a write is relinked by
revisiting the nodes it touched, without a full pass.
``vkg_search``, which reads identity links only, is checked against a
full-vocabulary scan over random merges and tied vectors.  Its class rows,
cached per graph, must search as rows built afresh do after any write.
"""

from __future__ import annotations

import weakref
from contextlib import suppress
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vkg import datasets, linking, query
from vkg.embedding import EmbeddingModel
from vkg.errors import SchemaError, VkgError
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
    st.tuples(st.just("unlink"), word),
    st.tuples(st.just("declare"), word),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("model"), st.frozensets(st.sampled_from(WORDS + ["zz"]), min_size=1)),
)


def apply(graph: Graph, kind: str, a, b=None) -> None:
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
        if {a, b} & graph.schema.classes:   # a class is never merged
            with pytest.raises(SchemaError):
                graph.merge_same_as(a, b)
        else:
            graph.merge_same_as(a, b)
    elif kind == "unlink":
        graph.retract_triple(a, HAS_VECTOR, Literal(a))
    elif kind == "declare":
        graph.schema.declare_class(a)
    elif kind == "declare_subclass":
        graph.schema.declare_subclass(a, b)
    elif kind == "subclass":
        graph.assert_triple(a, "subClassOf", b)
    elif kind == "unsubclass":
        graph.retract_triple(a, "subClassOf", b)


def searches(graph: Graph, model: EmbeddingModel, table: LinkTable):
    return [vkg_search(term, class_filter, 3, graph, model, table)
            for term in model.tokens for class_filter in (None, "product", "vulnerability")]


def assert_carries_its_mask(table: LinkTable, model: EmbeddingModel) -> None:
    carried_for, mask = table.linked_rows
    assert carried_for is model
    assert np.array_equal(mask, model.row_mask(table.links))
    assert table.row_mask(model) is mask


@FUZZ
@given(steps=st.lists(step, max_size=25))
def test_link_all_matches_the_rebuild_oracle(steps):
    # each side declares its own classes
    graph, mirror = Graph(datasets.security_schema()), Graph(datasets.security_schema())
    model = model_over(WORDS[:3])
    got = None
    returned = []
    for kind, *args in steps:
        if kind == "snapshot":
            graph = graph.snapshot()
        elif kind == "model":
            new_model = model_over(args[0])
            if got is not None:
                # a table built against the old model rebuilds its mask
                assert (searches(graph, new_model, got)
                        == searches(graph, new_model, table_from_graph(graph, new_model)))
            model = new_model
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
        assert_carries_its_mask(got, model)
        assert_carries_its_mask(read, model)
        returned.append((got, dict(got.links), got.unlinked, got.linked_rows[1].copy()))
    for table, links, unlinked, mask in returned:
        assert dict(table.links) == links
        assert table.unlinked == unlinked
        assert np.array_equal(table.linked_rows[1], mask)
    if got is not None:
        # a hand-built table carries no mask, and no caller can give it one
        hand_built = LinkTable(got.links, got.unlinked)
        assert hand_built.linked_rows is None
        assert searches(graph, model, hand_built) == searches(graph, model, got)
        with pytest.raises(TypeError):
            LinkTable(got.links, got.unlinked, 1, got.linked_rows)
    text = graph.to_text()
    link_all(graph, model)
    assert graph.to_text() == text


@pytest.mark.parametrize("step, full_passes", [
    ("none", 0), ("tag cc product", 0), ("untag aa product", 0), ("relate dd ee", 0),
    ("merge aa bb", 0), ("unlink aa", 0),
    ("stray aa bb", 1), ("declare aa", 1), ("model", 1), ("snapshot", 1),
])
def test_a_write_relinks_locally(monkeypatch, step, full_passes):
    graph = Graph(datasets.security_schema())
    graph.assert_triple("aa", "type", "product")
    graph.assert_triple("bb", "hasVulnerability", "zz")
    model = model_over(WORDS)
    link_all(graph, model)
    calls = []
    read_links = linking._read_links
    monkeypatch.setattr(linking, "_read_links",
                        lambda *args: calls.append(args) or read_links(*args))
    kind, *args = step.split()
    if kind == "model":   # equal to the first, but another object
        model = model_over(WORDS)
    elif kind == "snapshot":
        graph = graph.snapshot()
    elif kind != "none":
        apply(graph, kind, *args)
    got = link_all(graph, model)
    assert len(calls) == full_passes
    want = table_from_graph(graph, model)
    assert dict(got.links) == dict(want.links)
    assert got.unlinked == want.unlinked
    assert_carries_its_mask(got, model)
    assert len(graph.triples_with(HAS_VECTOR)) == len(got.links)


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


# --- class rows cached per graph ---------------------------------------------

SCHEMA_CLASSES = ["product", "software", "vulnerability", "attack"]
cls = st.sampled_from(SCHEMA_CLASSES + WORDS)   # a word is a class once declared
write = st.one_of(
    st.tuples(st.just("tag"), word, cls),
    st.tuples(st.just("untag"), word, cls),
    st.tuples(st.just("subclass"), cls, cls),
    st.tuples(st.just("unsubclass"), cls, cls),
    st.tuples(st.just("merge"), word, word),
    st.tuples(st.just("declare"), word),
    st.tuples(st.just("declare_subclass"), cls, cls),
    st.tuples(st.just("link")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("model"), st.frozensets(st.sampled_from(VOCAB), min_size=1)),
)


def uncached_search(*args):
    """vkg_search with an empty class-row cache, which it leaves as it was."""
    saved, query._CLASS_ROWS = query._CLASS_ROWS, weakref.WeakKeyDictionary()
    try:
        return vkg_search(*args)
    finally:
        query._CLASS_ROWS = saved


def assert_cache_is_fresh(graph, model, table):
    for class_filter in sorted(graph.schema.classes & set(SCHEMA_CLASSES + WORDS)):
        for term in {model.tokens[0], model.tokens[-1]}:
            for k in (2, len(model)):
                args = (term, class_filter, k, graph, model, table)
                assert repr(vkg_search(*args)) == repr(uncached_search(*args)), args


@settings(FUZZ, max_examples=100)
@given(steps=st.lists(write, max_size=20))
# an instance tagged with a class that is sameAs-merged into another lands in the
# other's bucket; a merge moves an entity into a filter's class
@example(steps=[("merge", "aa", "bb"), ("declare", "aa"), ("declare", "bb"),
                ("tag", "ee", "bb"), ("link",)])
@example(steps=[("merge", "cc", "dd")])
def test_cached_class_rows_search_as_fresh_ones(steps):
    graph = Graph(datasets.security_schema())
    for w, c in [("aa", "product"), ("bb", "vulnerability"), ("cc", "software"),
                 ("dd", "attack")]:
        graph.assert_triple(w, "type", c)
    model = model_over(VOCAB)
    table = link_all(graph, model)
    assert_cache_is_fresh(graph, model, table)
    for kind, *args in steps:
        if kind == "link":
            table = link_all(graph, model)
        elif kind == "snapshot":
            graph = graph.snapshot()
        elif kind == "model":
            model = model_over(args[0])
        else:
            # refused: a write naming an undeclared class, a subclass cycle
            with suppress(VkgError):
                apply(graph, kind, *args)
        assert_cache_is_fresh(graph, model, table)
