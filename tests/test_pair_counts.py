"""Differential test of the pair counts that ``rank_graph`` reads.

``Graph._pair_count(c)`` keeps ``len(Graph._pairs(c))`` per canonical entity,
and every write drops the counts it may change.  Random write sequences (the
steps of ``test_graph_reads``: asserts, retractions, sameAs merges and
hasVector triples) run with every count read before each step, so each step
meets a full cache.  After the step every count must equal a full scan of the
stored triples, and ``rank_graph`` must equal the full-scan ranking of
``test_rank_graph``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_graph_reads import CLASSES, WORDS, make_schema, step
from test_rank_graph import oracle_pairs, oracle_rank
from vkg.evaluation import rank_graph
from vkg.kg import Graph

FUZZ = settings(max_examples=300, deadline=None, database=None, derandomize=True)

NODES = WORDS + CLASSES + ["zz"]


def apply(graph: Graph, ever: list[tuple], kind: str, *args) -> None:
    """One step of ``test_graph_reads``; "retract" names a triple asserted earlier."""
    if kind == "assert":
        graph.assert_triple(*args)
        ever.append(args)
    elif kind == "merge":
        graph.merge_same_as(*args)
        ever.append((args[0], "sameAs", args[1]))
    elif ever:
        graph.retract_triple(*ever[args[0] % len(ever)])


def warm(graph: Graph) -> None:
    for node in NODES:
        graph._pair_count(graph.canonical(node))


def check(graph: Graph) -> None:
    assert all(graph.canonical(c) == c for c in graph._pair_counts)
    for node in NODES:
        c = graph.canonical(node)
        assert graph._pair_count(c) == len(oracle_pairs(graph, c)), c
    for query in WORDS:
        for k in (2, 10):
            assert rank_graph(graph, query, k) == oracle_rank(graph, query, k), (query, k)


def run(steps) -> Graph:
    graph, ever = Graph(make_schema()), []
    for kind, *args in steps:
        warm(graph)
        apply(graph, ever, kind, *args)
        check(graph)
    return graph


def collapse(x: str, p: str, y: str, z: str, inward: bool) -> list[tuple]:
    """x holds p towards y and z (or from them, inward), then y and z merge:
    two of x's pairs become one, which plain steps rarely line up."""
    edges = [(y, p, x), (z, p, x)] if inward else [(x, p, y), (x, p, z)]
    return [("assert", *edge) for edge in edges] + [("merge", y, z)]


word = st.sampled_from(WORDS)
block = st.one_of(step.map(lambda s: [s]),
                  st.builds(collapse, word, st.sampled_from(["r0", "r1", "hasVector"]),
                            word, word, st.booleans()))


@FUZZ
@given(blocks=st.lists(block, min_size=4, max_size=20))
def test_counts_match_a_scan_after_every_write(blocks):
    run([s for steps in blocks for s in steps])


PINNED = {
    # aa holds (r1, bb) and (r1, cc); renaming cc to bb leaves it one pair
    "merge of two objects": ([("assert", "aa", "r1", "bb"), ("assert", "aa", "r1", "cc"),
                              ("merge", "bb", "cc")], {"aa": 1, "bb": 1}),
    "merge of two subjects": ([("assert", "bb", "r1", "aa"), ("assert", "cc", "r1", "aa"),
                               ("merge", "bb", "cc")], {"aa": 1, "bb": 1}),
    "merge of hasVector subjects": ([("assert", "bb", "hasVector", "aa"),
                                     ("assert", "cc", "hasVector", "aa"),
                                     ("merge", "cc", "bb")], {"aa": 1, "bb": 0}),
    "both directions of one edge": ([("assert", "aa", "r0", "bb"), ("assert", "bb", "r0", "aa"),
                                     ("retract", 1)], {"aa": 1, "bb": 1}),
    "retraction of the only triple": ([("assert", "aa", "r0", "bb"), ("assert", "aa", "type", "c0"),
                                       ("retract", 0)], {"aa": 1, "bb": 0}),
    "retraction of one of two merged triples": ([("assert", "aa", "r0", "bb"),
                                                 ("assert", "aa", "r0", "cc"),
                                                 ("merge", "bb", "cc"), ("retract", 1)],
                                                {"aa": 1, "bb": 1}),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_writes(name):
    steps, counts = PINNED[name]
    graph = run(steps)
    assert {node: graph._pair_count(node) for node in counts} == counts


def test_a_snapshot_keeps_its_own_counts():
    graph = Graph(make_schema())
    for s, p, o in [("aa", "r0", "bb"), ("cc", "r0", "bb"), ("aa", "type", "c0")]:
        graph.assert_triple(s, p, o)
    warm(graph)
    copy = graph.snapshot()
    assert copy._pair_counts == {}
    warm(copy)
    graph.assert_triple("aa", "r1", "dd")
    graph.merge_same_as("aa", "cc")
    copy.assert_triple("bb", "r1", "ee")
    copy.retract_triple("cc", "r0", "bb")
    for g in (graph, copy):
        check(g)
    assert graph._pair_count("aa") == 3 and copy._pair_count("aa") == 2
    assert graph._pair_count("bb") == 1 and copy._pair_count("bb") == 2
