"""Differential tests of graph-side ranking and the maintained entity set.

``rank_graph`` scores only the entities that share a (predicate, neighbor)
pair with the query, found through the graph's indexes, and
``Graph.entities`` reads a reference count kept by every write.  The oracles
are the full scans they replaced, computed from the stored triples alone:
a Jaccard score for every member of the universe, a full sort, and a scan of
every triple for the entity set.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from vkg import datasets
from vkg.evaluation import rank_graph
from vkg.kg import Graph, Literal, normalize

FUZZ = settings(max_examples=300, deadline=None, database=None, derandomize=True)

WORDS = ["aa", "bb", "cc", "dd", "ee"]
CLASSES = ["product", "software", "vulnerability"]
RELATIONS = ["hasVulnerability", "hasAttack"]


def oracle_entities(graph: Graph) -> set[str]:
    """The entity set as a scan of every stored triple."""
    out: set[str] = set()
    for t in graph:
        if t.predicate in ("subClassOf", "hasVector"):
            continue
        out.add(t.subject)
        if isinstance(t.object, str) and t.predicate != "type":
            out.add(t.object)
    return out - graph.schema.classes


def oracle_pairs(graph: Graph, c: str) -> set[tuple[str, str]]:
    """(predicate, neighbor) pairs of canonical ``c`` from a scan of every triple."""
    pairs = set()
    for t in graph:
        if isinstance(t.object, Literal):
            continue
        s, o = graph.canonical(t.subject), graph.canonical(t.object)
        if s == c and t.predicate not in ("sameAs", "hasVector"):
            pairs.add((t.predicate, o))
        if o == c and t.predicate != "sameAs":
            pairs.add((t.predicate, s))
    return pairs


def oracle_similarity(graph: Graph, a: str, b: str) -> float:
    ca, cb = graph.canonical(normalize(a)), graph.canonical(normalize(b))
    if ca == cb:
        return 1.0
    pa, pb = oracle_pairs(graph, ca), oracle_pairs(graph, cb)
    if not pa or not pb:
        return 0.0
    return len(pa & pb) / len(pa | pb)


def oracle_rank(graph: Graph, query: str, k: int, universe=None) -> list[str]:
    """``rank_graph`` as a full scan: score every member, sort, cut."""
    if universe is None:
        universe = sorted(oracle_entities(graph))
    scored = sorted(
        ((oracle_similarity(graph, query, other), other)
         for other in universe if other != query),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return [entity for _, entity in scored[:k]]


word = st.sampled_from(WORDS)
triple = st.one_of(
    st.tuples(word, st.sampled_from(RELATIONS), word),          # self-loops too
    st.tuples(word, st.just("type"), st.sampled_from(CLASSES)),
    st.tuples(word, st.sampled_from(RELATIONS + ["hasVector"]),
              st.sampled_from(WORDS[:3]).map(Literal)),
    st.tuples(word, st.just("hasVector"), word),                # an entity-valued link
    st.tuples(st.sampled_from(CLASSES), st.just("subClassOf"), st.sampled_from(CLASSES)),
)
# "undo" retracts the i-th triple asserted so far, so that retractions hit
step = st.one_of(
    st.tuples(st.just("assert"), triple),
    st.tuples(st.just("retract"), triple),
    st.tuples(st.just("undo"), st.integers(0, 40)),
    st.tuples(st.just("merge"), st.tuples(word, word)),
)


@FUZZ
@given(steps=st.lists(step, max_size=40))
def test_entities_match_a_triple_scan_after_every_write(steps):
    graph = Graph(datasets.security_schema())
    asserted = []
    for op, args in steps:
        if op == "assert":
            graph.assert_triple(*args)
            asserted.append(args)
        elif op == "retract":
            graph.retract_triple(*args)
        elif op == "undo" and asserted:
            graph.retract_triple(*asserted[args % len(asserted)])
        elif op == "merge":
            graph.merge_same_as(*args)
            asserted.append((args[0], "sameAs", args[1]))
        assert graph.entities() == oracle_entities(graph)
    assert graph.snapshot().entities() == oracle_entities(graph)
    for args in asserted:   # a count that leaks keeps an entity past its last triple
        graph.retract_triple(*args)
        assert graph.entities() == oracle_entities(graph)
    assert len(graph) == 0 and graph.entities() == set()


# members a universe may hold: entities, a class, names outside the graph and
# names that only normalize to a graph node
POOL = WORDS + ["product", "zz", "AA", " bb ", "Cc"]


@FUZZ
@given(
    before=st.lists(triple, min_size=4, max_size=15),
    merges=st.lists(st.tuples(word, word), max_size=2),
    after=st.lists(triple, max_size=15),
    retracts=st.lists(st.integers(0, 30), max_size=4),
    query=st.sampled_from(WORDS + ["zz", "BB"]),
    universe=st.one_of(st.none(), st.lists(st.sampled_from(POOL), max_size=12)),
    k=st.integers(0, 14),
)
def test_rank_graph_matches_a_full_scan(before, merges, after, retracts, query, universe, k):
    graph = Graph(datasets.security_schema())
    for args in before:
        graph.assert_triple(*args)
    for a, b in merges:   # folds index buckets that later asserts add to
        graph.merge_same_as(a, b)
    for args in after:
        graph.assert_triple(*args)
    asserted = before + after
    for i in retracts:
        graph.retract_triple(*asserted[i % len(asserted)])
    assert rank_graph(graph, query, k, universe) == oracle_rank(graph, query, k, universe)
    scores = graph.similarities(query)
    # only nodes that share a pair are scored: every score is positive
    assert all(isinstance(node, str) and score > 0 for node, score in scores.items())
    for node in oracle_entities(graph) | set(CLASSES) | {"zz"}:
        assert scores.get(graph.canonical(node), 0.0) == oracle_similarity(graph, query, node)
        assert graph.graph_similarity(query, node) == oracle_similarity(graph, query, node)


def test_merged_members_tie_with_the_query_at_one():
    graph = Graph(datasets.security_schema())
    for s, p, o in [("aa", "hasVulnerability", "vv"), ("bb", "hasVulnerability", "vv"),
                    ("bb", "hasAttack", "xx"), ("cc", "hasVulnerability", "ww")]:
        graph.assert_triple(s, p, o)
    graph.merge_same_as("aa", "dd")
    universe = ["dd", "cc", "bb", "Aa", "zz"]
    assert rank_graph(graph, "aa", 10, universe) == ["Aa", "dd", "bb", "cc", "zz"]
    assert rank_graph(graph, "aa", 10, universe) == oracle_rank(graph, "aa", 10, universe)
    assert rank_graph(graph, "zz", 2) == oracle_rank(graph, "zz", 2) == ["aa", "bb"]


def counting_pairs(monkeypatch) -> list[str]:
    """Record every canonical ``Graph._pairs`` is called on."""
    calls: list[str] = []
    pairs = Graph._pairs

    def counted(self, c):
        calls.append(c)
        return pairs(self, c)

    monkeypatch.setattr(Graph, "_pairs", counted)
    return calls


def test_the_bound_stops_the_walk_in_a_large_class(monkeypatch):
    # every product shares the query's (type, product) pair; three also
    # share its vulnerabilities, and only they can reach the top 3
    graph = Graph(datasets.security_schema())
    for i in range(60):
        graph.assert_triple(f"p{i:02d}", "type", "product")
        graph.assert_triple(f"p{i:02d}", "hasVulnerability", f"w{i:02d}")
    for e in ["q", "p07", "p21", "p42"]:
        graph.assert_triple(e, "type", "product")
        for v in ["v1", "v2", "v3"]:
            graph.assert_triple(e, "hasVulnerability", v)
    candidates = set(graph.similarities("q")) - {"q"}
    assert len(candidates) == 60
    calls = counting_pairs(monkeypatch)
    assert rank_graph(graph, "q", 3) == ["p07", "p21", "p42"]
    assert len(calls) == 4 < len(candidates)   # the query and the three
    for k in [1, 3, 4, 10, 80]:
        assert rank_graph(graph, "q", k) == oracle_rank(graph, "q", k)


def test_a_member_at_the_bound_still_enters_by_name():
    # len(pq) = 4; "zb" shares 2 of its 6 pairs (2/8) and "aa" is unscored
    # when zb is, with bound 1/4 equal to its score: the walk must not stop
    graph = Graph(datasets.security_schema())
    for v in ["v1", "v2", "v3"]:
        graph.assert_triple("q", "hasVulnerability", v)
    graph.assert_triple("q", "type", "product")
    graph.assert_triple("zb", "type", "product")
    for v in ["v1", "w1", "w2", "w3", "w4"]:
        graph.assert_triple("zb", "hasVulnerability", v)
    graph.assert_triple("aa", "type", "product")
    assert graph.graph_similarity("q", "zb") == graph.graph_similarity("q", "aa") == 0.25
    assert rank_graph(graph, "q", 1) == oracle_rank(graph, "q", 1) == ["aa"]
    assert rank_graph(graph, "q", 2) == oracle_rank(graph, "q", 2) == ["aa", "zb"]


def test_edge_cases_of_k_and_the_universe(monkeypatch):
    graph = Graph(datasets.security_schema())
    for s, p, o in [("aa", "hasVulnerability", "vv"), ("bb", "hasVulnerability", "vv"),
                    ("bb", "hasAttack", "xx"), ("cc", "hasAttack", "xx"),
                    ("dd", "hasVulnerability", "ww")]:
        graph.assert_triple(s, p, o)
    graph.merge_same_as("aa", "ee")
    calls = counting_pairs(monkeypatch)
    assert rank_graph(graph, "aa", 0) == [] and rank_graph(graph, "aa", -1) == []
    assert calls == []
    universes = [None, ["bb", "bb", "cc", "bb"], ["ee", "AA", "aa", " Ee ", "bb", "zz"],
                 ["zz", "dd", "cc", "ww"], []]
    for universe in universes:
        for k in range(8):   # past the positive scores: the zero-score fill
            assert (rank_graph(graph, "aa", k, universe)
                    == oracle_rank(graph, "aa", k, universe)), (universe, k)
    assert rank_graph(graph, "aa", 4, universes[1]) == ["bb", "bb", "bb", "cc"]
    assert rank_graph(graph, "aa", 9, universes[2]) == [" Ee ", "AA", "ee", "bb", "zz"]
    assert rank_graph(graph, "aa", 9, universes[3]) == ["cc", "dd", "ww", "zz"]


def test_every_entity_universe_skips_counted_roots_and_classes():
    # "aa" stays the root of zb's sameAs class after its last triple is
    # retracted, and the class name "product" holds a pair as a subject:
    # _overlaps counts both, and neither is an entity to rank
    graph = Graph(datasets.security_schema())
    for s, p, o in [("q", "hasVulnerability", "v1"), ("q", "hasAttack", "x1"),
                    ("aa", "hasVulnerability", "v1"), ("zb", "hasAttack", "x1"),
                    ("product", "hasVulnerability", "v1"), ("cc", "hasAttack", "x2")]:
        graph.assert_triple(s, p, o)
    graph.merge_same_as("aa", "zb")
    graph.retract_triple("aa", "sameAs", "zb")
    graph.retract_triple("aa", "hasVulnerability", "v1")
    assert graph.canonical("zb") == "aa" and "aa" not in graph.entities()
    assert {"aa", "product"} <= graph._overlaps("q")[1].keys()
    assert graph._entity_members("aa") == ["zb"] and graph._entity_members("product") == []
    for query in ["q", "zb", "aa", "Q"]:
        for k in range(8):   # up to past the zero-score fill
            assert (rank_graph(graph, query, k)
                    == rank_graph(graph, query, k, sorted(graph.entities()))
                    == oracle_rank(graph, query, k)), (query, k)
    assert rank_graph(graph, "q", 7) == ["zb", "cc", "v1", "x1", "x2"]
