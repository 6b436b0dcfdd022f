"""Differential test of the graph read API against a plain list of triples.

The oracle keeps the raw asserted triples in a list and the sameAs classes in
a test-local union-find whose root is the smallest member of its class; every
read it answers is a scan of that list.  Random sequences of asserts (type,
relation, literal, subClassOf and hasVector triples), retractions and sameAs
merges run on a ``Graph`` and on the oracle, and every read is compared after
every step: all eight bound/unbound shapes of ``match_pattern``, ``objects``,
``len``, ``in``, iteration, ``to_text``, ``instances_of``, ``triples_with``,
``entities``, ``neighbor_pairs`` and ``similarities``.
"""

from __future__ import annotations

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from vkg.kg import Graph, Literal, Schema, Triple

FUZZ = settings(max_examples=120, deadline=None, database=None, derandomize=True)

WORDS = ["aa", "bb", "cc", "dd", "ee"]
CLASSES = ["c0", "c1", "c2"]
RELATIONS = ["r0", "r1"]
LITERALS = [Literal("x"), Literal("y")]
PREDICATES = ["type", "subClassOf", "sameAs", "hasVector"] + RELATIONS


def make_schema() -> Schema:
    schema = Schema()
    for c in CLASSES:
        schema.declare_class(c)
    schema.declare_subclass("c1", "c0")
    for r in RELATIONS:
        schema.declare_relation(r)
    return schema


class Oracle:
    def __init__(self, schema: Schema):
        self.schema = schema
        self.triples: list[Triple] = []
        self.ever: list[Triple] = []      # every triple asserted so far, present or not
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        while self.parent.get(x, x) != x:
            x = self.parent[x]
        return x

    def add(self, t: Triple) -> None:
        if t not in self.triples:
            self.triples.append(t)
        if t not in self.ever:
            self.ever.append(t)
        if t.predicate == "sameAs":
            low, high = sorted((self.find(t.subject), self.find(t.object)))
            if low != high:
                self.parent[high] = low

    def remove(self, t: Triple) -> bool:
        if t in self.triples:
            self.triples.remove(t)
            return True
        return False

    def canon(self, t: Triple) -> Triple:
        obj = t.object if isinstance(t.object, Literal) else self.find(t.object)
        return Triple(self.find(t.subject), t.predicate, obj)

    def match(self, s, p, o) -> list[Triple]:
        s = None if s is None else self.find(s)
        o = self.find(o) if isinstance(o, str) else o
        hits = {c for c in map(self.canon, self.triples)
                if (s is None or c.subject == s) and (p is None or c.predicate == p)
                and (o is None or c.object == o)}
        return sorted(hits, key=Triple.sort_key)

    def objects(self, s: str, p: str) -> set[str]:
        return {self.find(t.object) for t in self.triples
                if self.find(t.subject) == self.find(s) and t.predicate == p
                and isinstance(t.object, str)}

    def text(self) -> str:
        def term(x):
            return f'"{x.value}"' if isinstance(x, Literal) else f"<{x}>"
        return "".join(f"<{t.subject}> <{t.predicate}> {term(t.object)} .\n"
                       for t in sorted(self.triples, key=Triple.sort_key))

    def instances(self, cls: str) -> set[str]:
        edges = self.schema.subclass_edges | {
            (t.subject, t.object) for t in self.triples if t.predicate == "subClassOf"}
        down, frontier = {cls}, [cls]
        while frontier:
            node = frontier.pop()
            for child, parent in edges:
                if parent == node and child not in down:
                    down.add(child)
                    frontier.append(child)
        return {self.find(t.subject) for t in self.triples
                if t.predicate == "type" and t.object in down}

    def entities(self) -> set[str]:
        out = set()
        for t in self.triples:
            if t.predicate in ("subClassOf", "hasVector"):
                continue
            out.add(t.subject)
            if isinstance(t.object, str) and t.predicate != "type":
                out.add(t.object)
        return out - self.schema.classes

    def pairs(self, c: str) -> set[tuple[str, str]]:
        out = set()
        for t in self.triples:
            if isinstance(t.object, Literal) or t.predicate == "sameAs":
                continue
            if self.find(t.subject) == c and t.predicate != "hasVector":
                out.add((t.predicate, self.find(t.object)))
            if self.find(t.object) == c:
                out.add((t.predicate, self.find(t.subject)))
        return out

    def similarities(self, entity: str) -> dict[str, float]:
        c = self.find(entity)
        mine = self.pairs(c)
        nodes = {self.find(x) for t in self.triples for x in (t.subject, t.object)
                 if isinstance(x, str)}
        scores = {c: 1.0}
        for x in nodes - {c}:
            theirs = self.pairs(x)
            if mine & theirs:
                scores[x] = len(mine & theirs) / len(mine | theirs)
        return scores


def check_reads(graph: Graph, oracle: Oracle) -> None:
    assert len(graph) == len(oracle.triples)
    assert list(graph) == sorted(oracle.triples, key=Triple.sort_key)
    assert graph.to_text() == oracle.text()
    for t in oracle.ever:
        assert (t in graph) == (t in oracle.triples), t
    for key in product([None] + WORDS + CLASSES, [None] + PREDICATES,
                       [None] + WORDS + CLASSES + LITERALS):
        assert graph.match_pattern(*key) == oracle.match(*key), key
    for s, p in product(WORDS + CLASSES + ["zz"], PREDICATES):
        assert graph.objects(s, p) == oracle.objects(s, p), (s, p)
    for cls in CLASSES:
        assert graph.instances_of(cls) == oracle.instances(cls), cls
    for p in PREDICATES:
        assert sorted(graph.triples_with(p), key=Triple.sort_key) == sorted(
            (t for t in oracle.triples if t.predicate == p), key=Triple.sort_key), p
    assert graph.entities() == oracle.entities()
    for w in WORDS:
        assert graph.neighbor_pairs(w) == oracle.pairs(oracle.find(w)), w
        assert graph.similarities(w) == oracle.similarities(w), w


word = st.sampled_from(WORDS)
cls = st.sampled_from(CLASSES)
relation = st.sampled_from(RELATIONS)
step = st.one_of(
    st.tuples(st.just("assert"), word, st.just("type"), cls),
    st.tuples(st.just("assert"), word, relation, word),
    st.tuples(st.just("assert"), word, relation, st.sampled_from(LITERALS)),
    st.tuples(st.just("assert"), cls, st.just("subClassOf"), cls),
    st.tuples(st.just("assert"), word, st.just("hasVector"),
              st.one_of(word, word.map(Literal))),
    st.tuples(st.just("merge"), word, word),
    st.tuples(st.just("retract"), st.integers(0, 63)),
)


@FUZZ
@given(steps=st.lists(step, max_size=30))
def test_reads_match_a_scan_of_the_raw_triples(steps):
    schema = make_schema()
    graph, oracle = Graph(schema), Oracle(schema)
    for kind, *args in steps:
        if kind == "assert":
            graph.assert_triple(*args)
            oracle.add(Triple(*args))
        elif kind == "merge":
            graph.merge_same_as(*args)
            oracle.add(Triple(args[0], "sameAs", args[1]))
        elif oracle.ever:   # retract a triple asserted earlier, present or not
            t = oracle.ever[args[0] % len(oracle.ever)]
            assert graph.retract_triple(t.subject, t.predicate, t.object) == oracle.remove(t)
        check_reads(graph, oracle)
    assert Graph.parse(graph.to_text(), schema).to_text() == graph.to_text()
