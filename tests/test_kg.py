"""Triple store: indexing, matching, subclass closure, sameAs, similarity."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from vkg.errors import (
    GraphFormatError,
    InvalidTokenError,
    SchemaError,
    UnknownClassError,
    UnknownRelationError,
    VkgError,
)
from vkg.kg import Graph, Literal, Schema, Triple, normalize


def pet_schema() -> Schema:
    schema = Schema()
    schema.declare_class("cat")
    schema.declare_class("mammal")
    schema.declare_class("person")
    schema.declare_subclass("cat", "mammal")
    schema.declare_relation("hasPet", "person", "mammal")
    return schema


class TestNormalize:
    def test_lowercases_and_joins(self):
        assert normalize("Denial of Service") == "denial_of_service"

    def test_idempotent(self):
        once = normalize("Microsoft Internet Explorer")
        assert normalize(once) == once

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize("   ")

    def test_bad_tokens_are_vkg_errors_and_value_errors(self):
        graph = Graph(pet_schema())
        for bad in (lambda: normalize(""),
                    lambda: graph.assert_triple("x<y", "hasPet", "milo")):
            with pytest.raises(InvalidTokenError) as err:
                bad()
            assert isinstance(err.value, VkgError)
            assert isinstance(err.value, ValueError)
        assert len(graph) == 0


class TestAssert:
    def test_single_assert(self):
        graph = Graph(pet_schema())
        graph.assert_triple("Tom", "hasPet", "Milo")
        assert len(graph) == 1
        assert graph.match_pattern("tom", "hasPet", None)[0].object == "milo"

    def test_idempotent_assert(self):
        graph = Graph(pet_schema())
        graph.assert_triple("Tom", "hasPet", "Milo")
        graph.assert_triple("tom", "hasPet", "milo")
        assert len(graph) == 1

    def test_unknown_relation(self):
        graph = Graph(pet_schema())
        with pytest.raises(UnknownRelationError):
            graph.assert_triple("tom", "owns", "milo")

    def test_unknown_class_on_type(self):
        graph = Graph(pet_schema())
        with pytest.raises(UnknownClassError):
            graph.assert_triple("milo", "type", "dog")

    @pytest.mark.parametrize("predicate, error", [
        ("type", UnknownClassError), ("subClassOf", UnknownClassError),
        ("sameAs", SchemaError)])
    def test_literal_class_or_sameAs_object_refused(self, predicate, error):
        graph = Graph(pet_schema())
        graph.assert_triple("tom", "hasPet", "milo")
        with pytest.raises(error, match=f"^{predicate} object 'cat' is a literal$"):
            graph.assert_triple("x", predicate, Literal("cat"))
        with pytest.raises(error):
            graph.make_triple("x", predicate, Literal("cat"))
        assert graph.to_text() == "<tom> <hasPet> <milo> .\n"
        assert graph.entities() == {"tom", "milo"}
        with pytest.raises(GraphFormatError,
                           match=f"^line 2: {predicate} object 'cat' is a literal$"):
            Graph.parse(f'<tom> <hasPet> <milo> .\n<x> <{predicate}> "cat" .\n', pet_schema())

    def test_advisory_vulnerabilities(self, advisory_graph):
        hits = advisory_graph.match_pattern(
            "Microsoft_Internet_Explorer", "hasVulnerability", None)
        assert len(hits) == 2
        assert {t.object for t in hits} == {
            "denial_of_service", "execute_arbitrary_code"}


class TestMatchPattern:
    def test_object_bound(self, advisory_graph):
        hits = advisory_graph.match_pattern(None, "hasVulnerability",
                                            "denial_of_service")
        assert hits == [Triple("microsoft_internet_explorer",
                               "hasVulnerability", "denial_of_service")]

    def test_all_wildcard_on_empty(self):
        assert Graph(pet_schema()).match_pattern(None, None, None) == []

    def test_unknown_ids_yield_empty(self, advisory_graph):
        assert advisory_graph.match_pattern("nonexistent", None, None) == []
        assert advisory_graph.match_pattern(None, "hasPet", None) == []

    def test_results_sorted(self, advisory_graph):
        result = advisory_graph.match_pattern(None, None, None)
        assert result == sorted(result, key=Triple.sort_key)


def random_graph(rng, n_triples: int) -> tuple[Graph, list[str], list[str]]:
    schema = Schema()
    classes = [f"c{i}" for i in range(3)]
    for c in classes:
        schema.declare_class(c)
    relations = [f"r{i}" for i in range(4)]
    for r in relations:
        schema.declare_relation(r)
    entities = [f"e{i:03d}" for i in range(40)]
    graph = Graph(schema)
    for _ in range(n_triples):
        kind = rng.integers(0, 10)
        s = entities[rng.integers(0, len(entities))]
        if kind < 2:
            graph.assert_triple(s, "type", classes[rng.integers(0, 3)])
        elif kind < 3:
            graph.assert_triple(s, relations[rng.integers(0, 4)],
                                Literal(f"lit{rng.integers(0, 9)}"))
        else:
            graph.assert_triple(s, relations[rng.integers(0, 4)],
                                entities[rng.integers(0, len(entities))])
    return graph, entities, relations + ["type"]


def scan_oracle(graph: Graph, s, p, o) -> list[Triple]:
    """Independent full scan over the raw triple set (no index use)."""
    out = [
        t for t in graph
        if (s is None or t.subject == s)
        and (p is None or t.predicate == p)
        and (o is None or t.object == o)
    ]
    return sorted(out, key=Triple.sort_key)


class TestIndexOracleEquivalence:
    def test_random_graphs_all_pattern_shapes(self):
        rng = np.random.default_rng(7)
        for size in (0, 5, 200, 1000):
            graph, entities, predicates = random_graph(rng, size)
            triples = list(graph)
            for _ in range(60):
                s = entities[rng.integers(0, len(entities))] \
                    if rng.random() < 0.5 else None
                p = predicates[rng.integers(0, len(predicates))] \
                    if rng.random() < 0.5 else None
                if rng.random() < 0.5 and triples:
                    o = triples[rng.integers(0, len(triples))].object
                else:
                    o = None
                assert graph.match_pattern(s, p, o) == scan_oracle(graph, s, p, o)

    def test_subject_bound_matches_scan(self):
        rng = np.random.default_rng(13)
        graph, entities, _ = random_graph(rng, 200)
        for s in entities:
            assert graph.match_pattern(s, None, None) == scan_oracle(
                graph, s, None, None)


class TestInstancesOf:
    def test_advisory_vulnerability_instances(self, advisory_graph):
        assert advisory_graph.instances_of("Vulnerability") == {
            "denial_of_service", "execute_arbitrary_code"}

    def test_no_instances(self):
        graph = Graph(pet_schema())
        assert graph.instances_of("cat") == set()

    def test_subclass_closure(self):
        graph = Graph(pet_schema())
        graph.assert_triple("milo", "type", "cat")
        assert graph.instances_of("mammal") == {"milo"}

    def test_unknown_class(self):
        with pytest.raises(UnknownClassError):
            Graph(pet_schema()).instances_of("reptile")

    def test_closure_equals_bfs_oracle(self):
        schema = Schema()
        for c in "abcdef":
            schema.declare_class(c)
        edges = [("b", "a"), ("c", "a"), ("d", "b"), ("e", "b"), ("f", "d")]
        for child, parent in edges:
            schema.declare_subclass(child, parent)
        graph = Graph(schema)
        for i, c in enumerate("abcdef"):
            graph.assert_triple(f"x{i}", "type", c)

        def bfs(cls):
            down = {cls}
            frontier = [cls]
            while frontier:
                node = frontier.pop()
                for child, parent in edges:
                    if parent == node and child not in down:
                        down.add(child)
                        frontier.append(child)
            return {f"x{i}" for i, c in enumerate("abcdef") if c in down}

        for cls in "abcdef":
            assert graph.instances_of(cls) == bfs(cls)


class TestEntities:
    def test_link_triple_does_not_make_an_entity(self, schema):
        graph = Graph(schema)
        graph.assert_triple("mysql", "hasVulnerability", "ghost_bug")
        graph.assert_triple("mysql", "hasVector", Literal("mysql"))
        graph.assert_triple("orphan", "hasVector", Literal("orphan"))
        assert graph.entities() == {"mysql", "ghost_bug"}

    def test_triples_with_is_raw_and_exact(self, schema):
        graph = Graph(schema)
        graph.assert_triple("aa", "hasVulnerability", "v1")
        graph.assert_triple("bb", "hasVector", Literal("bb"))
        graph.merge_same_as("aa", "bb")
        assert graph.triples_with("hasVector") == [Triple("bb", "hasVector", Literal("bb"))]
        assert graph.match_pattern(None, "hasVector", None) == [
            Triple("aa", "hasVector", Literal("bb"))]
        assert graph.triples_with("hasAttack") == []


class TestSameAs:
    def test_merged_entities_share_triples(self, schema):
        graph = Graph(schema)
        graph.assert_triple("dbp_internet_explorer", "hasVulnerability",
                            "denial_of_service")
        graph.assert_triple("denial_of_service", "type", "vulnerability")
        graph.merge_same_as("microsoft_internet_explorer", "dbp_internet_explorer")
        hits = graph.match_pattern("microsoft_internet_explorer",
                                   "hasVulnerability", None)
        assert len(hits) == 1
        assert hits[0].object == "denial_of_service"

    def test_self_merge_is_noop(self, schema):
        graph = Graph(schema)
        graph.assert_triple("mysql", "hasVulnerability", "denial_of_service")
        before = graph.match_pattern(None, None, None)
        graph.merge_same_as("mysql", "mysql")
        after = [t for t in graph.match_pattern(None, None, None)
                 if t.predicate != "sameAs"]
        assert before == after

    def test_chain_closure_matches_union_find_oracle(self, schema):
        rng = np.random.default_rng(3)
        names = [f"n{i}" for i in range(12)]
        graph = Graph(schema)
        facts = []
        for i, name in enumerate(names):
            other = f"v{i % 4}"
            graph.assert_triple(name, "hasVulnerability", other)
            facts.append((name, other))
        merges = [(names[rng.integers(0, 12)], names[rng.integers(0, 12)])
                  for _ in range(8)]
        for a, b in merges:
            graph.merge_same_as(a, b)

        # brute-force union-find oracle
        parent = {n: n for n in names}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in merges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        canon = {n: find(n) for n in names}
        # repeat until stable (path compression for the oracle)
        canon = {n: find(n) for n in names}

        for name in names:
            expected = sorted({
                (canon[s], o) for s, o in facts if canon[s] == canon[name]
            })
            got = [(t.subject, t.object) for t in graph.match_pattern(
                name, "hasVulnerability", None)]
            assert got == expected

    def test_reads_leave_the_graph_unchanged(self, schema):
        graph = Graph(schema)
        names = [f"n{i}" for i in range(8)]
        for name in names:
            graph.assert_triple(name, "hasVulnerability", f"v{name}")
            graph.assert_triple(name, "type", "product")
        # chain merges: n7 joins n6's class before n6 joins n4's, and so on
        for a, b in [("n6", "n7"), ("n4", "n5"), ("n5", "n6"), ("n2", "n3"),
                     ("n3", "n4"), ("n0", "n1"), ("n1", "n2")]:
            graph.merge_same_as(a, b)
        state = {key: value for key, value in vars(graph).items() if key != "schema"}
        before = copy.deepcopy(state)
        assert [graph.canonical(name) for name in names] == ["n0"] * 8
        assert graph.merged() == {name: "n0" for name in names[1:]}
        assert len(graph.match_pattern("n7", "hasVulnerability", None)) == 8
        assert len(graph.match_pattern(None, None, "vn5")) == 1
        assert graph.instances_of("product") == {"n0"}
        assert state == before

    def test_a_class_is_never_merged(self):
        schema = Schema.parse("[classes]\nproduct\nsoftware\n[subclass]\nsoftware product\n")
        graph = Graph(schema)
        graph.assert_triple("a", "type", "software")
        graph.assert_triple("b", "type", "product")
        text = graph.to_text()
        for a, b in [("software", "product"), ("product", "software"), ("a", "software")]:
            with pytest.raises(SchemaError, match="is a declared class$"):
                graph.merge_same_as(a, b)
        assert graph.to_text() == text
        assert graph.instances_of("software") == {"a"}
        assert graph.instances_of("product") == {"a", "b"}
        with pytest.raises(GraphFormatError,
                           match="^line 3: sameAs operand 'software' is a declared class$"):
            Graph.parse(text + "<software> <sameAs> <product> .\n", schema)

    def test_results_invariant_under_renaming(self, schema):
        left = Graph(schema)
        left.assert_triple("a_node", "hasVulnerability", "vx")
        left.merge_same_as("a_node", "b_node")
        right = Graph(schema)
        right.assert_triple("b_node", "hasVulnerability", "vx")
        right.merge_same_as("a_node", "b_node")
        pattern_results = (
            left.match_pattern(None, "hasVulnerability", None),
            right.match_pattern(None, "hasVulnerability", None),
        )
        assert pattern_results[0] == pattern_results[1]


class TestGraphSimilarity:
    def test_identical_edge_sets(self, schema):
        graph = Graph(schema)
        for e in ("x1", "x2"):
            graph.assert_triple(e, "hasVulnerability", "v1")
            graph.assert_triple(e, "hasVulnerability", "v2")
        assert graph.graph_similarity("x1", "x2") == 1.0

    def test_disjoint_edge_sets(self, schema):
        graph = Graph(schema)
        graph.assert_triple("x1", "hasVulnerability", "v1")
        graph.assert_triple("x2", "hasVulnerability", "v2")
        assert graph.graph_similarity("x1", "x2") == 0.0

    def test_hand_computed_jaccard(self, schema):
        graph = Graph(schema)
        graph.assert_triple("a_ent", "hasVulnerability", "x")
        graph.assert_triple("a_ent", "hasVulnerability", "y")
        graph.assert_triple("b_ent", "hasVulnerability", "y")
        graph.assert_triple("b_ent", "hasVulnerability", "z")
        assert graph.graph_similarity("a_ent", "b_ent") == pytest.approx(1 / 3)

    def test_isolated_entity(self, schema):
        graph = Graph(schema)
        graph.assert_triple("x1", "hasVulnerability", "v1")
        assert graph.graph_similarity("loner", "x1") == 0.0
        assert graph.graph_similarity("loner", "loner") == 1.0

    def test_symmetric(self, advisory_graph):
        entities = sorted(advisory_graph.entities())
        for a in entities:
            for b in entities:
                assert advisory_graph.graph_similarity(a, b) == pytest.approx(
                    advisory_graph.graph_similarity(b, a))

    def test_self_similarity_with_edges(self, advisory_graph):
        assert advisory_graph.graph_similarity(
            "denial_of_service", "denial_of_service") == 1.0


class TestRetract:
    def test_assert_retract_restores_state(self, schema):
        graph = Graph(schema)
        graph.assert_triple("mysql", "hasVulnerability", "dos")
        before = graph.match_pattern(None, None, None)
        graph.assert_triple("mysql", "hasVulnerability", "xss")
        assert graph.retract_triple("mysql", "hasVulnerability", "xss")
        assert graph.match_pattern(None, None, None) == before
        assert graph.match_pattern("mysql", "hasVulnerability", None) == before
        assert not graph.retract_triple("mysql", "hasVulnerability", "xss")


class TestSnapshot:
    def test_snapshot_isolated_from_writer(self, schema):
        graph = Graph(schema)
        graph.assert_triple("mysql", "hasVulnerability", "dos")
        snap = graph.snapshot()
        graph.assert_triple("mysql", "hasVulnerability", "xss")
        assert len(snap) == 1
        assert len(graph) == 2

    def test_snapshot_preserves_merges(self, schema):
        graph = Graph(schema)
        graph.assert_triple("a_ent", "hasVulnerability", "v1")
        graph.merge_same_as("a_ent", "b_ent")
        snap = graph.snapshot()
        assert snap.match_pattern("b_ent", "hasVulnerability", None) == \
            graph.match_pattern("b_ent", "hasVulnerability", None)

    def test_snapshot_keeps_a_merge_whose_triple_was_retracted(self, schema):
        graph = Graph(schema)
        graph.assert_triple("a_ent", "hasVulnerability", "v1")
        graph.merge_same_as("a_ent", "b_ent")
        graph.retract_triple("a_ent", "sameAs", "b_ent")
        snap = graph.snapshot()
        expected = [Triple("a_ent", "hasVulnerability", "v1")]
        assert graph.match_pattern("b_ent", "hasVulnerability", None) == expected
        assert snap.match_pattern("b_ent", "hasVulnerability", None) == expected
        assert vars(snap) == vars(graph)
        snap.merge_same_as("b_ent", "c_ent")
        snap.retract_triple("a_ent", "hasVulnerability", "v1")
        assert graph.merged() == {"b_ent": "a_ent"}
        assert graph.match_pattern("b_ent", "hasVulnerability", None) == expected


class TestPersistence:
    def test_round_trip_byte_identical(self, advisory_graph, tmp_path):
        first = tmp_path / "graph1.nt"
        second = tmp_path / "graph2.nt"
        advisory_graph.save(first)
        loaded = Graph.load(first, advisory_graph.schema)
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_literals_round_trip(self, schema, tmp_path):
        graph = Graph(schema)
        graph.assert_triple("mysql", "hasVector", Literal("mysql"))
        graph.assert_triple("mysql", "hasVulnerability", Literal('we"ird\\lit'))
        path = tmp_path / "graph.nt"
        graph.save(path)
        loaded = Graph.load(path, schema)
        assert sorted(loaded, key=Triple.sort_key) == sorted(
            graph, key=Triple.sort_key)

    def test_malformed_line_rejected(self, schema):
        with pytest.raises(GraphFormatError) as err:
            Graph.parse("<a> <hasVulnerability> b .\n", schema)
        assert err.value.line == 1

    def test_undeclared_relation_rejected(self, schema):
        with pytest.raises(GraphFormatError):
            Graph.parse("<a> <unknownRel> <b> .\n", schema)

    @pytest.mark.parametrize("value", ["x\ny", "x\ry", "x\r\n", "x\u2028y"])
    def test_line_break_literal_rejected(self, schema, value):
        graph = Graph(schema)
        with pytest.raises(GraphFormatError) as err:
            graph.assert_triple("mysql", "hasVector", Literal(value))
        assert isinstance(err.value, VkgError)
        assert len(graph) == 0
        graph.assert_triple("mysql", "hasVector", Literal("x\ty"))
        assert Graph.parse(graph.to_text(), schema).to_text() == graph.to_text()


class TestSchemaParsing:
    def test_sections_parse(self):
        schema = Schema.parse("""
            [classes]
            product
            vulnerability
            [subclass]
            # none
            [relations]
            hasVulnerability product vulnerability
            relatedTo
            [aliases]
            vulnerability hasVulnerability
        """)
        assert schema.has_class("Product")
        assert schema.relations["hasVulnerability"] == ("product", "vulnerability")
        assert schema.relations["relatedTo"] == (None, None)
        assert schema.resolve_alias("VULNERABILITY") == "hasVulnerability"

    @pytest.mark.parametrize("edges, cyclic", [
        ([("a", "a")], True),
        ([("a", "b"), ("b", "a")], True),
        ([("a", "b"), ("b", "c"), ("c", "a")], True),
        ([("b", "a"), ("c", "a"), ("d", "b"), ("d", "c")], False),
    ], ids=["self-loop", "2-cycle", "3-cycle", "diamond"])
    def test_cycle_rejected(self, edges, cyclic):
        schema = Schema()
        for name in "abcd":
            schema.declare_class(name)
        *earlier, (child, parent) = edges
        for edge in earlier:
            schema.declare_subclass(*edge)
        if cyclic:
            with pytest.raises(SchemaError,
                               match=f"^subclass edge {child} -> {parent} creates a cycle$"):
                schema.declare_subclass(child, parent)
            assert schema.subclass_edges == set(earlier)
        else:
            schema.declare_subclass(child, parent)
            assert schema.subclasses("a") == {"a", "b", "c", "d"}

    def test_cycle_in_parsed_schema_keeps_its_line(self):
        text = "[classes]\na\nb\n[subclass]\na b\nb a\n"
        with pytest.raises(GraphFormatError,
                           match="^line 6: subclass edge b -> a creates a cycle$") as err:
            Schema.parse(text)
        assert err.value.line == 6

    def test_alias_to_unknown_relation_rejected(self):
        schema = Schema()
        with pytest.raises(SchemaError):
            schema.declare_alias("vulnerability", "hasVulnerability")

    def test_unknown_alias_resolution(self, schema):
        with pytest.raises(UnknownRelationError):
            schema.resolve_alias("nonsense")
