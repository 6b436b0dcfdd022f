"""hasVector link table: coverage, relinking, partition invariant, audit."""

from __future__ import annotations

import numpy as np
import pytest

from vkg import embedding, linking
from vkg.embedding import EmbeddingModel, TrainingConfig
from vkg.errors import UnlinkedEntityError
from vkg.kg import Graph, Literal, Triple
from vkg.linking import (
    audit_report,
    link_all,
    relink,
    resolve_vector,
    table_from_graph,
)


def model_over(tokens: list[str], dim: int = 4, seed: int = 0) -> EmbeddingModel:
    rng = np.random.default_rng(seed)
    return EmbeddingModel(tokens, rng.normal(size=(len(tokens), dim)))


class TestLinkAll:
    def test_advisory_full_coverage(self, advisory_graph):
        model = model_over(sorted(advisory_graph.entities()))
        table = link_all(advisory_graph, model)
        assert table.coverage == 1.0
        assert set(table.links) == advisory_graph.entities()
        stored = [t for t in advisory_graph if t.predicate == "hasVector"]
        assert len(stored) == len(table.links)
        assert all(isinstance(t.object, Literal) for t in stored)

    def test_empty_graph_vacuous_coverage(self, schema):
        table = link_all(Graph(schema), model_over(["anything"]))
        assert table.coverage == 1.0
        assert not table.links and not table.unlinked

    def test_partial_coverage(self, schema):
        graph = Graph(schema)
        graph.assert_triple("mysql", "hasVulnerability", "ghost_bug")
        table = link_all(graph, model_over(["mysql"]))
        assert table.links == {"mysql": "mysql"}
        assert table.unlinked == {"ghost_bug"}
        assert table.coverage == 0.5

    def test_partition_invariant(self, advisory_graph):
        model = model_over(sorted(advisory_graph.entities())[:3])
        table = link_all(advisory_graph, model)
        assert set(table.links) | table.unlinked == advisory_graph.entities()
        assert not set(table.links) & table.unlinked

    def test_idempotent(self, advisory_graph):
        model = model_over(sorted(advisory_graph.entities()))
        first = link_all(advisory_graph, model)
        second = link_all(advisory_graph, model)
        assert dict(first.links) == dict(second.links)
        assert first.unlinked == second.unlinked
        stored = [t for t in advisory_graph if t.predicate == "hasVector"]
        assert len(stored) == len(second.links)

    def test_classes_are_not_entities(self, advisory_graph):
        model = model_over(sorted(advisory_graph.entities()))
        table = link_all(advisory_graph, model)
        assert "vulnerability" not in table.links
        assert "vulnerability" not in table.unlinked


class TestLinkRule:
    """A link is ``<e> <hasVector> "e"`` for an entity e in the vocabulary."""

    def test_foreign_literal_is_unlinked_and_replaced(self, schema):
        graph = Graph(schema)
        graph.assert_triple("foo", "hasVulnerability", "ghost_bug")
        graph.assert_triple("foo", "hasVector", Literal("bar"))
        model = model_over(["foo", "bar"])
        table = table_from_graph(graph, model)
        assert not table.links and table.unlinked == {"foo", "ghost_bug"}
        table = link_all(graph, model)
        assert table.links == {"foo": "foo"}
        assert graph.triples_with("hasVector") == [Triple("foo", "hasVector", Literal("foo"))]

    def test_untagged_word_loses_its_link(self, schema):
        graph = Graph(schema)
        graph.assert_triple("foo", "type", "product")
        model = model_over(["foo"])
        assert link_all(graph, model).links == {"foo": "foo"}
        graph.retract_triple("foo", "type", "product")
        table = table_from_graph(graph, model)
        assert not table.links and not table.unlinked
        table = link_all(graph, model)
        assert not table.links and not table.unlinked
        assert len(graph) == 0

    def test_relink_touches_only_stale_links(self, advisory_graph, monkeypatch):
        graph = advisory_graph
        model = model_over(sorted(graph.entities()) + ["newcomer"])
        link_all(graph, model)
        calls = []

        def recording(name):
            method = getattr(graph, name)

            def record(*args):
                calls.append((name, *args))
                return method(*args)
            return record

        for name in ("assert_triple", "retract_triple"):
            monkeypatch.setattr(graph, name, recording(name))
        link = ("hasVector", Literal("newcomer"))
        graph.assert_triple("newcomer", "type", "vulnerability")
        calls.clear()
        assert "newcomer" in link_all(graph, model).links
        assert calls == [("assert_triple", "newcomer", *link)]
        graph.retract_triple("newcomer", "type", "vulnerability")
        calls.clear()
        assert "newcomer" not in link_all(graph, model).links
        assert calls == [("retract_triple", "newcomer", *link)]
        calls.clear()
        link_all(graph, model)
        assert calls == []


class TestRelink:
    def test_identical_vocabulary_bumps_version(self, advisory_graph):
        model = model_over(sorted(advisory_graph.entities()))
        table = link_all(advisory_graph, model)
        new_table, diff = relink(advisory_graph, model, table)
        assert dict(new_table.links) == dict(table.links)
        assert new_table.model_version == table.model_version + 1
        assert diff.gained == () and diff.lost == ()

    def test_vocabulary_gain(self, schema):
        graph = Graph(schema)
        graph.assert_triple("mysql", "hasVulnerability", "ghost_bug")
        table = link_all(graph, model_over(["mysql"]))
        assert "ghost_bug" in table.unlinked
        bigger = model_over(["mysql", "ghost_bug"])
        new_table, diff = relink(graph, bigger, table)
        assert "ghost_bug" in new_table.links
        assert diff.gained == ("ghost_bug",)

    def test_vocabulary_loss_retracts_triple(self, schema):
        graph = Graph(schema)
        graph.assert_triple("mysql", "hasVulnerability", "ghost_bug")
        table = link_all(graph, model_over(["mysql", "ghost_bug"]))
        smaller = model_over(["mysql"])
        new_table, diff = relink(graph, smaller, table)
        assert diff.lost == ("ghost_bug",)
        assert "ghost_bug" in new_table.unlinked
        stored = [t for t in graph if t.predicate == "hasVector"]
        assert [t.subject for t in stored] == ["mysql"]


class TestResolveVector:
    def test_linked_entity(self, advisory_graph):
        model = model_over(sorted(advisory_graph.entities()), dim=7)
        table = link_all(advisory_graph, model)
        vec = resolve_vector(table, model, "denial_of_service")
        assert vec.shape == (7,)

    def test_unlinked_entity(self, schema):
        graph = Graph(schema)
        graph.assert_triple("mysql", "hasVulnerability", "ghost_bug")
        table = link_all(graph, model_over(["mysql"]))
        with pytest.raises(UnlinkedEntityError):
            resolve_vector(table, model_over(["mysql"]), "ghost_bug")

    def test_same_as_keeps_per_entity_links(self, schema):
        graph = Graph(schema)
        graph.assert_triple("a_node", "hasVulnerability", "v1")
        graph.assert_triple("b_node", "hasVulnerability", "v1")
        graph.merge_same_as("a_node", "b_node")
        model = model_over(["a_node", "b_node", "v1"])
        table = link_all(graph, model)
        np.testing.assert_array_equal(
            resolve_vector(table, model, "a_node"), model.vector("a_node"))
        np.testing.assert_array_equal(
            resolve_vector(table, model, "b_node"), model.vector("b_node"))
        # the merged node carries both hasVector links
        stored = graph.match_pattern("a_node", "hasVector", None)
        assert {t.object.value for t in stored} == {"a_node", "b_node"}


class TestSharedVocabularyInvariant:
    def test_ingest_corpus_min_count_one_links_everything(self, bundled_workspace):
        graph = bundled_workspace["graph"].snapshot()
        cfg = TrainingConfig(dimension=8, window=3, min_count=1, epochs=1, seed=0)
        model = embedding.train(bundled_workspace["sentences"], cfg)
        table = link_all(graph, model)
        assert table.coverage == 1.0

    def test_min_count_two_unlinks_exactly_singletons(self, bundled_workspace):
        graph = bundled_workspace["graph"].snapshot()
        counts: dict[str, int] = {}
        for sentence in bundled_workspace["sentences"]:
            for token in sentence:
                counts[token] = counts.get(token, 0) + 1
        singles = {e for e in graph.entities() if counts.get(e, 0) < 2}
        assert singles, "fixture needs at least one singleton entity"
        cfg = TrainingConfig(dimension=8, window=3, min_count=2, epochs=1, seed=0)
        model = embedding.train(bundled_workspace["sentences"], cfg)
        table = link_all(graph, model)
        assert table.coverage < 1.0
        assert table.unlinked == singles


class TestAudit:
    def test_report_format(self, schema):
        graph = Graph(schema)
        graph.assert_triple("mysql", "hasVulnerability", "ghost_bug")
        table = link_all(graph, model_over(["mysql"]))
        lines = audit_report(table).splitlines()
        assert lines == [
            "LINKED mysql mysql",
            "UNLINKED ghost_bug",
            "COVERAGE 0.500000",
        ] or lines == [
            "UNLINKED ghost_bug",
            "LINKED mysql mysql",
            "COVERAGE 0.500000",
        ]

    def test_table_reconstruction(self, advisory_graph):
        model = model_over(sorted(advisory_graph.entities()))
        table = link_all(advisory_graph, model)
        rebuilt = table_from_graph(advisory_graph, model)
        assert dict(rebuilt.links) == dict(table.links)
        assert rebuilt.unlinked == table.unlinked
