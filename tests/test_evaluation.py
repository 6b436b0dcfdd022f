"""Evaluation harness: AP oracle, backend MAP, wins, timing, sweep."""

from __future__ import annotations

import random

import numpy as np
import pytest

from vkg.datasets import MIXED_TRAINING, security_schema
from vkg.embedding import EmbeddingModel
from vkg.errors import CorpusFormatError, EmptyRelevantSetError
from vkg.evaluation import (
    SimilarityGroup,
    average_precision,
    evaluate_all,
    evaluate_backend,
    load_groups,
    rank_graph,
    rank_vector,
    rank_vkg,
    render_report,
    report_to_json,
    sweep,
    timing_comparison,
)
from vkg.kg import Graph
from vkg.linking import link_all


def ap_oracle(ranking, relevant):
    """Independent AP: recount the relevant prefix at every rank."""
    total = 0.0
    for r in range(1, len(ranking) + 1):
        if ranking[r - 1] in relevant:
            total += sum(1 for x in ranking[:r] if x in relevant) / r
    return total / len(relevant)


class TestAveragePrecision:
    def test_relevant_first_is_one(self):
        assert average_precision(["a", "b", "x", "y"], {"a", "b"}) == 1.0

    def test_no_relevant_in_ranking(self):
        assert average_precision(["x", "y"], {"a"}) == 0.0

    def test_hand_computed(self):
        assert average_precision(["x", "a", "y", "b"], {"a", "b"}) == \
            pytest.approx(0.5)

    def test_empty_relevant_set(self):
        with pytest.raises(EmptyRelevantSetError):
            average_precision(["x"], set())

    def test_duplicate_ranking_rejected(self):
        with pytest.raises(ValueError):
            average_precision(["x", "x"], {"x"})

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(19)
        items = [f"i{k}" for k in range(20)]
        for _ in range(300):
            size = int(rng.integers(1, 21))
            perm = rng.permutation(20)[:size]
            ranking = [items[int(j)] for j in perm]
            n_rel = int(rng.integers(1, 8))
            relevant = {items[int(j)] for j in rng.integers(0, 20, size=n_rel)}
            assert average_precision(ranking, relevant) == pytest.approx(
                ap_oracle(ranking, relevant), abs=1e-12)


def tiny_pair_fixture(schema):
    graph = Graph(schema)
    graph.assert_triple("va", "type", "vulnerability")
    graph.assert_triple("vb", "type", "vulnerability")
    graph.assert_triple("far", "type", "attack")
    model = EmbeddingModel(
        ["va", "vb", "far"],
        np.array([[1.0, 0.0], [0.99, 0.14], [0.0, 1.0]]),
    )
    table = link_all(graph, model)
    return graph, model, table


class TestEvaluateBackend:
    def test_mutually_nearest_pair_has_ap_one(self, schema):
        graph, model, table = tiny_pair_fixture(schema)
        groups = [SimilarityGroup("pair", "vulnerability", ("va", "vb"))]
        report = evaluate_backend("vector", groups, graph, model, table, k=2)
        assert report.per_group["pair"] == 1.0
        assert report.map_score == 1.0

    def test_missing_member_skipped_and_recorded(self, schema):
        graph, model, table = tiny_pair_fixture(schema)
        groups = [SimilarityGroup("pair", "vulnerability", ("va", "ghost"))]
        report = evaluate_backend("vector", groups, graph, model, table, k=2)
        assert ("pair", "ghost") in report.skipped
        # the present member still queries against the absent one
        assert report.per_group["pair"] == 0.0

    def test_unknown_backend(self, schema):
        graph, model, table = tiny_pair_fixture(schema)
        with pytest.raises(ValueError):
            evaluate_backend("quantum", [], graph, model, table)

    def test_map_permutation_invariant(self, mixed_fixture, mixed_linked):
        graph, model, table = mixed_linked
        groups = list(mixed_fixture.groups)
        forward = evaluate_backend("vector", groups, graph, model, table, k=10)
        backward = evaluate_backend("vector", groups[::-1], graph, model,
                                    table, k=10)
        assert forward.map_score == pytest.approx(backward.map_score)
        assert forward.per_group == backward.per_group

    def test_filter_identity_property(self, mixed_linked):
        """Removing the class filter reproduces vector rankings restricted
        to linked entities."""
        graph, model, table = mixed_linked
        linked = set(table.links)
        for query in sorted(linked)[:8]:
            unfiltered = rank_vkg(graph, model, table, query, 10, None)
            restricted = [tok for tok in rank_vector(model, query, len(model))
                          if tok in linked][:10]
            assert unfiltered == restricted


def explicit_universe_map(graph, groups, k):
    """The graph backend's MAP with every ranking over sorted(graph.entities())."""
    universe = sorted(graph.entities())
    per_group = []
    for group in groups:
        aps = [average_precision(rank_graph(graph, member, k, universe),
                                 set(group.members) - {member})
               for member in group.members if member in universe]
        if aps:
            per_group.append(sum(aps) / len(aps))
    return sum(per_group) / len(per_group) if per_group else 0.0


def random_merged_graph(seed):
    rng = random.Random(seed)
    graph = Graph(security_schema())
    names = [f"e{i:02d}" for i in range(40)]
    for _ in range(150):
        if rng.random() < 0.3:
            graph.assert_triple(rng.choice(names), "type",
                                rng.choice(["product", "software", "vulnerability"]))
        else:
            graph.assert_triple(rng.choice(names), rng.choice(["hasVulnerability", "hasAttack"]),
                                rng.choice(names))
    for _ in range(6):
        graph.merge_same_as(rng.choice(names), rng.choice(names))
    for t in rng.sample(sorted(graph), 30):   # roots may lose their last triple
        graph.retract_triple(*t)
    groups = [SimilarityGroup(f"g{j}", "product", tuple(rng.sample(names, 4)))
              for j in range(8)]
    return graph, groups


class TestGraphBackend:
    def test_map_matches_an_explicit_universe_on_the_mixed_corpus(self, mixed_fixture,
                                                                 mixed_built):
        graph, _ = mixed_built
        for k in (3, 10, 50):
            report = evaluate_backend("graph", mixed_fixture.groups, graph, None, None, k)
            assert report.map_score == explicit_universe_map(graph, mixed_fixture.groups, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_map_matches_an_explicit_universe_on_merged_graphs(self, seed):
        graph, groups = random_merged_graph(seed)
        assert graph.merged()
        for k in (3, 10):
            report = evaluate_backend("graph", groups, graph, None, None, k)
            assert report.map_score == explicit_universe_map(graph, groups, k)

    def test_resolves_the_queries_not_the_universe(self, monkeypatch):
        # 500 products in groups of four that share a vulnerability: the
        # three others of a query's group reach the top 3 above the bound
        # 1/3 of every product that shares only the (type, product) pair
        graph = Graph(security_schema())
        for i in range(500):
            graph.assert_triple(f"p{i:03d}", "type", "product")
            graph.assert_triple(f"p{i:03d}", "hasVulnerability", f"w{i:03d}")
            graph.assert_triple(f"p{i:03d}", "hasVulnerability", f"v{i // 4:03d}")
        groups = [SimilarityGroup(f"g{j}", "product",
                                  tuple(f"p{i:03d}" for i in range(4 * j, 4 * j + 4)))
                  for j in range(0, 125, 12)]
        calls = {"resolve": 0, "_pairs": 0}
        for name in calls:
            method = getattr(Graph, name)

            def counted(self, arg, name=name, method=method):
                calls[name] += 1
                return method(self, arg)

            monkeypatch.setattr(Graph, name, counted)
        report = evaluate_backend("graph", groups, graph, None, None, k=3)
        queries = sum(len(g.members) for g in groups)
        assert report.map_score == 1.0 and not report.skipped
        assert calls["resolve"] <= queries + calls["_pairs"] < 500


class TestWins:
    def test_tie_split(self, schema):
        graph, model, table = tiny_pair_fixture(schema)
        groups = [SimilarityGroup("pair", "vulnerability", ("va", "vb"))]
        report = evaluate_all(groups, graph, model, table, k=2)
        assert sum(report.wins.values()) == pytest.approx(report.group_count)

    def test_wins_sum_to_group_count(self, mixed_fixture, mixed_linked):
        graph, model, table = mixed_linked
        report = evaluate_all(mixed_fixture.groups, graph, model, table, k=10)
        assert sum(report.wins.values()) == pytest.approx(report.group_count)
        assert report.group_count == len(mixed_fixture.groups)


class TestTiming:
    def test_result_structure(self, mixed_fixture, mixed_linked):
        graph, model, table = mixed_linked
        timing = timing_comparison(mixed_fixture.groups, graph, model, table,
                                   runs=3)
        assert timing.runs == 5  # at least five, per the measurement contract
        assert timing.vector_median > 0
        assert timing.graph_median > 0
        if not timing.below_floor:
            assert timing.ratio == pytest.approx(
                timing.graph_median / timing.vector_median)

    def test_degenerate_universe_below_floor(self, schema):
        graph, model, table = tiny_pair_fixture(schema)
        groups = [SimilarityGroup("pair", "vulnerability", ("va", "vb"))]
        timing = timing_comparison(groups, graph, model, table)
        assert timing.below_floor  # nothing to assert about the ratio


class TestGroupsFile:
    def test_load(self, bundled_workspace):
        groups = bundled_workspace["groups"]
        assert len(groups) == 7
        kinds = {g.kind for g in groups}
        assert kinds == {"vulnerability", "attack", "product"}

    def test_rejects_single_member(self, tmp_path):
        path = tmp_path / "groups.json"
        path.write_text('[{"name": "solo", "kind": "attack", "members": ["x"]}]')
        with pytest.raises(CorpusFormatError):
            load_groups(path)

    def test_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "groups.json"
        path.write_text('[{"name": "g", "kind": "animal", "members": ["x", "y"]}]')
        with pytest.raises(CorpusFormatError):
            load_groups(path)

    @pytest.mark.parametrize("text, message", [
        ("{not json", "invalid JSON"),
        ('[{"name": "g", "kind": "attack", "members": [5, "x"]}]',
         "members must be a list of strings, got [5, 'x']"),
        ('[{"name": "g", "kind": "attack", "members": "xy"}]',
         "members must be a list of strings, got 'xy'"),
    ], ids=["not-json", "int-member", "string-members"])
    def test_malformed_file_names_itself(self, tmp_path, text, message):
        path = tmp_path / "groups.json"
        path.write_text(text)
        with pytest.raises(CorpusFormatError) as err:
            load_groups(path)
        assert f"groups file {path}" in str(err.value)
        assert message in str(err.value)


class TestSweep:
    def test_rows_cover_grid(self, bundled_workspace):
        rows = sweep(bundled_workspace["sentences"], bundled_workspace["groups"],
                     MIXED_TRAINING, dimensions=(8,), min_counts=(1, 50))
        assert [(r.dimension, r.min_count) for r in rows] == [(8, 1), (8, 50)]
        assert rows[0].map_vector is not None
        assert rows[1].map_vector is None  # min_count 50 empties the fixture


class TestReporting:
    def test_render_and_json(self, mixed_fixture, mixed_linked):
        graph, model, table = mixed_linked
        report = evaluate_all(mixed_fixture.groups[:3], graph, model, table, k=5)
        text = render_report(report)
        assert "MAP" in text and "wins" in text
        payload = report_to_json(report)
        assert set(payload["backends"]) == {"graph", "vector", "vkg"}
        assert payload["group_count"] == 3
