"""Query DSL: parsing, planning, VKG search, execution, concurrency."""

from __future__ import annotations

import copy
import gc
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from helpers import random_ast

from vkg import linking, query
from vkg.embedding import EmbeddingModel
from vkg.errors import (
    DuplicateVariableError,
    ExecutionError,
    OutOfVocabularyError,
    QuerySyntaxError,
    UndefinedVariableError,
    UnknownClassError,
    UnknownRelationError,
    UnknownRuleError,
)
from vkg.kg import Graph, Literal, Schema
from vkg.linking import link_all
from vkg.query import (
    GRAPH_SIDE,
    VECTOR_SIDE,
    InferStmt,
    ListStmt,
    SearchStmt,
    VarRef,
    decompose,
    execute,
    format_bindings,
    parse,
    unparse,
    vkg_search,
)
from vkg.rules import builtin_rules, parse_rules

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
QUERY_1 = ("SEARCH 'denial_of_service' CLASS Vulnerability AS V; "
           "LIST vulnerability OF 'MySQL' AS K; "
           "INFER alert FROM V, K ON 'MySQL' AS A")


class TestParse:
    def test_query_1_shape(self):
        ast = parse(QUERY_1)
        assert ast.statements == (
            SearchStmt("denial_of_service", "vulnerability", 10, "V"),
            ListStmt("vulnerability", "mysql", "K"),
            InferStmt("alert", ("V", "K"), "mysql", "A"),
        )

    def test_empty_string_is_syntax_error(self):
        with pytest.raises(QuerySyntaxError):
            parse("")

    def test_undefined_variable(self):
        with pytest.raises(UndefinedVariableError):
            parse("INFER alert FROM V AS A")

    def test_duplicate_variable(self):
        with pytest.raises(DuplicateVariableError):
            parse("LIST vulnerability OF 'mysql' AS K; "
                  "LIST attack OF 'mysql' AS K")

    def test_error_carries_position(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse("SEARCH 'x' AS V;\nLIST vulnerability 'mysql' AS K")
        assert err.value.line == 2
        assert err.value.column > 1

    def test_keywords_case_insensitive(self):
        ast = parse("search 'dos' topk 3 as v")
        assert ast.statements[0] == SearchStmt("dos", None, 3, "v")

    def test_list_over_variable(self):
        ast = parse("SEARCH 'chrome' AS P; LIST vulnerability OF P AS K")
        assert ast.statements[1].source == VarRef("P")

    def test_unknown_alias_with_schema(self, schema):
        with pytest.raises(UnknownRelationError):
            parse("LIST nonsense OF 'mysql' AS K", schema=schema)

    def test_list_keeps_the_relation_keyword_as_written(self):
        schema = Schema.load(FIXTURES / "schema.txt")
        for keyword in ("hasAttack", "attack", "ATTACK", "Attack"):
            ast = parse(f"LIST {keyword} OF 'x' AS K", schema=schema)
            assert ast.statements[0] == ListStmt(keyword, "x", "K")
        with pytest.raises(UnknownRelationError):
            parse("LIST hasattack OF 'x' AS K", schema=schema)

    def test_unknown_rule_with_ruleset(self):
        with pytest.raises(UnknownRuleError):
            parse("LIST vulnerability OF 'mysql' AS K; "
                  "INFER missing FROM K AS A", rules=builtin_rules())

    def test_unterminated_quote(self):
        with pytest.raises(QuerySyntaxError):
            parse("SEARCH 'dos AS V")


class TestUnparse:
    def test_query_1_round_trip(self):
        ast = parse(QUERY_1)
        assert parse(unparse(ast)) == ast

    def test_generated_asts_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            ast = random_ast(
                rng,
                terms=["denial_of_service", "chrome_browser"],
                classes=["vulnerability", "product"],
                relations=["vulnerability", "attack"],
                entities=["mysql", "nginx_server"],
                rule_names=["alert"],
            )
            assert parse(unparse(ast)) == ast


class TestDecompose:
    def test_query_1_plan(self):
        plan = decompose(parse(QUERY_1))
        assert len(plan.nodes) == 3
        assert plan.edges == frozenset({(0, 2), (1, 2)})
        assert [n.side for n in plan.nodes] == [VECTOR_SIDE, GRAPH_SIDE, GRAPH_SIDE]
        assert frozenset((0, 1)) in plan.parallel_pairs()
        assert frozenset((0, 2)) not in plan.parallel_pairs()

    def test_waves_and_ancestors_match_path_oracle(self):
        assert decompose(parse(QUERY_1)).waves == ((0, 1), (2,))
        rng = np.random.default_rng(31)
        for _ in range(40):
            ast = random_ast(
                rng,
                terms=["dos"], classes=["vulnerability"],
                relations=["vulnerability"], entities=["mysql"],
                rule_names=["alert"], max_statements=8,
            )
            plan = decompose(ast)
            n = len(plan.nodes)
            reach = {(a, b) for a, b in plan.edges}
            for mid in range(n):   # transitive closure, Floyd-Warshall order
                reach |= {(a, b) for a, m in reach if m == mid
                          for m2, b in reach if m2 == mid}
            assert plan.ancestors == tuple(
                frozenset(a for a, b in reach if b == i) for i in range(n))
            assert plan.parallel_pairs() == {
                frozenset((a, b)) for a in range(n) for b in range(a + 1, n)
                if (a, b) not in reach}
            assert sorted(i for wave in plan.waves for i in wave) == list(range(n))
            depth = {i: d for d, wave in enumerate(plan.waves) for i in wave}
            assert all(depth[a] < depth[b] for a, b in plan.edges)
            assert all(d == 0 or any(depth[a] == d - 1 for a in plan.ancestors[i])
                       for i, d in depth.items())

    def test_single_search(self):
        plan = decompose(parse("SEARCH 'dos' AS V"))
        assert len(plan.nodes) == 1
        assert plan.edges == frozenset()

    def test_linear_chain_has_no_parallelism(self):
        text = ("SEARCH 'dos' AS A; LIST vulnerability OF A AS B; "
                "LIST attack OF B AS C; LIST vulnerability OF C AS D; "
                "LIST attack OF D AS E")
        plan = decompose(parse(text))
        assert len(plan.nodes) == 5
        assert plan.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
        assert plan.parallel_pairs() == set()

    def test_edges_mirror_variable_references(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            ast = random_ast(
                rng,
                terms=["dos"], classes=[c for c in ("vulnerability",)],
                relations=["vulnerability"], entities=["mysql"],
                rule_names=["alert"],
            )
            plan = decompose(ast)
            expected = set()
            producer = {}
            for i, stmt in enumerate(ast.statements):
                if isinstance(stmt, ListStmt) and isinstance(stmt.source, VarRef):
                    expected.add((producer[stmt.source.name], i))
                if isinstance(stmt, InferStmt):
                    for var in stmt.in_vars:
                        expected.add((producer[var], i))
                producer[stmt.out_var] = i
            assert plan.edges == frozenset(expected)


def crafted_search_fixture(schema):
    """Advisory-style graph with hand-placed vectors.

    crafted_web_site sits nearer to denial_of_service than any
    vulnerability does, but it is typed as a means, so the class filter
    must drop it.
    """
    graph = Graph(schema)
    graph.assert_triple("denial_of_service", "type", "vulnerability")
    graph.assert_triple("execute_arbitrary_code", "type", "vulnerability")
    graph.assert_triple("buffer_overflow", "type", "vulnerability")
    graph.assert_triple("crafted_web_site", "type", "means")
    graph.assert_triple("microsoft_internet_explorer", "type", "product")
    graph.assert_triple("microsoft_internet_explorer", "hasVulnerability",
                        "denial_of_service")
    tokens = ["denial_of_service", "crafted_web_site", "execute_arbitrary_code",
              "buffer_overflow", "microsoft_internet_explorer", "plainword"]
    vectors = np.array([
        [1.00, 0.00],   # denial_of_service: the query
        [0.99, 0.14],   # crafted_web_site: nearest, wrong class
        [0.90, 0.44],   # execute_arbitrary_code
        [0.70, 0.71],   # buffer_overflow
        [0.10, 0.99],   # the product, far away
        [0.95, 0.31],   # plainword: close but not a linked entity... yet linked
    ])
    model = EmbeddingModel(tokens, vectors)
    table = link_all(graph, model)
    return graph, model, table


class TestVkgSearch:
    def test_class_filter_drops_near_miss(self, schema):
        graph, model, table = crafted_search_fixture(schema)
        result = vkg_search("denial_of_service", "vulnerability", 2,
                            graph, model, table)
        assert [entity for entity, _ in result] == [
            "execute_arbitrary_code", "buffer_overflow"]

    def test_no_filter_keeps_linked_entities_only(self, schema):
        graph, model, table = crafted_search_fixture(schema)
        result = vkg_search("denial_of_service", None, 10, graph, model, table)
        got = [entity for entity, _ in result]
        # plainword is in the vocabulary but not a graph entity
        assert "plainword" not in got
        expected = [tok for tok, _ in model.top_k("denial_of_service", 10)
                    if tok in table.links]
        assert got == expected

    def test_unknown_class(self, schema):
        graph, model, table = crafted_search_fixture(schema)
        with pytest.raises(UnknownClassError):
            vkg_search("denial_of_service", "reptile", 2, graph, model, table)

    def test_out_of_vocabulary_term(self, schema):
        graph, model, table = crafted_search_fixture(schema)
        with pytest.raises(OutOfVocabularyError):
            vkg_search("missing", None, 2, graph, model, table)

    def test_matches_filtered_oracle_on_random_fixtures(self, mixed_linked):
        graph, model, table = mixed_linked
        rng = np.random.default_rng(5)
        instances = {
            cls: {graph.canonical(e) for e in graph.instances_of(cls)}
            for cls in ("vulnerability", "attack", "product")
        }
        linked_entities = sorted(table.links)
        for _ in range(25):
            query = linked_entities[rng.integers(0, len(linked_entities))]
            cls = (None if rng.random() < 0.3 else
                   ("vulnerability", "attack", "product")[rng.integers(0, 3)])
            k = int(rng.integers(1, 15))
            got = vkg_search(query, cls, k, graph, model, table)
            # oracle: full-vocabulary scan, filter, truncate
            expected = []
            for token, score in model.top_k(query, len(model)):
                for entity in sorted(e for e, t in table.links.items()
                                     if t == token):
                    if cls is None or graph.canonical(entity) in instances[cls]:
                        expected.append((entity, score))
            assert got == expected[:k]

    def test_class_smaller_than_k_returns_all_members(self, mixed_linked):
        graph, model, table = mixed_linked
        for cls in ("vulnerability", "attack", "product"):
            members = {e for e in graph.instances_of(cls) if e in table.links}
            outsider = min(set(table.links) - members)
            for query in sorted(members)[:3] + [outsider]:
                k = len(members) + 3
                got = vkg_search(query, cls, k, graph, model, table)
                expected = [(tok, score) for tok, score in model.top_k(query, len(model))
                            if tok in members]
                assert got == expected
                assert len(got) == len(members - {query})

    def test_class_without_linked_members_is_empty(self, schema):
        graph, model, table = crafted_search_fixture(schema)
        assert vkg_search("denial_of_service", "attacker", 3, graph, model, table) == []
        graph.assert_triple("ghost_attack", "type", "attack")   # not in the vocabulary
        table = link_all(graph, model)
        assert vkg_search("denial_of_service", "attack", 3, graph, model, table) == []

    def test_one_top_k_call_per_search(self, mixed_linked, monkeypatch):
        graph, model, table = mixed_linked
        calls = []
        scan = model.top_k

        def counting(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(model, "top_k", counting)
        searches = 0
        for query in sorted(table.links)[::4]:
            for cls in (None, "vulnerability", "attack", "product", "attacker"):
                for k in (1, 10, 40):
                    vkg_search(query, cls, k, graph, model, table)
                    searches += 1
                    assert len(calls) == searches

    def test_same_as_pair_takes_one_slot(self):
        graph, model, table = same_as_fixture(aa=0.995, bb=0.981, cc=0.9)
        scores = dict(model.top_k("q", 3))
        assert vkg_search("q", "c", 2, graph, model, table) == [
            ("aa", scores["aa"]), ("cc", scores["cc"])]
        assert vkg_search("q", None, 3, graph, model, table) == [
            ("aa", scores["aa"]), ("cc", scores["cc"])]

    def test_same_as_keeps_best_score_under_canonical_name(self):
        graph, model, table = same_as_fixture(aa=0.9, bb=0.995, cc=0.981)
        scores = dict(model.top_k("q", 3))
        assert vkg_search("q", "c", 2, graph, model, table) == [
            ("aa", scores["bb"]), ("cc", scores["cc"])]
        assert vkg_search("q", "c", 1, graph, model, table) == [("aa", scores["bb"])]

    def test_search_excludes_the_querys_own_same_as_class(self):
        graph, model, table = same_as_fixture(aa=0.995, bb=0.981, cc=0.9, dd=0.8)
        for query in ("aa", "bb"):
            scores = dict(model.top_k(query, len(model)))
            others = [("cc", scores["cc"]), ("dd", scores["dd"])]
            for cls in ("c", None):
                # bb is the query's nearest token, but it stands for aa's class
                assert vkg_search(query, cls, 2, graph, model, table) == others
                assert vkg_search(query, cls, 3, graph, model, table) == others


def same_as_fixture(**cosines):
    """aa, bb, cc typed c and linked, aa sameAs bb; q is a plain token at
    the given cosine from each."""
    schema = Schema()
    schema.declare_class("c")
    graph = Graph(schema)
    tokens, vectors = ["q"], [[1.0, 0.0]]
    for entity, cos in cosines.items():
        graph.assert_triple(entity, "type", "c")
        tokens.append(entity)
        vectors.append([cos, (1.0 - cos * cos) ** 0.5])
    model = EmbeddingModel(tokens, np.array(vectors))
    table = link_all(graph, model)
    graph.merge_same_as("aa", "bb")
    return graph, model, table


def alert_fixture(schema):
    """Graph and vectors arranged so V and K overlap on buffer_overflow."""
    graph = Graph(schema)
    for v in ("denial_of_service", "buffer_overflow", "memory_corruption",
              "sql_injection"):
        graph.assert_triple(v, "type", "vulnerability")
    graph.assert_triple("mysql", "type", "software")
    graph.assert_triple("nginx_server", "type", "product")
    graph.assert_triple("mysql", "hasVulnerability", "buffer_overflow")
    graph.assert_triple("mysql", "hasVulnerability", "sql_injection")
    graph.assert_triple("nginx_server", "hasVulnerability", "denial_of_service")
    tokens = ["denial_of_service", "buffer_overflow", "memory_corruption",
              "sql_injection", "mysql", "nginx_server"]
    vectors = np.array([
        [1.00, 0.00],
        [0.95, 0.31],
        [0.90, 0.44],
        [0.20, 0.98],
        [0.05, 1.00],
        [0.00, 1.00],
    ])
    model = EmbeddingModel(tokens, vectors)
    table = link_all(graph, model)
    return graph, model, table


class TestExecute:
    def test_query_1_alert_yes(self, schema):
        graph, model, table = alert_fixture(schema)
        rules = builtin_rules()
        plan = decompose(parse(QUERY_1, schema=graph.schema, rules=rules))
        bindings = execute(plan, graph, model, table, rules)
        assert bindings.values["A"] == (("alert_yes", None),)
        v = bindings.entities("V")
        k = bindings.entities("K")
        assert bindings.alerts["A"].evidence == frozenset(v & k)
        assert "buffer_overflow" in v & k

    def test_disjoint_sets_alert_no(self, schema):
        graph, model, table = alert_fixture(schema)
        rules = builtin_rules()
        text = ("SEARCH 'denial_of_service' CLASS vulnerability AS V; "
                "LIST vulnerability OF 'nginx_server' AS K; "
                "INFER alert FROM V, K ON 'nginx_server' AS A")
        plan = decompose(parse(text))
        bindings = execute(plan, graph, model, table, rules)
        # nginx lists only denial_of_service, which a search for it never returns
        assert bindings.values["A"] == (("alert_no", None),)
        assert bindings.alerts["A"].evidence == frozenset()

    def test_list_unknown_entity_is_empty(self, schema):
        graph, model, table = alert_fixture(schema)
        plan = decompose(parse("LIST vulnerability OF 'ghost' AS K"))
        bindings = execute(plan, graph, None, None)
        assert bindings.values["K"] == ()

    def test_list_by_relation_id_on_the_fixtures_schema(self):
        graph = Graph(Schema.load(FIXTURES / "schema.txt"))
        graph.assert_triple("mysql", "hasAttack", "remote_code_execution")
        plan = decompose(parse("LIST hasAttack OF 'MySQL' AS K", schema=graph.schema))
        assert execute(plan, graph, None, None).values["K"] == (
            ("remote_code_execution", None),)

    @pytest.mark.parametrize("source, expected", [
        ("'mysql'", ["bof", "sql_injection"]),     # literal object skipped
        ("'my_sql'", ["bof", "sql_injection"]),    # merged-away subject
        ("'ghost'", []),                           # unknown subject
        ("P", ["heap_spray"]),                     # fan-out over a merged object
    ])
    def test_list_equals_the_match_pattern_projection(self, schema, source, expected):
        graph = Graph(schema)
        graph.assert_triple("mysql", "hasVulnerability", "buffer_overflow")
        graph.assert_triple("mysql", "hasVulnerability", Literal("CVE-2024-1"))
        graph.assert_triple("zz_sql", "hasVulnerability", "sql_injection")
        graph.assert_triple("buffer_overflow", "hasVulnerability", "heap_spray")
        graph.merge_same_as("my_sql", "mysql")
        graph.merge_same_as("zz_sql", "my_sql")          # asserted on a merged-away name
        graph.merge_same_as("buffer_overflow", "bof")    # canonical 'bof'
        text = f"LIST vulnerability OF 'mysql' AS P; LIST vulnerability OF {source} AS K"
        bindings = execute(decompose(parse(text)), graph, None, None)
        subjects = bindings.entities("P") if source == "P" else {source.strip("'")}
        projection = {t.object for subject in subjects
                      for t in graph.match_pattern(subject, "hasVulnerability", None)
                      if isinstance(t.object, str)}
        assert sorted(projection) == expected
        assert bindings.values["K"] == tuple((e, None) for e in expected)

    def test_fan_out_equals_two_step_oracle(self, schema):
        graph, model, table = alert_fixture(schema)
        text = ("SEARCH 'mysql' TOPK 2 AS P; LIST vulnerability OF P AS K")
        plan = decompose(parse(text))
        bindings = execute(plan, graph, model, table)
        products = bindings.entities("P")
        expected = set()
        for product in products:
            for t in graph.match_pattern(product, "hasVulnerability", None):
                expected.add(t.object)
        assert bindings.entities("K") == expected

    def test_graph_side_runs_without_model(self, schema):
        graph, _, _ = alert_fixture(schema)
        rules = builtin_rules()
        text = ("LIST vulnerability OF 'mysql' AS K; "
                "LIST vulnerability OF 'nginx_server' AS J; "
                "INFER alert FROM K, J ON 'mysql' AS A")
        plan = decompose(parse(text))
        bindings = execute(plan, graph, None, None, rules)
        assert bindings.values["A"] == (("alert_no", None),)

    def test_trace_partition(self, schema):
        graph, model, table = alert_fixture(schema)
        rules = builtin_rules()
        plan = decompose(parse(QUERY_1))
        trace: list[tuple[int, str]] = []
        execute(plan, graph, model, table, rules, trace=trace)
        assert trace == [(0, VECTOR_SIDE), (1, GRAPH_SIDE), (2, GRAPH_SIDE)]

    def test_execution_error_carries_statement_index(self, schema):
        graph, model, table = alert_fixture(schema)
        plan = decompose(parse("LIST vulnerability OF 'mysql' AS K; "
                               "SEARCH 'missing_token' AS V"))
        with pytest.raises(ExecutionError) as err:
            execute(plan, graph, model, table)
        assert err.value.statement_index == 1
        with pytest.raises(ExecutionError) as err:
            execute(plan, graph, model, table, parallel=True)
        assert err.value.statement_index == 1

    @pytest.mark.parametrize("parallel", [False, True])
    def test_reserved_character_in_asserted_token_is_execution_error(
            self, schema, parallel):
        graph, model, table = alert_fixture(schema)
        rules = parse_rules("RULE r(a) WHEN size(a) == 0 "
                            "THEN ASSERT 'x<y' 'hasVulnerability' 'z'")
        plan = decompose(parse("LIST vulnerability OF 'ghost' AS K; "
                               "INFER r FROM K AS A", rules=rules))
        with pytest.raises(ExecutionError, match="reserved character") as err:
            execute(plan, graph, model, table, rules, parallel=parallel)
        assert err.value.statement_index == 1

    def test_sequential_run_builds_no_pool_and_no_waves(self, schema, monkeypatch):
        graph, model, table = alert_fixture(schema)
        plan = decompose(parse(QUERY_1))
        execute(plan, graph, model, table, builtin_rules())
        assert "waves" not in vars(plan) and "ancestors" not in vars(plan)

    def test_format_bindings(self, schema):
        graph, model, table = alert_fixture(schema)
        plan = decompose(parse("LIST vulnerability OF 'mysql' AS K"))
        out = format_bindings(execute(plan, graph, None, None))
        assert out == "K = [buffer_overflow, sql_injection]\n"


class TestParallelExecution:
    def test_parallel_equals_sequential_on_random_queries(self, mixed_linked):
        graph, model, table = mixed_linked
        rules = builtin_rules()
        entities = sorted(table.links)
        rng = np.random.default_rng(29)
        for _ in range(10):
            ast = random_ast(
                rng,
                terms=entities,
                classes=["vulnerability", "attack", "product"],
                relations=["vulnerability", "attack"],
                entities=entities,
                rule_names=["alert"],
            )
            plan = decompose(ast)
            sequential = execute(plan, graph, model, table, rules, parallel=False)
            concurrent = execute(plan, graph, model, table, rules, parallel=True)
            assert sequential.values == concurrent.values
            assert sequential.alerts == concurrent.alerts
            assert sequential.derived == concurrent.derived
            assert format_bindings(sequential) == format_bindings(concurrent)
            for name in ("values", "alerts", "derived"):
                assert list(getattr(sequential, name)) == list(getattr(concurrent, name))

    def test_wave_order_run_starts_no_thread_and_binds_in_statement_order(
            self, schema, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"execute started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        graph, model, table = alert_fixture(schema)
        rules = builtin_rules()
        plan = decompose(parse("LIST vulnerability OF 'mysql' AS K; "
                               "INFER alert FROM K, K ON 'mysql' AS A; "
                               "SEARCH 'mysql' TOPK 2 AS V", rules=rules))
        assert plan.waves == ((0, 2), (1,))
        bindings = execute(plan, graph, model, table, rules, parallel=True)
        assert list(bindings.values) == ["K", "A", "V"]
        assert bindings == execute(plan, graph, model, table, rules)

    def test_reader_threads_share_a_cold_class_cache(self, schema):
        # many readers on one graph: each builds or reuses whole cache entries
        plan = decompose(parse("SEARCH 'mysql' CLASS vulnerability TOPK 3 AS A; "
                               "SEARCH 'buffer_overflow' CLASS product TOPK 3 AS B"))
        expected = execute(plan, *alert_fixture(schema)).values
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                graph, model, table = alert_fixture(schema)   # no cached rows yet
                with ThreadPoolExecutor(max_workers=4) as pool:
                    runs = list(pool.map(lambda _: execute(plan, graph, model, table).values,
                                         range(8)))
                assert all(values == expected for values in runs)
                assert sorted(query._CLASS_ROWS[graph]) == ["product", "vulnerability"]
        finally:
            sys.setswitchinterval(interval)

    def test_parallel_reads_leave_a_merged_graph_unchanged(self):
        graph, model, table = same_as_fixture(aa=0.995, bb=0.981, cc=0.9, dd=0.8,
                                              ee=0.7, ff=0.6)
        graph.merge_same_as("ee", "ff")
        graph.merge_same_as("dd", "ee")   # ff joins dd's class through ee
        state = {key: value for key, value in vars(graph).items() if key != "schema"}
        before = copy.deepcopy(state)
        terms = ["q", "aa", "bb", "cc", "dd", "ee", "ff", "q"]
        plan = decompose(parse("; ".join(
            f"SEARCH '{t}' CLASS c TOPK 3 AS V{i}" for i, t in enumerate(terms))))
        assert plan.waves == (tuple(range(len(terms))),)   # eight workers
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [execute(plan, graph, model, table, parallel=True).values
                    for _ in range(20)]
        finally:
            sys.setswitchinterval(interval)
        assert state == before
        expected = execute(plan, graph, model, table).values
        assert all(values == expected for values in runs)

    def test_a_cold_class_cache_under_parallel_execute(self, schema):
        # more workers than cores, three of them on one cache entry
        plan = decompose(parse("SEARCH 'mysql' CLASS vulnerability TOPK 3 AS A; "
                               "SEARCH 'nginx_server' CLASS vulnerability TOPK 3 AS B; "
                               "SEARCH 'sql_injection' CLASS vulnerability TOPK 3 AS C; "
                               "SEARCH 'buffer_overflow' CLASS product TOPK 3 AS D"))
        assert plan.waves == ((0, 1, 2, 3),)
        expected = execute(plan, *alert_fixture(schema)).values
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                graph, model, table = alert_fixture(schema)   # no cached rows yet
                assert execute(plan, graph, model, table, parallel=True).values == expected
                assert sorted(query._CLASS_ROWS[graph]) == ["product", "vulnerability"]
        finally:
            sys.setswitchinterval(interval)

    def test_cached_class_rows_stay_one_per_filter_and_go_with_their_graph(self, schema):
        graph, model, table = alert_fixture(schema)
        filters = ["vulnerability", "product", "software"]
        for i in range(200):
            word, cls = [("sql_injection", "product"), ("nginx_server", "vulnerability"),
                         ("memory_corruption", "software")][i // 2 % 3]
            if i % 2 == 0:
                graph.assert_triple(word, "type", cls)
            else:
                graph.retract_triple(word, "type", cls)
            table = link_all(graph, model)
            for class_filter in filters:
                vkg_search("mysql", class_filter, 3, graph, model, table)
        assert sorted(query._CLASS_ROWS[graph]) == sorted(filters)
        (key,) = [ref for ref in query._CLASS_ROWS.keyrefs() if ref() is graph]
        del graph
        gc.collect()
        assert key() is None
        assert all(ref is not key for ref in query._CLASS_ROWS.keyrefs())

    def test_parallel_error_comes_from_the_earliest_failing_wave(self, schema):
        graph, model, table = alert_fixture(schema)
        # no rule set: INFER (statement 1, wave 1) fails; so does the SEARCH
        # for an unknown token (statement 2, wave 0)
        plan = decompose(parse("LIST vulnerability OF 'mysql' AS K; "
                               "INFER alert FROM K, K ON 'mysql' AS A; "
                               "SEARCH 'missing_token' AS V; "
                               "SEARCH 'missing_too' AS W"))
        assert plan.waves == ((0, 2, 3), (1,))
        with pytest.raises(ExecutionError) as err:
            execute(plan, graph, model, table)
        assert err.value.statement_index == 1
        with pytest.raises(ExecutionError) as err:
            execute(plan, graph, model, table, parallel=True)
        assert err.value.statement_index == 2
