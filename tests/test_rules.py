"""Rule engine: parsing, overlap soundness, witnesses, derived overlays."""

from __future__ import annotations

from itertools import chain, combinations

import pytest

from vkg.errors import (
    DuplicateRuleNameError,
    RuleSyntaxError,
    UnboundParamError,
    UnknownRuleError,
)
from vkg import rules as rules_module
from vkg.kg import Graph
from vkg.rules import (
    MAX_NESTING,
    AssertAction,
    Exists,
    NonEmpty,
    Rule,
    SetRef,
    builtin_rules,
    evaluate,
    load_rules,
    parse_rules,
)


@pytest.fixture()
def graph(schema):
    g = Graph(schema)
    g.assert_triple("mysql", "hasVulnerability", "denial_of_service")
    g.assert_triple("denial_of_service", "type", "vulnerability")
    return g


class TestParsing:
    def test_builtin_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("RULE alert(left, right) ON ctx "
                        "WHEN nonempty(intersect(left, right)) THEN ALERT\n")
        rules = load_rules(path)
        assert len(rules) == 1
        assert "alert" in rules

    def test_duplicate_name(self):
        text = ("RULE a(x) WHEN nonempty(x) THEN ALERT\n"
                "RULE a(y) WHEN nonempty(y) THEN ALERT\n")
        with pytest.raises(DuplicateRuleNameError):
            parse_rules(text)

    def test_undeclared_param(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("RULE a(x) WHEN nonempty(y) THEN ALERT")

    def test_unknown_rule_lookup(self):
        with pytest.raises(UnknownRuleError):
            builtin_rules()["missing"]

    def test_context_cannot_shadow_param(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("RULE a(x) ON x WHEN nonempty(x) THEN ALERT")

    def test_with_defaults(self):
        custom = parse_rules("RULE extra(x) WHEN nonempty(x) THEN ALERT")
        merged = custom.with_defaults(builtin_rules())
        assert "alert" in merged and "extra" in merged
        override = parse_rules("RULE alert(x) WHEN size(x) >= 9 THEN ALERT")
        merged = override.with_defaults(builtin_rules())
        assert len(merged["alert"].params) == 1

    def test_builtin_rules_parsed_once(self):
        assert builtin_rules() is builtin_rules()
        parse_rules("RULE alert(x) WHEN size(x) >= 9 THEN ALERT").with_defaults(builtin_rules())
        assert builtin_rules()["alert"].params == ("left", "right")

    def test_size_comparisons_parse(self):
        for op in (">=", "<=", "==", "!=", ">", "<"):
            rules = parse_rules(f"RULE r(x) WHEN size(x) {op} 2 THEN ALERT")
            assert "r" in rules

    @pytest.mark.parametrize("text", [
        "RULE r(a) WHEN exists('', 'p', ?) THEN ALERT",
        "RULE r(a) WHEN exists('mysql', '  ', ?) THEN ALERT",
        "RULE r(a) WHEN nonempty(a) THEN ASSERT ' ' 'hasVulnerability' 'x'",
        "RULE r(a) WHEN nonempty(a) THEN ASSERT 'mysql' 'hasVulnerability' ''",
    ])
    def test_empty_quoted_token_is_syntax_error(self, text):
        with pytest.raises(RuleSyntaxError, match="line 1: empty quoted"):
            parse_rules(text)

    @staticmethod
    def nested_parens(depth: int) -> str:
        return ("RULE r(a) WHEN " + "(" * depth + "nonempty(a)" + ")" * depth
                + " THEN ALERT")

    @staticmethod
    def nested_intersects(depth: int) -> str:
        return ("RULE r(a) WHEN nonempty(" + "intersect(a, " * depth + "a"
                + ")" * depth + ") THEN ALERT")

    @pytest.mark.parametrize("depth", [1000, MAX_NESTING + 1])
    def test_nesting_past_the_limit_is_syntax_error(self, depth):
        for text in (self.nested_parens(depth), self.nested_intersects(depth)):
            with pytest.raises(RuleSyntaxError, match="nesting deeper than"):
                parse_rules(text)

    def test_nesting_within_the_limit_parses_and_evaluates(self, graph):
        for depth in (50, MAX_NESTING):
            for text in (self.nested_parens(depth), self.nested_intersects(depth)):
                alert, _ = evaluate(parse_rules(text)["r"], [{"x"}], graph)
                assert alert.verdict and alert.evidence == {"x"}


class TestOverlapRule:
    def test_overlap_yes_with_evidence(self, graph):
        rule = builtin_rules()["alert"]
        alert, derived = evaluate(
            rule, [{"denial_of_service", "xss"}, {"denial_of_service"}],
            graph, context="mysql")
        assert alert.verdict is True
        assert alert.token == "alert_yes"
        assert alert.evidence == frozenset({"denial_of_service"})
        assert alert.context == "mysql"
        assert derived == ()

    def test_no_overlap(self, graph):
        rule = builtin_rules()["alert"]
        alert, _ = evaluate(rule, [{"a"}, {"b"}], graph, context="mysql")
        assert alert.verdict is False
        assert alert.evidence == frozenset()

    def test_soundness_brute_force_over_six_element_universe(self, graph):
        rule = builtin_rules()["alert"]
        universe = ["u0", "u1", "u2", "u3", "u4", "u5"]
        subsets = list(chain.from_iterable(
            combinations(universe, r) for r in range(len(universe) + 1)))
        for left in subsets:
            for right in subsets:
                alert, _ = evaluate(rule, [set(left), set(right)], graph,
                                    context="mysql")
                expected = bool(set(left) & set(right))
                assert alert.verdict is expected
                if expected:
                    assert alert.evidence == frozenset(set(left) & set(right))
                    assert alert.evidence  # yes verdict implies evidence

    def test_pure_evaluation(self, graph):
        rule = builtin_rules()["alert"]
        args = [{"denial_of_service"}, {"denial_of_service", "xss"}]
        first = evaluate(rule, args, graph, context="mysql")
        second = evaluate(rule, args, graph, context="mysql")
        assert first == second


class TestConditions:
    def test_size_rule(self, graph):
        rules = parse_rules("RULE big(v) WHEN size(v) >= 3 THEN ALERT")
        alert, _ = evaluate(rules["big"], [{"a", "b"}], graph)
        assert alert.verdict is False
        alert, _ = evaluate(rules["big"], [{"a", "b", "c"}], graph)
        assert alert.verdict is True
        assert alert.evidence == frozenset({"a", "b", "c"})

    def test_subset(self, graph):
        rules = parse_rules("RULE sub(a, b) WHEN subset(a, b) THEN ALERT")
        alert, _ = evaluate(rules["sub"], [{"x"}, {"x", "y"}], graph)
        assert alert.verdict is True
        assert alert.evidence == frozenset({"x"})
        alert, _ = evaluate(rules["sub"], [{"x", "z"}, {"x", "y"}], graph)
        assert alert.verdict is False

    def test_exists_pattern(self, graph):
        rules = parse_rules(
            "RULE listed(v) ON ctx "
            "WHEN nonempty(v) AND exists(ctx, hasVulnerability, ?) THEN ALERT")
        alert, _ = evaluate(rules["listed"], [{"anything"}], graph,
                            context="mysql")
        assert alert.verdict is True
        assert "denial_of_service" in alert.evidence
        alert, _ = evaluate(rules["listed"], [{"anything"}], graph,
                            context="nginx_server")
        assert alert.verdict is False

    def test_or_combination(self, graph):
        rules = parse_rules(
            "RULE either(a, b) WHEN nonempty(a) OR nonempty(b) THEN ALERT")
        alert, _ = evaluate(rules["either"], [set(), {"x"}], graph)
        assert alert.verdict is True
        assert alert.evidence == frozenset({"x"})

    def test_intersect_nesting(self, graph):
        rules = parse_rules(
            "RULE tri(a, b, c) WHEN nonempty(intersect(intersect(a, b), c)) "
            "THEN ALERT")
        alert, _ = evaluate(rules["tri"], [{"x", "y"}, {"x"}, {"x", "z"}], graph)
        assert alert.verdict is True
        assert alert.evidence == frozenset({"x"})


class TestActionsAndBinding:
    def test_arity_mismatch(self, graph):
        rule = builtin_rules()["alert"]
        with pytest.raises(UnboundParamError):
            evaluate(rule, [{"a"}], graph, context="mysql")
        with pytest.raises(UnboundParamError):
            evaluate(rule, [{"a"}, {"b"}, {"c"}], graph, context="mysql")

    def test_missing_context(self, graph):
        rule = builtin_rules()["alert"]
        with pytest.raises(UnboundParamError):
            evaluate(rule, [{"a"}, {"a"}], graph)

    @pytest.mark.parametrize("where", ["action", "pattern"])
    def test_hand_built_rule_without_context_param(self, graph, where):
        # the parser binds every use of the context param; a hand-built Rule
        # can use it without declaring one
        ctx = rules_module._CONTEXT_SENTINEL
        condition = (Exists(ctx, "hasVulnerability", None) if where == "pattern"
                     else NonEmpty(SetRef("a")))
        rule = Rule("r", ("a",), None, condition,
                    (AssertAction(ctx, "hasVulnerability", "x"),))
        with pytest.raises(UnboundParamError, match=f"^{where} references"):
            evaluate(rule, [{"mysql"}], graph)

    def test_derived_triples_do_not_mutate_base_graph(self, graph):
        rules = parse_rules(
            "RULE flag(v) ON ctx WHEN nonempty(v) "
            "THEN ALERT, ASSERT ctx hasVulnerability 'derived_bug'")
        size_before = len(graph)
        alert, derived = evaluate(rules["flag"], [{"x"}], graph, context="mysql")
        assert alert.verdict is True
        assert len(graph) == size_before
        assert [(t.subject, t.predicate, t.object) for t in derived] == [
            ("mysql", "hasVulnerability", "derived_bug")]
        # explicit commit
        for t in derived:
            graph.assert_triple(t.subject, t.predicate, t.object)
        assert len(graph) == size_before + 1

    def test_no_derivation_when_condition_false(self, graph):
        rules = parse_rules(
            "RULE flag(v) ON ctx WHEN nonempty(v) "
            "THEN ASSERT ctx hasVulnerability 'derived_bug'")
        alert, derived = evaluate(rules["flag"], [set()], graph, context="mysql")
        assert alert.verdict is False
        assert derived == ()

    def test_derived_triple_validated_against_schema(self, graph):
        rules = parse_rules(
            "RULE flag(v) ON ctx WHEN nonempty(v) "
            "THEN ASSERT ctx bogusRelation 'x'")
        from vkg.errors import UnknownRelationError
        with pytest.raises(UnknownRelationError):
            evaluate(rules["flag"], [{"x"}], graph, context="mysql")
