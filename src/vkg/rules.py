"""Named-rule engine over bound result sets and graph patterns.

Rules are single-shot alert decisions: a boolean condition over set
operations (intersect, subset, nonempty, size comparison) and graph-pattern
existence checks, combinable with AND/OR.  Evaluation is a pure function;
derived facts land in a returned overlay and touch the base graph only when
the caller commits them.

The classic overlap rule ships builtin under the name ``alert``: raise an
alert when two bound sets intersect, with the intersection as evidence.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial
from typing import AbstractSet, Iterator, Mapping, Sequence, Union

from ._scan import Cursor
from .errors import (
    DuplicateRuleNameError,
    RuleSyntaxError,
    UnboundParamError,
    UnknownRuleError,
)
from .kg import Graph, Triple, normalize

ALERT_YES = "alert_yes"
ALERT_NO = "alert_no"

#: Deepest nesting of condition parentheses and ``intersect(`` a rule may use.
MAX_NESTING = 64

_CMP_OPS = (">=", "<=", "==", "!=", ">", "<")


# --- condition AST ------------------------------------------------------------

@dataclass(frozen=True)
class SetRef:
    name: str


@dataclass(frozen=True)
class Intersect:
    left: "SetExpr"
    right: "SetExpr"


SetExpr = Union[SetRef, Intersect]


@dataclass(frozen=True)
class NonEmpty:
    expr: SetExpr


@dataclass(frozen=True)
class Subset:
    left: SetExpr
    right: SetExpr


@dataclass(frozen=True)
class SizeCmp:
    expr: SetExpr
    op: str
    value: int


@dataclass(frozen=True)
class Exists:
    """Graph-pattern atom; positions are tokens, the context param, or None."""

    subject: str | None
    predicate: str | None
    object: str | None


@dataclass(frozen=True)
class And:
    parts: tuple["CondExpr", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["CondExpr", ...]


CondExpr = Union[NonEmpty, Subset, SizeCmp, Exists, And, Or]


@dataclass(frozen=True)
class AssertAction:
    subject: str      # quoted token or the context param name
    predicate: str
    object: str


@dataclass(frozen=True)
class AlertAction:
    pass


Action = Union[AssertAction, AlertAction]


@dataclass(frozen=True)
class Rule:
    name: str
    params: tuple[str, ...]
    context_param: str | None
    condition: CondExpr
    actions: tuple[Action, ...]


@dataclass(frozen=True)
class Alert:
    """Outcome of one rule evaluation.

    For positive conditions (the shipped overlap rule included) a yes
    verdict always carries non-empty evidence; a degenerate condition such
    as ``size(S) == 0`` is the only way to fire with no witnesses.
    """

    verdict: bool
    rule: str
    evidence: frozenset[str]
    context: str | None

    @property
    def token(self) -> str:
        return ALERT_YES if self.verdict else ALERT_NO


class RuleSet:
    def __init__(self, rules: Sequence[Rule] = ()):
        self._rules: dict[str, Rule] = {}
        for rule in rules:
            if rule.name in self._rules:
                raise DuplicateRuleNameError(f"duplicate rule name '{rule.name}'")
            self._rules[rule.name] = rule

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, name: str) -> bool:
        return name in self._rules

    def __getitem__(self, name: str) -> Rule:
        try:
            return self._rules[name]
        except KeyError:
            raise UnknownRuleError(f"no rule named '{name}'") from None

    def names(self) -> list[str]:
        return sorted(self._rules)

    def with_defaults(self, defaults: "RuleSet") -> "RuleSet":
        """This rule set, plus any default rules whose names it does not bind."""
        merged = dict(defaults._rules)
        merged.update(self._rules)
        return RuleSet(list(merged.values()))


BUILTIN_RULES_TEXT = """\
# Raise an alert when two result sets overlap; the overlap is the evidence.
RULE alert(left, right) ON ctx WHEN nonempty(intersect(left, right)) THEN ALERT
"""


@cache
def builtin_rules() -> RuleSet:
    """The parsed BUILTIN_RULES_TEXT, parsed once per process (a RuleSet has no mutators)."""
    return parse_rules(BUILTIN_RULES_TEXT)


def load_rules(path) -> RuleSet:
    with open(path, encoding="utf-8") as fh:
        return parse_rules(fh.read())


# --- parsing ------------------------------------------------------------------

def parse_rules(text: str) -> RuleSet:
    """Parse ``RULE name(p, ...) [ON ctx] WHEN cond THEN action[, action]`` blocks."""
    parser = _RuleParser(text)
    rules = []
    while parser.peek().kind != "EOF":
        rules.append(parser.rule())
    return RuleSet(rules)


class _RuleParser(Cursor):
    operators = _CMP_OPS + ("(", ")", ",", "?")
    depth = 0

    def error(self, message: str, line: int, column: int) -> RuleSyntaxError:
        return RuleSyntaxError(f"line {line}: {message}")

    @contextmanager
    def nested(self) -> Iterator[None]:
        """One more ``(`` or ``intersect(`` level, at most :data:`MAX_NESTING` deep."""
        if self.depth == MAX_NESTING:
            raise self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        yield
        self.depth -= 1

    def rule(self) -> Rule:
        self.keyword("RULE")
        name = self.ident()
        self.op("(")
        params = [self.ident()]
        while self.at_op(","):
            self.advance()
            params.append(self.ident())
        self.op(")")
        if len(set(params)) != len(params):
            raise RuleSyntaxError(f"rule '{name}': duplicate parameter")
        context = None
        if self.at_keyword("ON"):
            self.advance()
            context = self.ident()
            if context in params:
                raise RuleSyntaxError(
                    f"rule '{name}': context '{context}' shadows a parameter")
        self.keyword("WHEN")
        env = _Declared(params=frozenset(params), context=context)
        condition = self.cond_or(env)
        self.keyword("THEN")
        actions = [self.action(env)]
        while self.at_op(","):
            self.advance()
            actions.append(self.action(env))
        return Rule(name, tuple(params), context, condition, tuple(actions))

    def cond_or(self, env: "_Declared") -> CondExpr:
        parts = [self.cond_and(env)]
        while self.at_keyword("OR"):
            self.advance()
            parts.append(self.cond_and(env))
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def cond_and(self, env: "_Declared") -> CondExpr:
        parts = [self.cond_atom(env)]
        while self.at_keyword("AND"):
            self.advance()
            parts.append(self.cond_atom(env))
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def cond_atom(self, env: "_Declared") -> CondExpr:
        if self.at_op("("):
            with self.nested():
                self.advance()
                inner = self.cond_or(env)
                self.op(")")
            return inner
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.fail("expected condition")
        word = tok.text.lower()
        sets = partial(self.set_expr, env)
        if word == "nonempty":
            return NonEmpty(*self.call(sets))
        if word == "subset":
            return Subset(*self.call(sets, sets))
        if word == "size":
            (expr,) = self.call(sets)
            op_tok = self.peek()
            if op_tok.kind != "OP" or op_tok.text not in _CMP_OPS:
                raise self.fail("expected comparison operator")
            self.advance()
            return SizeCmp(expr, op_tok.text, self.integer())
        if word == "exists":
            term = partial(self.pattern_term, env)
            return Exists(*self.call(term, partial(term, predicate=True), term))
        raise self.fail("expected nonempty/subset/size/exists")

    def set_expr(self, env: "_Declared") -> SetExpr:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.fail("expected set expression")
        if tok.text.lower() == "intersect":
            sets = partial(self.set_expr, env)
            with self.nested():
                return Intersect(*self.call(sets, sets))
        name = self.advance().text
        if name not in env.params:
            raise RuleSyntaxError(f"condition references undeclared param '{name}'")
        return SetRef(name)

    def pattern_term(self, env: "_Declared", predicate: bool = False) -> str | None:
        if self.at_op("?"):
            self.advance()
            return None
        tok = self.peek()
        if tok.kind == "QUOTED":
            return self.quoted("predicate" if predicate else "token", verbatim=predicate)
        if tok.kind == "IDENT" and predicate:
            return self.advance().text
        if tok.kind == "IDENT":
            if tok.text != env.context:
                raise RuleSyntaxError(
                    f"pattern term '{tok.text}' is neither quoted, '?', nor the context param")
            self.advance()
            return _CONTEXT_SENTINEL
        raise self.fail("expected quoted token, '?', or context param")

    def action(self, env: "_Declared") -> Action:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.fail("expected ALERT or ASSERT")
        word = tok.text.upper()
        if word == "ALERT":
            self.advance()
            return AlertAction()
        if word == "ASSERT":
            self.advance()
            s = self.pattern_term(env)
            p = self.pattern_term(env, predicate=True)
            o = self.pattern_term(env)
            for pos, term in (("subject", s), ("predicate", p), ("object", o)):
                if term is None:
                    raise RuleSyntaxError(f"ASSERT {pos} cannot be a wildcard")
            return AssertAction(s, p, o)
        raise self.fail("expected ALERT or ASSERT")


@dataclass(frozen=True)
class _Declared:
    params: frozenset[str]
    context: str | None


_CONTEXT_SENTINEL = "\x00ctx"


# --- evaluation ---------------------------------------------------------------

def evaluate(rule: Rule, args: Sequence[AbstractSet[str]], graph: Graph,
             context: str | None = None) -> tuple[Alert, tuple[Triple, ...]]:
    """Evaluate a rule against positionally bound sets.

    Returns the Alert plus derived triples in an overlay tuple; the base
    graph is never mutated here.  Deterministic: identical inputs give
    identical outputs.
    """
    if len(args) != len(rule.params):
        raise UnboundParamError(
            f"rule '{rule.name}' takes {len(rule.params)} set params, got {len(args)}")
    if rule.context_param is not None and context is None:
        raise UnboundParamError(f"rule '{rule.name}' requires an ON context entity")
    env = {name: frozenset(value) for name, value in zip(rule.params, args)}
    ctx = normalize(context) if context is not None else None
    verdict, evidence = _eval_cond(rule.condition, env, graph, ctx)
    derived: list[Triple] = []
    if verdict:
        for action in rule.actions:
            if isinstance(action, AssertAction):
                derived.append(graph.make_triple(
                    _resolve(action.subject, ctx, "action"),
                    action.predicate,
                    _resolve(action.object, ctx, "action"),
                ))
    alert = Alert(
        verdict=verdict,
        rule=rule.name,
        evidence=frozenset(evidence) if verdict else frozenset(),
        context=ctx,
    )
    return alert, tuple(derived)


def _eval_cond(cond: CondExpr, env: Mapping[str, frozenset[str]], graph: Graph,
               ctx: str | None) -> tuple[bool, frozenset[str]]:
    """Truth value plus the union of witness sets of the true atoms."""
    if isinstance(cond, And):
        results = [_eval_cond(part, env, graph, ctx) for part in cond.parts]
        value = all(v for v, _ in results)
        return value, frozenset().union(*(w for v, w in results if v))
    if isinstance(cond, Or):
        results = [_eval_cond(part, env, graph, ctx) for part in cond.parts]
        value = any(v for v, _ in results)
        witnesses = frozenset().union(*(w for v, w in results if v)) if value else frozenset()
        return value, witnesses
    if isinstance(cond, NonEmpty):
        value = _eval_set(cond.expr, env)
        return bool(value), value
    if isinstance(cond, Subset):
        left, right = _eval_set(cond.left, env), _eval_set(cond.right, env)
        ok = left <= right
        return ok, left if ok else frozenset()
    if isinstance(cond, SizeCmp):
        value = _eval_set(cond.expr, env)
        ok = _compare(len(value), cond.op, cond.value)
        return ok, value if ok else frozenset()
    if isinstance(cond, Exists):
        s = _resolve(cond.subject, ctx, "pattern")
        o = _resolve(cond.object, ctx, "pattern")
        matches = graph.match_pattern(s, cond.predicate, o)
        witnesses = set()
        for t in matches:
            witnesses.add(t.subject)
            if isinstance(t.object, str):
                witnesses.add(t.object)
        return bool(matches), frozenset(witnesses)
    raise TypeError(f"unknown condition node {cond!r}")


def _resolve(term: str | None, ctx: str | None, where: str) -> str | None:
    """The context entity for the context param (unbound only in a hand-built Rule)."""
    if term == _CONTEXT_SENTINEL:
        if ctx is None:
            raise UnboundParamError(f"{where} references the context param, none bound")
        return ctx
    return term


def _eval_set(expr: SetExpr, env: Mapping[str, frozenset[str]]) -> frozenset[str]:
    if isinstance(expr, SetRef):
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundParamError(f"set param '{expr.name}' is unbound") from None
    return _eval_set(expr.left, env) & _eval_set(expr.right, env)


def _compare(left: int, op: str, right: int) -> bool:
    return {
        ">=": left >= right, "<=": left <= right, "==": left == right,
        "!=": left != right, ">": left > right, "<": left < right,
    }[op]
