"""The three-command query DSL: parse, decompose, and execute.

A composite query is a semicolon-joined list of SEARCH / LIST / INFER
statements.  SEARCH is similarity search on the vector side, filtered by
graph-asserted class membership (knowledge-graph-aided search); LIST and
INFER run purely on the graph side.  ``decompose`` partitions a parsed
query into a dependency DAG of vector-side and graph-side subqueries, and
``execute`` resolves it, optionally running independent nodes concurrently.
The sequential order is canonical: concurrent execution must produce
identical bindings.

Grammar (keywords case-insensitive, statements joined by ';'):

    search := "SEARCH" quoted ["CLASS" ident] ["TOPK" int] "AS" var
    list   := "LIST" ident "OF" (quoted | var) "AS" var
    infer  := "INFER" ident "FROM" var ("," var)* ["ON" quoted] "AS" var

Quoted terms are single-quoted normalized tokens; TOPK defaults to 10.
A variable in the OF position fans the listing out over every entity bound
to that variable and unions the results.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from ._scan import ScanError, Token, scan
from .embedding import EmbeddingModel
from .errors import (
    DuplicateVariableError,
    ExecutionError,
    QuerySyntaxError,
    UndefinedVariableError,
    UnknownClassError,
    VkgError,
)
from .kg import Graph, Schema, normalize
from .linking import LinkTable
from .rules import Alert, RuleSet, Triple, evaluate

DEFAULT_TOP_K = 10

_OPERATORS = (";", ",")


# --- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class SearchStmt:
    term: str
    class_filter: str | None
    k: int
    out_var: str


@dataclass(frozen=True)
class ListStmt:
    relation_alias: str
    source: Union[str, VarRef]
    out_var: str


@dataclass(frozen=True)
class InferStmt:
    rule_name: str
    in_vars: tuple[str, ...]
    context_entity: str | None
    out_var: str


Statement = Union[SearchStmt, ListStmt, InferStmt]


@dataclass(frozen=True)
class QueryAst:
    statements: tuple[Statement, ...]


def parse(text: str, schema: Schema | None = None,
          rules: RuleSet | None = None) -> QueryAst:
    """Parse a composite query; validates variable hygiene at parse time.

    With a schema, LIST relation keywords must resolve through its aliases;
    with a rule set, INFER rule names must exist.
    """
    try:
        tokens = scan(text, _OPERATORS)
    except ScanError as exc:
        raise QuerySyntaxError(exc.message, exc.line, exc.column) from None
    parser = _QueryParser(tokens)
    statements = parser.query()
    _validate(statements, schema, rules)
    return QueryAst(tuple(statements))


def unparse(ast: QueryAst) -> str:
    """Canonical text form; parse(unparse(ast)) == ast."""
    parts = []
    for stmt in ast.statements:
        if isinstance(stmt, SearchStmt):
            chunk = f"SEARCH '{stmt.term}'"
            if stmt.class_filter is not None:
                chunk += f" CLASS {stmt.class_filter}"
            chunk += f" TOPK {stmt.k} AS {stmt.out_var}"
        elif isinstance(stmt, ListStmt):
            source = stmt.source.name if isinstance(stmt.source, VarRef) \
                else f"'{stmt.source}'"
            chunk = f"LIST {stmt.relation_alias} OF {source} AS {stmt.out_var}"
        else:
            chunk = f"INFER {stmt.rule_name} FROM {', '.join(stmt.in_vars)}"
            if stmt.context_entity is not None:
                chunk += f" ON '{stmt.context_entity}'"
            chunk += f" AS {stmt.out_var}"
        parts.append(chunk)
    return "; ".join(parts)


class _QueryParser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str) -> QuerySyntaxError:
        tok = self.peek()
        shown = tok.text if tok.kind != "EOF" else "end of input"
        return QuerySyntaxError(f"{message} (at {shown!r})", tok.line, tok.column)

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text.upper() == word

    def keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            raise self.fail(f"expected {word}")
        self.advance()

    def ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.fail(f"expected {what}")
        return self.advance().text

    def quoted(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "QUOTED":
            raise self.fail(f"expected quoted {what}")
        self.advance()
        if not tok.text.strip():
            raise QuerySyntaxError(f"empty quoted {what}", tok.line, tok.column)
        return normalize(tok.text)

    def query(self) -> list[Statement]:
        statements = [self.statement()]
        while self.peek().kind == "OP" and self.peek().text == ";":
            self.advance()
            if self.peek().kind == "EOF":
                break  # trailing semicolon
            statements.append(self.statement())
        if self.peek().kind != "EOF":
            raise self.fail("expected ';' or end of query")
        return statements

    def statement(self) -> Statement:
        if self.at_keyword("SEARCH"):
            return self.search()
        if self.at_keyword("LIST"):
            return self.list_stmt()
        if self.at_keyword("INFER"):
            return self.infer()
        raise self.fail("expected SEARCH, LIST, or INFER")

    def search(self) -> SearchStmt:
        self.keyword("SEARCH")
        term = self.quoted("search term")
        class_filter = None
        if self.at_keyword("CLASS"):
            self.advance()
            class_filter = normalize(self.ident("class name"))
        k = DEFAULT_TOP_K
        if self.at_keyword("TOPK"):
            self.advance()
            tok = self.peek()
            if tok.kind != "INT":
                raise self.fail("expected integer after TOPK")
            self.advance()
            k = int(tok.text)
        self.keyword("AS")
        return SearchStmt(term, class_filter, k, self.ident("output variable"))

    def list_stmt(self) -> ListStmt:
        self.keyword("LIST")
        relation = self.ident("relation keyword").lower()
        self.keyword("OF")
        tok = self.peek()
        source: Union[str, VarRef]
        if tok.kind == "QUOTED":
            source = self.quoted("entity")
        elif tok.kind == "IDENT":
            source = VarRef(self.advance().text)
        else:
            raise self.fail("expected quoted entity or variable")
        self.keyword("AS")
        return ListStmt(relation, source, self.ident("output variable"))

    def infer(self) -> InferStmt:
        self.keyword("INFER")
        rule = self.ident("rule name")
        self.keyword("FROM")
        in_vars = [self.ident("input variable")]
        while self.peek().kind == "OP" and self.peek().text == ",":
            self.advance()
            in_vars.append(self.ident("input variable"))
        context = None
        if self.at_keyword("ON"):
            self.advance()
            context = self.quoted("context entity")
        self.keyword("AS")
        return InferStmt(rule, tuple(in_vars), context, self.ident("output variable"))


def _validate(statements: list[Statement], schema: Schema | None,
              rules: RuleSet | None) -> None:
    bound: set[str] = set()
    for stmt in statements:
        if isinstance(stmt, ListStmt):
            if isinstance(stmt.source, VarRef) and stmt.source.name not in bound:
                raise UndefinedVariableError(
                    f"variable '{stmt.source.name}' used before it is bound")
            if schema is not None:
                schema.resolve_alias(stmt.relation_alias)
        elif isinstance(stmt, InferStmt):
            for var in stmt.in_vars:
                if var not in bound:
                    raise UndefinedVariableError(
                        f"variable '{var}' used before it is bound")
            if rules is not None:
                rules[stmt.rule_name]  # raises UnknownRuleError
        if stmt.out_var in bound:
            raise DuplicateVariableError(
                f"variable '{stmt.out_var}' bound more than once")
        bound.add(stmt.out_var)


# --- planning -----------------------------------------------------------------

VECTOR_SIDE = "vector"
GRAPH_SIDE = "graph"


@dataclass(frozen=True)
class PlanNode:
    index: int
    side: str          # VECTOR_SIDE for SEARCH, GRAPH_SIDE for LIST/INFER
    statement: Statement


@dataclass(frozen=True)
class Plan:
    nodes: tuple[PlanNode, ...]
    edges: frozenset[tuple[int, int]]

    def dependencies(self, index: int) -> set[int]:
        return {src for src, dst in self.edges if dst == index}

    def reachable(self, start: int) -> set[int]:
        seen, stack = set(), [start]
        while stack:
            node = stack.pop()
            for src, dst in self.edges:
                if src == node and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen

    def is_parallel(self, a: int, b: int) -> bool:
        """No dependency path in either direction: safe to run concurrently."""
        return a != b and b not in self.reachable(a) and a not in self.reachable(b)

    def parallel_pairs(self) -> set[frozenset[int]]:
        n = len(self.nodes)
        return {
            frozenset((a, b))
            for a in range(n) for b in range(a + 1, n)
            if self.is_parallel(a, b)
        }


def decompose(ast: QueryAst) -> Plan:
    """Partition a query into vector-side and graph-side subqueries.

    Edges mirror variable references exactly; nodes with no path between
    them are parallel-eligible.
    """
    producers: dict[str, int] = {}
    nodes: list[PlanNode] = []
    edges: set[tuple[int, int]] = set()
    for i, stmt in enumerate(ast.statements):
        side = VECTOR_SIDE if isinstance(stmt, SearchStmt) else GRAPH_SIDE
        nodes.append(PlanNode(i, side, stmt))
        if isinstance(stmt, ListStmt) and isinstance(stmt.source, VarRef):
            edges.add((producers[stmt.source.name], i))
        elif isinstance(stmt, InferStmt):
            for var in stmt.in_vars:
                edges.add((producers[var], i))
        producers[stmt.out_var] = i
    return Plan(tuple(nodes), frozenset(edges))


# --- VKG search ---------------------------------------------------------------

def vkg_search(term: str, class_filter: str | None, k: int, graph: Graph,
               model: EmbeddingModel, links: LinkTable) -> list[tuple[str, float]]:
    """Knowledge-graph-aided similarity search.

    One exact scan of the vector neighborhood of the term, restricted
    before selection to the tokens linked to a qualifying entity: one whose
    class (with subclass closure) matches the filter, or any linked entity
    without a filter.  Hits are rewritten to their sameAs-canonical
    representative, and each canonical entity appears once, with its best
    score.
    """
    term = normalize(term)
    if k <= 0:
        return []
    linked = links.links
    merged = graph.merged()
    qualifying: Mapping[str, str] | set[str] = linked
    tokens: Iterable[str] = links.by_token
    if class_filter is not None:
        if not graph.schema.has_class(class_filter):
            raise UnknownClassError(f"unknown class '{class_filter}'")
        allowed = graph.instances_of(class_filter)   # canonical entities
        qualifying = {e for e in allowed if e in linked}
        qualifying |= {e for e, c in merged.items() if c in allowed and e in linked}
        tokens = {linked[e] for e in qualifying}
    # a canonical entity linked through several tokens can take several of
    # the scan's slots; widen the scan by that many so k distinct ones fit
    aliased = [e for e in merged if e in qualifying]
    targets = {merged[e] for e in aliased}
    width = k + len(aliased) - len({c for c in targets if c not in qualifying})
    results: list[tuple[str, float]] = []
    seen: set[str] = set()
    for token, score in model.top_k(term, width, among=model.row_mask(tokens)):
        hits = {merged.get(e, e) for e in links.by_token[token] if e in qualifying}
        for entity in sorted(hits - seen):
            seen.add(entity)
            results.append((entity, score))
    return results[:k]


# --- execution ----------------------------------------------------------------

ResultSet = tuple[tuple[str, float | None], ...]


@dataclass
class Bindings:
    """var -> ordered result set, plus alert details for INFER outputs."""

    values: dict[str, ResultSet] = field(default_factory=dict)
    alerts: dict[str, Alert] = field(default_factory=dict)
    derived: dict[str, tuple[Triple, ...]] = field(default_factory=dict)

    def entities(self, var: str) -> set[str]:
        return {entity for entity, _ in self.values[var]}


@dataclass(frozen=True)
class _Update:
    var: str
    result: ResultSet
    alert: Alert | None = None
    derived: tuple[Triple, ...] | None = None


def execute(plan: Plan, graph: Graph, model: EmbeddingModel | None,
            links: LinkTable | None, rules: RuleSet | None = None,
            parallel: bool = False,
            trace: list[tuple[int, str]] | None = None) -> Bindings:
    """Run every plan node and bind its output variable.

    Graph-side nodes never touch the model or link table (their handlers
    are not even passed them), so a plan without SEARCH statements runs
    with ``model=None``.  With ``parallel=True`` independent nodes run on
    worker threads against the shared read-only inputs while the calling
    thread alone assembles the bindings; results are identical to
    sequential execution.  ``trace`` records which side each node
    dispatched to, in statement order.
    """
    bindings = Bindings()
    if parallel:
        _execute_parallel(plan, graph, model, links, rules, bindings)
    else:
        for node in plan.nodes:
            _apply(_compute(node, graph, model, links, rules, bindings), bindings)
    _reorder(plan, bindings)
    if trace is not None:
        trace.extend((node.index, node.side) for node in plan.nodes)
    return bindings


def _execute_parallel(plan: Plan, graph: Graph, model: EmbeddingModel | None,
                      links: LinkTable | None, rules: RuleSet | None,
                      bindings: Bindings) -> None:
    done: set[int] = set()
    pending = {node.index: node for node in plan.nodes}
    futures: dict = {}
    with ThreadPoolExecutor(max_workers=max(1, len(plan.nodes))) as pool:
        while pending or futures:
            ready = [
                node for node in pending.values()
                if plan.dependencies(node.index) <= done
            ]
            for node in ready:
                del pending[node.index]
                fut = pool.submit(_compute, node, graph, model, links, rules, bindings)
                futures[fut] = node.index
            finished, _ = wait(futures, return_when=FIRST_COMPLETED)
            for fut in finished:
                index = futures.pop(fut)
                _apply(fut.result(), bindings)  # re-raises worker errors
                done.add(index)


def _reorder(plan: Plan, bindings: Bindings) -> None:
    order = [node.statement.out_var for node in plan.nodes]
    bindings.values = {var: bindings.values[var] for var in order}
    bindings.alerts = {var: bindings.alerts[var] for var in order if var in bindings.alerts}
    bindings.derived = {var: bindings.derived[var] for var in order if var in bindings.derived}


def _apply(update: _Update, bindings: Bindings) -> None:
    bindings.values[update.var] = update.result
    if update.alert is not None:
        bindings.alerts[update.var] = update.alert
    if update.derived is not None:
        bindings.derived[update.var] = update.derived


def _compute(node: PlanNode, graph: Graph, model: EmbeddingModel | None,
             links: LinkTable | None, rules: RuleSet | None,
             bindings: Bindings) -> _Update:
    stmt = node.statement
    try:
        if isinstance(stmt, SearchStmt):
            if model is None or links is None:
                raise VkgError("SEARCH requires an embedding model and link table")
            result = vkg_search(stmt.term, stmt.class_filter, stmt.k,
                                graph, model, links)
            return _Update(stmt.out_var, tuple(result))
        if isinstance(stmt, ListStmt):
            return _Update(stmt.out_var, _run_list(stmt, graph, bindings))
        return _run_infer(stmt, graph, rules, bindings)
    except VkgError as exc:
        raise ExecutionError(node.index, exc) from exc


def _run_list(stmt: ListStmt, graph: Graph, bindings: Bindings) -> ResultSet:
    relation = graph.schema.resolve_alias(stmt.relation_alias)
    if isinstance(stmt.source, VarRef):
        subjects = sorted(bindings.entities(stmt.source.name))
    else:
        subjects = [stmt.source]
    out: set[str] = set()
    for subject in subjects:
        for t in graph.match_pattern(subject, relation, None):
            if isinstance(t.object, str):
                out.add(t.object)
    return tuple((entity, None) for entity in sorted(out))


def _run_infer(stmt: InferStmt, graph: Graph, rules: RuleSet | None,
               bindings: Bindings) -> _Update:
    if rules is None:
        raise VkgError("INFER requires a rule set")
    rule = rules[stmt.rule_name]
    args = [bindings.entities(var) for var in stmt.in_vars]
    alert, derived = evaluate(rule, args, graph, context=stmt.context_entity)
    return _Update(stmt.out_var, ((alert.token, None),), alert=alert, derived=derived)


def format_bindings(bindings: Bindings) -> str:
    """One ``var = [entity(:score)?, ...]`` line per binding, in bind order."""
    lines = []
    for var, result in bindings.values.items():
        rendered = ", ".join(
            entity if score is None else f"{entity}:{score:.4f}"
            for entity, score in result
        )
        lines.append(f"{var} = [{rendered}]")
    return "\n".join(lines) + "\n"
