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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

from ._scan import Cursor
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
    statements = _QueryParser(text).query()
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


class _QueryParser(Cursor):
    operators = (";", ",")

    def error(self, message: str, line: int, column: int) -> QuerySyntaxError:
        return QuerySyntaxError(message, line, column)

    def query(self) -> list[Statement]:
        statements = [self.statement()]
        while self.at_op(";"):
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
            k = self.integer("integer after TOPK")
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
        while self.at_op(","):
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

    @cached_property
    def ancestors(self) -> tuple[frozenset[int], ...]:
        """Per node, every node it depends on, directly or through others.

        Edges point forward (variables are bound before use), so parents come first.
        """
        parents: list[set[int]] = [set() for _ in self.nodes]
        for src, dst in self.edges:
            parents[dst].add(src)
        found: list[frozenset[int]] = []
        for direct in parents:
            found.append(frozenset(direct.union(*(found[p] for p in direct))))
        return tuple(found)

    @cached_property
    def waves(self) -> tuple[tuple[int, ...], ...]:
        """Node indices by dependency depth: a wave needs only earlier waves."""
        depth: list[int] = []
        for before in self.ancestors:
            depth.append(1 + max((depth[a] for a in before), default=-1))
        return tuple(tuple(i for i, d in enumerate(depth) if d == wave)
                     for wave in sorted(set(depth)))

    def is_parallel(self, a: int, b: int) -> bool:
        """No dependency path in either direction: safe to run concurrently."""
        return a != b and a not in self.ancestors[b] and b not in self.ancestors[a]

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
    score.  As ``top_k`` never returns the query token, a search never
    returns the query's own sameAs class (the entity named by the term, with
    everything merged into it).
    """
    term = normalize(term)
    if k <= 0:
        return []
    merged = graph.merged()
    own = {graph.canonical(term)}
    own |= {e for e, c in merged.items() if c in own}
    # qualifying rows: linked, passing the filter, outside the own class
    if class_filter is None:
        among = links.row_mask(model).copy()
    else:
        if not graph.schema.has_class(class_filter):
            raise UnknownClassError(f"unknown class '{class_filter}'")
        allowed = graph.instances_of(class_filter)   # canonical entities
        allowed |= {e for e, c in merged.items() if c in allowed}
        among = model.row_mask(allowed) & links.row_mask(model)
    among[model.row_mask(own)] = False
    # each hit token is its own entity; a merged-away one can take a scan
    # slot its canonical entity already holds, so widen the scan by one each
    width = k
    if merged:
        width += int((among & model.row_mask(merged)).sum())
    results: list[tuple[str, float]] = []
    seen: set[str] = set()
    for token, score in model.top_k(term, width, among=among):
        entity = merged.get(token, token)
        if entity not in seen:
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
    with ``model=None``.  With ``parallel=True`` the plan runs wave by
    wave (:attr:`Plan.waves`) on worker threads against the shared
    read-only inputs; a wave's bindings are applied once the whole wave has
    returned, so results equal sequential execution's.  A failure raises
    the ``ExecutionError`` of the earliest failing wave's first failing
    node (sequentially: of the first failing statement).  ``trace``
    records which side each node dispatched to, in statement order.
    """
    bindings = Bindings()
    if parallel:
        wave_bindings = Bindings()   # what the workers of later waves read

        def run(index: int) -> _Update:
            return _compute(plan.nodes[index], graph, model, links, rules, wave_bindings)

        updates: dict[int, _Update] = {}
        with ThreadPoolExecutor(max_workers=max(map(len, plan.waves), default=1)) as pool:
            for wave in plan.waves:
                updates.update(zip(wave, pool.map(run, wave)))
                for index in wave:
                    _apply(updates[index], wave_bindings)
        for index in sorted(updates):
            _apply(updates[index], bindings)
    else:
        for node in plan.nodes:
            _apply(_compute(node, graph, model, links, rules, bindings), bindings)
    if trace is not None:
        trace.extend((node.index, node.side) for node in plan.nodes)
    return bindings


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
