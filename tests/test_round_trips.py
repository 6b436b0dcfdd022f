"""Derandomized property round-trips of the ``.vec`` and ``.nt`` formats.

``.vec``: :meth:`EmbeddingModel.load_text` parses a file's rows with one
numpy call and falls back to a row-by-row parse.  Whatever the file, it must
agree with ``float_parse`` below, the row-by-row ``float()`` reader it
replaced: bit-identical vectors on success, and otherwise the same exception
type and message (the first error in the file wins; a non-finite component
is reported after the parse, at its file and row).

``.nt``: :meth:`Graph.parse` checks each distinct raw token once per parse.
It must build exactly the graph, or raise exactly the error, that asserting
each line's triple in turn through :meth:`Graph.assert_triple` gives.

``Triple`` and ``Literal`` are tuples: a literal never equals the entity
with the same text.

DSL: :func:`vkg.query.unparse` of any valid query AST parses back to it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vkg.embedding import EmbeddingModel, _bulk_rows
from vkg.errors import (
    DimensionMismatchError,
    DuplicateTokenError,
    GraphFormatError,
    MalformedHeaderError,
    NonFiniteVectorError,
    UnknownClassError,
    UnknownRelationError,
)
from vkg.kg import Graph, Literal, Schema, Triple, normalize
from vkg.query import (
    InferStmt,
    ListStmt,
    QueryAst,
    SearchStmt,
    VarRef,
    parse,
    unparse,
)

# huge finite components overflow the row norms the model computes; harmless here
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

FUZZ = settings(max_examples=200, deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


# --- .vec ---------------------------------------------------------------------

def float_parse(path) -> EmbeddingModel:
    """The row-by-row ``float()`` reader that ``load_text`` replaced."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise MalformedHeaderError("expected header '<vocab_size> <dimension>'")
        try:
            vocab_size, dimension = int(header[0]), int(header[1])
        except ValueError:
            raise MalformedHeaderError(
                f"non-integer header fields {header!r}") from None
        if vocab_size < 0 or dimension < 1:
            raise MalformedHeaderError(f"invalid header values {header!r}")
        tokens: list[str] = []
        seen: set[str] = set()
        vectors = np.empty((vocab_size, dimension))
        for i, line in enumerate(fh):
            if i >= vocab_size:
                raise MalformedHeaderError(
                    f"more rows than the declared vocabulary size {vocab_size}")
            fields = line.split()
            if len(fields) != dimension + 1:
                raise DimensionMismatchError(
                    f"row {i + 2}: expected {dimension} components, "
                    f"got {len(fields) - 1}")
            token = fields[0]
            if token in seen:
                raise DuplicateTokenError(f"duplicate token '{token}'")
            seen.add(token)
            tokens.append(token)
            try:
                vectors[i] = [float(x) for x in fields[1:]]
            except ValueError:
                raise DimensionMismatchError(
                    f"row {i + 2}: non-numeric component") from None
        if len(tokens) != vocab_size:
            raise MalformedHeaderError(
                f"header declares {vocab_size} rows, file has {len(tokens)}")
    for i, row in enumerate(vectors):
        if not all(math.isfinite(x) for x in row):
            raise NonFiniteVectorError(f"{path}: row {i + 2}: non-finite component", i)
    return EmbeddingModel(tokens, vectors)


def outcome(read, path):
    """(tokens, vector bits) on success, else (exception type, message)."""
    try:
        model = read(path)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)
    return model.tokens, model.vectors.shape, model.vectors.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)
token = st.one_of(
    st.sampled_from(["a", "mysql", "Ünïcode", "x_1", "1.5"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5)
    .filter(lambda t: t.split() == [t]),
)


@FUZZ
@given(data=st.data(), rows=st.integers(1, 8), dim=st.integers(1, 5))
def test_vec_save_load_is_bit_identical_to_float_parse(tmp_path, data, rows, dim):
    tokens = data.draw(st.lists(token, min_size=rows, max_size=rows, unique=True))
    vectors = np.array(data.draw(st.lists(
        st.lists(finite, min_size=dim, max_size=dim), min_size=rows, max_size=rows)))
    path = tmp_path / "model.vec"
    EmbeddingModel(tokens, vectors).save_text(path)
    loaded = EmbeddingModel.load_text(path)
    assert outcome(EmbeddingModel.load_text, path) == outcome(float_parse, path)
    assert loaded.tokens == tokens


numeral = st.one_of(finite.map(repr), finite.map("{:.6f}".format),
                    finite.map("{:e}".format))
# numerals float() takes and numpy rejects, out-of-range ones, and non-numerals
ODD = ["-0", "+.5", "1e400", "1e-320", "nan", "inf", "-Infinity", "1_000", "١٢",
       "0x10", "1,5", "abc", "1.5j", "#1"]
separator = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\xa0", "\u2003",
                             "\x85", "\u3000"])
line_end = st.sampled_from(["\n", "\r\n", " \n", "\t\n", "\r"])


@st.composite
def vec_row(draw, dim: int) -> str:
    count = draw(st.sampled_from([dim] * 6 + [dim - 1, dim + 1]))
    fields = [draw(token)] + draw(st.lists(numeral, min_size=count, max_size=count))
    odd = draw(st.sampled_from([None] * 40 + ODD))
    if odd is not None and count:
        fields[draw(st.integers(1, count))] = odd
    return draw(separator).join(fields) + draw(line_end)


@FUZZ
@given(data=st.data(), rows=st.integers(0, 6), dim=st.integers(1, 4),
       declared_shift=st.sampled_from([0, 0, 0, -1, 1]))
def test_vec_load_matches_float_parse_on_any_rows(tmp_path, data, rows, dim,
                                                  declared_shift):
    body = "".join(data.draw(st.lists(vec_row(dim), min_size=rows, max_size=rows)))
    path = tmp_path / "model.vec"
    path.write_text(f"{max(rows + declared_shift, 0)} {dim}\n{body}", encoding="utf-8")
    assert outcome(EmbeddingModel.load_text, path) == outcome(float_parse, path)


def test_first_error_in_the_file_wins(tmp_path):
    path = tmp_path / "model.vec"
    path.write_text("4 2\na 1 2\na 3 4\nb 5\nc x y\n", encoding="utf-8")
    assert outcome(EmbeddingModel.load_text, path) == (
        DuplicateTokenError, "duplicate token 'a'")
    path.write_text("3 2\na 1 2\nb 1_0 ٣\nc 5\n", encoding="utf-8")
    assert outcome(EmbeddingModel.load_text, path) == (
        DimensionMismatchError, "row 4: expected 2 components, got 1")
    path.write_text("2 2\na 1 2\nb 1_0 ٣\n", encoding="utf-8")
    assert EmbeddingModel.load_text(path).vector("b").tolist() == [10.0, 3.0]
    path.write_text("2 2\na nan 1\nb 1\n", encoding="utf-8")
    assert outcome(EmbeddingModel.load_text, path) == (
        DimensionMismatchError, "row 3: expected 2 components, got 1")


@pytest.mark.parametrize("bad", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("other", ["4", "1_000"], ids=["bulk", "row-by-row"])
def test_non_finite_component_names_the_file_and_row(tmp_path, bad, other):
    path = tmp_path / "model.vec"
    path.write_text(f"3 2\na 1 {other}\nb 2 {bad}\nc {bad} 3\n", encoding="utf-8")
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    assert (_bulk_rows(lines, 3, 2) is None) == (other == "1_000")
    expected = (NonFiniteVectorError, f"{path}: row 3: non-finite component")
    assert outcome(EmbeddingModel.load_text, path) == expected
    assert outcome(float_parse, path) == expected


# --- .nt ----------------------------------------------------------------------

CLASSES = ["cat", "mammal"]


def nt_schema() -> Schema:
    schema = Schema()
    for c in CLASSES:
        schema.declare_class(c)
    schema.declare_subclass("cat", "mammal")
    schema.declare_relation("likes")
    return schema


# raw spellings that normalize to the same token
ENTITY = ["tom", "Tom", "TOM", "jerry", "Jerry", "spike"]
CLASS = ["cat", "Cat", "mammal", "MAMMAL"]
LITERAL = ['x', 'Tom', 'say \\"hi\\"', 'back\\\\slash']
# a line rarely carries one fault: a reserved character, an undeclared
# relation or an undeclared class
FAULT = [None] * 40 + ["token", "relation", "class"]


@st.composite
def nt_line(draw) -> tuple[str, str, str | Literal, str]:
    p = draw(st.sampled_from(["likes", "likes", "type", "subClassOf", "sameAs", "sameAs",
                              "hasVector"]))
    s = draw(st.sampled_from(CLASS if p == "subClassOf" else ENTITY))
    o = draw(st.sampled_from(CLASS if p in ("type", "subClassOf") else ENTITY))
    fault = draw(st.sampled_from(FAULT))
    if fault == "token":
        s = 'bad"tok'
    elif fault == "relation":
        p = "hates"
    elif fault == "class":
        o = "dog"
    if p in ("likes", "hasVector") and draw(st.booleans()):
        lit = draw(st.sampled_from(LITERAL))
        value = lit.replace('\\"', '"').replace("\\\\", "\\")
        return s, p, Literal(value), f'<{s}> <{p}> "{lit}" .'
    return s, p, o, f"<{s}> <{p}> <{o}> ."


def assert_each(lines, schema: Schema) -> Graph:
    """The graph asserting each line's triple in turn builds, or its parse error."""
    graph = Graph(schema)
    for lineno, (s, p, o, _) in enumerate(lines, start=1):
        try:
            graph.assert_triple(s, p, o)
        except (UnknownRelationError, UnknownClassError, ValueError) as exc:
            raise GraphFormatError(str(exc), lineno) from exc
    return graph


def graph_outcome(build):
    try:
        graph = build()
    except GraphFormatError as exc:
        return str(exc), exc.line
    return vars(graph)


@FUZZ
@given(lines=st.lists(nt_line(), max_size=25))
def test_nt_parse_equals_per_triple_asserts(lines):
    schema = nt_schema()
    text = "".join(line + "\n" for *_, line in lines)
    parsed = graph_outcome(lambda: Graph.parse(text, schema))
    assert parsed == graph_outcome(lambda: assert_each(lines, schema))
    if isinstance(parsed, dict):
        graph = Graph.parse(text, schema)
        again = Graph.parse(graph.to_text(), schema)
        assert again.to_text() == graph.to_text()
        assert vars(again) == vars(assert_each(
            [(t.subject, t.predicate, t.object, None) for t in graph], schema))


# --- Triple and Literal ---------------------------------------------------------

@FUZZ
@given(text=st.text(min_size=1, max_size=8))
def test_literal_never_equals_the_entity(text):
    assert Literal(text) != text
    assert Triple("s", "p", Literal(text)) != Triple("s", "p", text)
    assert len({Literal(text), text}) == 2
    assert Literal(text) == Literal(text)
    assert Triple("s", "p", text) == ("s", "p", text)


# --- DSL ----------------------------------------------------------------------

ident = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
# a quoted term as the parser returns it: normalized, without a quote mark
term = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="'\n"),
               min_size=1, max_size=8).filter(str.strip).map(normalize)


@st.composite
def query_ast(draw) -> QueryAst:
    """Statements that only read variables bound by earlier ones."""
    out_vars = draw(st.lists(ident, min_size=1, max_size=5, unique=True))
    statements = []
    for i, out in enumerate(out_vars):
        bound = out_vars[:i]
        kind = draw(st.sampled_from(["search", "list", "infer"] if bound
                                    else ["search", "list"]))
        if kind == "search":
            stmt = SearchStmt(draw(term), draw(st.none() | ident.map(str.lower)),
                              draw(st.integers(0, 10**6)), out)
        elif kind == "list":
            source = draw(term | st.sampled_from(bound).map(VarRef)) if bound \
                else draw(term)
            stmt = ListStmt(draw(ident), source, out)
        else:
            in_vars = draw(st.lists(st.sampled_from(bound), min_size=1, max_size=3))
            stmt = InferStmt(draw(ident), tuple(in_vars), draw(st.none() | term), out)
        statements.append(stmt)
    return QueryAst(tuple(statements))


@FUZZ
@given(ast=query_ast())
def test_dsl_parse_inverts_unparse(ast):
    assert parse(unparse(ast)) == ast
