"""Property tests: the DSL and rule parsers parse their input or raise a VkgError.

Malformed input must end in a ``VkgError`` (CLI exit 1), never in a stray
exception (exit 2).  Inputs are arbitrary text, token soups over each
grammar's keywords, operators and quoted tokens, and well-shaped
statements whose quoted tokens may be empty or blank.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from vkg.errors import VkgError
from vkg.query import parse
from vkg.rules import parse_rules

FUZZ = settings(max_examples=300, deadline=None, database=None, derandomize=True)

QUOTED = ["'mysql'", "'Denial of Service'", "''", "'   '", "'\t'",
          "'hasVulnerability'", "'a<b'", "'"]
QUERY_WORDS = ["SEARCH", "LIST", "INFER", "CLASS", "TOPK", "AS", "OF", "FROM",
               "ON", "search", "V", "K", "alert", "vulnerability", "0", "10",
               ";", ",", "#", "\n"]
RULE_WORDS = ["RULE", "ON", "WHEN", "THEN", "AND", "OR", "ALERT", "ASSERT",
              "nonempty", "subset", "size", "exists", "intersect", "r", "a", "b",
              "ctx", "2", "(", ")", ",", "?", ">=", "<", "==", "!=", "#", "\n"]


def soup(words: list[str]) -> st.SearchStrategy[str]:
    return st.lists(st.sampled_from(words + QUOTED), max_size=30).map(" ".join)


quoted = st.sampled_from(QUOTED)
query_stmt = st.one_of(
    st.builds("SEARCH {} CLASS vulnerability TOPK 3 AS V{}".format, quoted, st.integers(0, 3)),
    st.builds("LIST vulnerability OF {} AS K{}".format, quoted, st.integers(0, 3)),
    st.builds("INFER alert FROM V0, K0 ON {} AS A{}".format, quoted, st.integers(0, 3)),
)
query_text = st.lists(query_stmt, min_size=1, max_size=4).map("; ".join)

term = st.sampled_from(QUOTED + ["?", "ctx", "a", "hasVulnerability"])
atom = st.one_of(
    st.builds("exists({}, {}, {})".format, term, term, term),
    st.sampled_from(["nonempty(a)", "subset(a, b)", "size(a) >= 1",
                     "nonempty(intersect(a, b))", "(nonempty(a) OR nonempty(b))"]),
)
action = st.one_of(st.just("ALERT"), st.builds("ASSERT {} {} {}".format, term, term, term))
rule_text = st.builds(
    "RULE r(a, b) ON ctx WHEN {} THEN {}".format,
    st.lists(atom, min_size=1, max_size=3).map(" AND ".join),
    st.lists(action, min_size=1, max_size=2).map(", ".join),
)


def parses_or_raises_vkg_error(parser, text: str) -> None:
    try:
        parser(text)
    except VkgError:
        pass


@FUZZ
@given(st.one_of(st.text(max_size=80), soup(QUERY_WORDS), query_text))
def test_query_parser_raises_only_vkg_errors(text):
    parses_or_raises_vkg_error(parse, text)


@FUZZ
@given(st.one_of(st.text(max_size=80), soup(RULE_WORDS), rule_text))
def test_rule_parser_raises_only_vkg_errors(text):
    parses_or_raises_vkg_error(parse_rules, text)
