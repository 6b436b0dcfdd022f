"""Differential tests of the tokenizer shared by the query DSL and the rule format.

:func:`vkg._scan.scan` runs one compiled pattern over the text with
``finditer``.  ``char_scan`` below is the character-by-character scanner it
replaced, kept as the reference: on any text, both must give the same token
stream (kind, text, line, column) or the same ``ScanError`` (message, line,
column), under the operators of either grammar.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkg._scan import ScanError, scan
from vkg.query import _QueryParser
from vkg.rules import _RuleParser

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"\d+")
_QUOTED = re.compile(r"'([^'\n]*)'")


def char_scan(text: str, operators: tuple[str, ...]) -> list[tuple[str, str, int, int]]:
    """The reference scanner: one character at a time, three ``re.match``es a token."""
    ops = sorted(operators, key=len, reverse=True)
    tokens: list[tuple[str, str, int, int]] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        m = _QUOTED.match(text, i)
        if m:
            tokens.append(("QUOTED", m.group(1), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch == "'":
            raise ScanError("unterminated quoted token", line, col)
        m = _INT.match(text, i)
        if m:
            tokens.append(("INT", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(("IDENT", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        for op in ops:
            if text.startswith(op, i):
                tokens.append(("OP", op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            raise ScanError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


PARSERS = [_QueryParser, _RuleParser]
OPERATORS = sorted(set(_QueryParser.operators + _RuleParser.operators))
ALPHABET = ["'", "#", "\n", "\r", "\t", "\x0b", " ", "٣", "é", "a", "Z", "_", "7",
            "0", "-", "!", "="] + OPERATORS
WORDS = ALPHABET + ["SEARCH", "hasVulnerability", "'mysql'", "'a b'", "''", "12",
                    "x1", "# note\n", "\r\n"]


def outcome(scanner, text, operators_or_pattern):
    try:
        return [tuple(tok) for tok in scanner(text, operators_or_pattern)]
    except ScanError as exc:
        return ("error", exc.message, exc.line, exc.column)


@settings(max_examples=1500, deadline=None, database=None, derandomize=True)
@given(parser=st.sampled_from(PARSERS),
       text=st.one_of(
           st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join),
           st.lists(st.sampled_from(WORDS), max_size=20).map("".join),
           st.text(max_size=40)))
def test_scan_matches_the_character_scanner(parser, text):
    assert outcome(scan, text, parser.pattern) == outcome(char_scan, text, parser.operators)


@pytest.mark.parametrize("text, eof", [
    ("a # note", (1, 3)),          # the EOF of a text ending in a comment sits at its '#'
    ("a\n# note", (2, 1)),
    ("a # note\n", (2, 1)),
    ("", (1, 1)),
    ("a  \t", (1, 5)),
])
def test_eof_position(text, eof):
    assert scan(text, _QueryParser.pattern)[-1][2:] == eof
