"""Tiny shared tokenizer and token cursor for the query DSL and the rule file format."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

from .errors import VkgError
from .kg import normalize


@dataclass(frozen=True)
class Token:
    kind: str   # IDENT | INT | QUOTED | OP | EOF
    text: str
    line: int
    column: int


class ScanError(Exception):
    def __init__(self, message: str, line: int, column: int):
        self.message, self.line, self.column = message, line, column
        super().__init__(message)


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"\d+")
_QUOTED = re.compile(r"'([^'\n]*)'")


def scan(text: str, operators: tuple[str, ...]) -> list[Token]:
    """Tokenize; operators are matched longest-first.  '#' comments to EOL."""
    ops = sorted(operators, key=len, reverse=True)
    tokens: list[Token] = []
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
            tokens.append(Token("QUOTED", m.group(1), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch == "'":
            raise ScanError("unterminated quoted token", line, col)
        m = _INT.match(text, i)
        if m:
            tokens.append(Token("INT", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(Token("IDENT", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        for op in ops:
            if text.startswith(op, i):
                tokens.append(Token("OP", op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            raise ScanError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class Cursor:
    """Position in the tokens of a text, with the terminals both grammars share.

    A parser subclasses it with its grammar, its ``operators`` and
    :meth:`error`, which builds the parser's own syntax error.
    """

    operators: tuple[str, ...] = ()

    def __init__(self, text: str):
        try:
            self.tokens = scan(text, self.operators)
        except ScanError as exc:
            raise self.error(exc.message, exc.line, exc.column) from None
        self.pos = 0

    def error(self, message: str, line: int, column: int) -> VkgError:
        raise NotImplementedError

    def fail(self, message: str) -> VkgError:
        tok = self.peek()
        shown = tok.text if tok.kind != "EOF" else "end of input"
        return self.error(f"{message} (at {shown!r})", tok.line, tok.column)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text.upper() == word

    def keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            raise self.fail(f"expected {word}")
        self.advance()

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text == text

    def op(self, text: str) -> None:
        if not self.at_op(text):
            raise self.fail(f"expected '{text}'")
        self.advance()

    def ident(self, what: str = "identifier") -> str:
        if self.peek().kind != "IDENT":
            raise self.fail(f"expected {what}")
        return self.advance().text

    def integer(self, what: str = "integer") -> int:
        if self.peek().kind != "INT":
            raise self.fail(f"expected {what}")
        return int(self.advance().text)

    def quoted(self, what: str, verbatim: bool = False) -> str:
        """A non-empty quoted token, normalized unless ``verbatim``."""
        tok = self.peek()
        if tok.kind != "QUOTED":
            raise self.fail(f"expected quoted {what}")
        self.advance()
        if not tok.text.strip():
            raise self.error(f"empty quoted {what}", tok.line, tok.column)
        return tok.text if verbatim else normalize(tok.text)

    def call(self, *arguments: Callable[[], Any]) -> list:
        """A function word, then ``(`` one value per argument parser, comma-joined ``)``."""
        self.advance()
        self.op("(")
        values = [arguments[0]()]
        for argument in arguments[1:]:
            self.op(",")
            values.append(argument())
        self.op(")")
        return values
