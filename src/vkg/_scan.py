"""Tiny shared tokenizer and token cursor for the query DSL and the rule file format."""

from __future__ import annotations

import re
from typing import Any, Callable, NamedTuple

from .errors import VkgError
from .kg import normalize


class Token(NamedTuple):
    kind: str   # IDENT | INT | QUOTED | OP | EOF
    text: str
    line: int
    column: int


class ScanError(Exception):
    def __init__(self, message: str, line: int, column: int):
        self.message, self.line, self.column = message, line, column
        super().__init__(message)


def tokenizer(operators: tuple[str, ...]) -> re.Pattern:
    """One pattern whose alternatives, tried in order, cover every character.

    A token's alternative is a group named after its kind.  Whitespace runs
    match no group; a quote that opens no quoted token, or any character no
    other alternative takes, is ``BAD``.  Operators are tried longest first.
    """
    ops = "|".join(map(re.escape, sorted(operators, key=len, reverse=True)))
    return re.compile(
        r"(?P<NL>\n)|[ \t\r]+|(?P<COMMENT>#[^\n]*)|'(?P<QUOTED>[^'\n]*)'"
        r"|(?P<INT>\d+)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
        + (f"|(?P<OP>{ops})" if ops else "") + r"|(?P<BAD>(?s:.))")


def scan(text: str, pattern: re.Pattern) -> list[Token]:
    """Tokenize with a :func:`tokenizer` pattern; ``#`` comments run to end of line.

    A token's column counts from 1 at its line's start.  The EOF token sits
    after the last character, or at the ``#`` of a comment that ends the text.
    """
    tokens: list[Token] = []
    append = tokens.append
    line, base = 1, -1   # base: offset of the newline before the line, -1 on line 1
    m = None
    for m in pattern.finditer(text):
        kind = m.lastgroup
        if kind is None or kind == "COMMENT":   # whitespace or a comment
            continue
        if kind == "NL":
            line, base = line + 1, m.start()
        elif kind == "BAD":
            ch = m[kind]
            message = "unterminated quoted token" if ch == "'" \
                else f"unexpected character {ch!r}"
            raise ScanError(message, line, m.start() - base)
        else:
            append(Token(kind, m[kind], line, m.start() - base))
    end = m.start() if m is not None and m.lastgroup == "COMMENT" else len(text)
    append(Token("EOF", "", line, end - base))
    return tokens


class Cursor:
    """Position in the tokens of a text, with the terminals both grammars share.

    A parser subclasses it with its grammar, its ``operators`` and
    :meth:`error`, which builds the parser's own syntax error.  Each
    subclass compiles its :func:`tokenizer` pattern once, when it is defined.
    """

    operators: tuple[str, ...] = ()
    pattern: re.Pattern

    def __init_subclass__(cls, **kwargs: Any):
        super().__init_subclass__(**kwargs)
        cls.pattern = tokenizer(cls.operators)

    def __init__(self, text: str):
        try:
            self.tokens = scan(text, self.pattern)
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
