"""SQL tokenizer.

Produces a flat token stream for the recursive-descent parser.  Keywords are
case-insensitive; identifiers preserve case but compare case-insensitively
downstream (the binder lowercases them).  String literals use single quotes
with ``''`` as the escape, per the SQL standard.

The lexer is one compiled scanner: a regular expression with one named
alternative per token kind (and per lexical error), matched contiguously
over the text.  Its character classes are those of the ``str`` predicates
a hand-written lexer would call — ``isspace`` (``\\s``), ``isalnum`` or
``_`` (``\\w``), ``isdigit`` and ``isalpha`` (built from the predicates,
since ``\\d`` and ``[^\\W\\d_]`` disagree with them outside ASCII).  An
ASCII text is matched by a scanner whose classes are ASCII; the full
Unicode scanner is built the first time a text needs it.
"""

from __future__ import annotations

import enum
import functools
import re
from typing import NamedTuple

from repro.errors import LexError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    COMMA = "comma"
    LPAREN = "lparen"
    RPAREN = "rparen"
    DOT = "dot"
    STAR = "star"
    SEMICOLON = "semicolon"
    EOF = "eof"


KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having", "order",
    "limit", "offset", "as", "and", "or", "not", "in", "between", "like",
    "is", "null", "true", "false", "join", "inner", "left", "right", "outer",
    "on", "asc", "desc", "case", "when", "then", "else", "end", "date",
    "interval", "exists", "union", "all", "cast", "count", "sum", "avg",
    "min", "max",
}

class Token(NamedTuple):
    """One lexical token with its source position (for error messages)."""

    type: TokenType
    text: str
    position: int

    @property
    def lower(self) -> str:
        return self.text.lower()

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.lower in names


_PUNCTUATION = {
    ",": TokenType.COMMA,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ".": TokenType.DOT,
    ";": TokenType.SEMICOLON,
}


def _char_class(chars: str) -> str:
    """``chars`` as the body of a regex character class, in ranges."""
    parts = []
    codes = sorted(set(map(ord, chars)))
    index = 0
    while index < len(codes):
        start = end = codes[index]
        while index + 1 < len(codes) and codes[index + 1] == end + 1:
            index += 1
            end = codes[index]
        parts.append(
            re.escape(chr(start))
            if start == end
            else f"{re.escape(chr(start))}-{re.escape(chr(end))}"
        )
        index += 1
    return "".join(parts)


def _compile(characters: str) -> "re.Pattern[str]":
    """The scanner over ``characters``' ``isdigit`` and ``isalpha`` classes.

    Whitespace and comments come first (so ``--`` and ``/*`` are never
    operators), and a number before punctuation (a ``.`` followed by a
    digit starts one); the other alternatives start on disjoint
    characters.  A string's body is possessive, so an unterminated
    string never backtracks into a shorter terminated one.  The ``bad*``
    alternatives match where a token starts but cannot finish, or where
    none starts.
    """
    digit = _char_class("".join(filter(str.isdigit, characters)))
    alpha = _char_class("".join(filter(str.isalpha, characters)))
    return re.compile(
        rf"""
        (?P<skip>\s+|--[^\n]*\n?|/\*.*?\*/)
        |(?P<bad_comment>/\*)
        |(?P<number>(?:[{digit}]+(?:\.[{digit}]*)?|\.[{digit}]+)
            (?:[eE][+\-{digit}][{digit}]*)?)
        |(?P<word>[{alpha}_]\w*)
        |(?P<string>'(?:[^']++|'')*+')
        |(?P<bad_string>')
        |(?P<quoted>"[^"]*")
        |(?P<bad_quoted>")
        |(?P<operator><=|>=|<>|!=|\|\||[=<>+\-/%])
        |(?P<star>\*)
        |(?P<punctuation>[,().;])
        |(?P<bad>.)
        """,
        re.DOTALL | re.VERBOSE,
    ).finditer


_ERRORS = {
    "bad_comment": "unterminated block comment",
    "bad_string": "unterminated string literal",
    "bad_quoted": "unterminated quoted identifier",
}

_ASCII_SCANNER = _compile("".join(map(chr, range(128))))


@functools.cache
def _unicode_scanner():
    # Every code point, surrogates included (they are in no class, but a
    # ``str`` may hold them); about 0.1 s, once per process.
    import numpy as np

    every = np.arange(0x110000, dtype="<u4").tobytes()
    return _compile(every.decode("utf-32-le", "surrogatepass"))


def scanner(sql: str):
    """The scanner for ``sql``'s characters: a ``finditer`` whose matches
    cover the text, each match's ``lastgroup`` naming its token kind
    (``skip`` for whitespace and comments, ``bad…`` for a lex error)."""
    return _ASCII_SCANNER if sql.isascii() else _unicode_scanner()


class Lexer:
    """Converts SQL text into a list of tokens ending with EOF."""

    def __init__(self, sql: str) -> None:
        self._sql = sql

    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        append = tokens.append
        keyword, identifier = TokenType.KEYWORD, TokenType.IDENTIFIER
        for match in scanner(self._sql)(self._sql):
            kind = match.lastgroup
            if kind == "skip":
                continue
            text = match.group()
            start = match.start()
            if kind == "word":
                append(
                    Token(keyword if text.lower() in KEYWORDS else identifier, text, start)
                )
            elif kind == "punctuation":
                append(Token(_PUNCTUATION[text], text, start))
            elif kind == "operator":
                append(Token(TokenType.OPERATOR, text, start))
            elif kind == "number":
                append(Token(TokenType.NUMBER, text, start))
            elif kind == "string":
                append(Token(TokenType.STRING, text[1:-1].replace("''", "'"), start))
            elif kind == "star":
                append(Token(TokenType.STAR, text, start))
            elif kind == "quoted":
                append(Token(identifier, text[1:-1], start))
            else:
                raise LexError(_ERRORS.get(kind) or f"unexpected character {text!r}", start)
        append(Token(TokenType.EOF, "", len(self._sql)))
        return tokens
