# The SQL lexer this package replaced with one compiled scanner, kept
# verbatim as the oracle of tests/test_lexer_oracle.py.
"""SQL tokenizer.

Produces a flat token stream for the recursive-descent parser.  Keywords are
case-insensitive; identifiers preserve case but compare case-insensitively
downstream (the binder lowercases them).  String literals use single quotes
with ``''`` as the escape, per the SQL standard.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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

OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%", "||")


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    type: TokenType
    text: str
    position: int

    @property
    def lower(self) -> str:
        return self.text.lower()

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.lower in names


class Lexer:
    """Converts SQL text into a list of tokens ending with EOF."""

    def __init__(self, sql: str) -> None:
        self._sql = sql
        self._pos = 0

    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self._pos >= len(self._sql):
                tokens.append(Token(TokenType.EOF, "", self._pos))
                return tokens
            tokens.append(self._next_token())

    def _skip_whitespace_and_comments(self) -> None:
        sql = self._sql
        while self._pos < len(sql):
            char = sql[self._pos]
            if char.isspace():
                self._pos += 1
            elif sql.startswith("--", self._pos):
                newline = sql.find("\n", self._pos)
                self._pos = len(sql) if newline < 0 else newline + 1
            elif sql.startswith("/*", self._pos):
                end = sql.find("*/", self._pos + 2)
                if end < 0:
                    raise LexError("unterminated block comment", self._pos)
                self._pos = end + 2
            else:
                return

    def _next_token(self) -> Token:
        sql = self._sql
        start = self._pos
        char = sql[start]
        if char == ",":
            self._pos += 1
            return Token(TokenType.COMMA, ",", start)
        if char == "(":
            self._pos += 1
            return Token(TokenType.LPAREN, "(", start)
        if char == ")":
            self._pos += 1
            return Token(TokenType.RPAREN, ")", start)
        if char == ".":
            if start + 1 < len(sql) and sql[start + 1].isdigit():
                return self._lex_number()
            self._pos += 1
            return Token(TokenType.DOT, ".", start)
        if char == ";":
            self._pos += 1
            return Token(TokenType.SEMICOLON, ";", start)
        if char == "'":
            return self._lex_string()
        if char == '"':
            return self._lex_quoted_identifier()
        if char.isdigit():
            return self._lex_number()
        if char.isalpha() or char == "_":
            return self._lex_word()
        for operator in OPERATORS:
            if sql.startswith(operator, start):
                self._pos += len(operator)
                token_type = (
                    TokenType.STAR if operator == "*" else TokenType.OPERATOR
                )
                return Token(token_type, operator, start)
        raise LexError(f"unexpected character {char!r}", start)

    def _lex_string(self) -> Token:
        start = self._pos
        sql = self._sql
        pos = start + 1
        parts: list[str] = []
        while pos < len(sql):
            if sql[pos] == "'":
                if pos + 1 < len(sql) and sql[pos + 1] == "'":
                    parts.append("'")
                    pos += 2
                    continue
                self._pos = pos + 1
                return Token(TokenType.STRING, "".join(parts), start)
            parts.append(sql[pos])
            pos += 1
        raise LexError("unterminated string literal", start)

    def _lex_quoted_identifier(self) -> Token:
        start = self._pos
        end = self._sql.find('"', start + 1)
        if end < 0:
            raise LexError("unterminated quoted identifier", start)
        self._pos = end + 1
        return Token(TokenType.IDENTIFIER, self._sql[start + 1 : end], start)

    def _lex_number(self) -> Token:
        start = self._pos
        sql = self._sql
        pos = start
        seen_dot = False
        seen_exp = False
        while pos < len(sql):
            char = sql[pos]
            if char.isdigit():
                pos += 1
            elif char == "." and not seen_dot and not seen_exp:
                seen_dot = True
                pos += 1
            elif char in "eE" and not seen_exp and pos > start:
                if pos + 1 < len(sql) and (
                    sql[pos + 1].isdigit() or sql[pos + 1] in "+-"
                ):
                    seen_exp = True
                    pos += 2
                else:
                    break
            else:
                break
        self._pos = pos
        return Token(TokenType.NUMBER, sql[start:pos], start)

    def _lex_word(self) -> Token:
        start = self._pos
        sql = self._sql
        pos = start
        while pos < len(sql) and (sql[pos].isalnum() or sql[pos] == "_"):
            pos += 1
        self._pos = pos
        text = sql[start:pos]
        if text.lower() in KEYWORDS:
            return Token(TokenType.KEYWORD, text, start)
        return Token(TokenType.IDENTIFIER, text, start)
