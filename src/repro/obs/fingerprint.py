"""Query fingerprints: a stable identity for a statement *shape*.

Fleet-scale statistics only become readable when the thousands of
concrete queries an application issues collapse into the handful of
statement shapes it actually runs — ``pg_stat_statements`` semantics.
:func:`fingerprint` normalizes a query by parsing it and stripping every
literal from the AST (constants become ``?``, LIMIT/OFFSET counts become
``?``), then hashes the re-rendered SQL.  Two queries that differ only in
their constants therefore share a fingerprint; queries with different
structure never do.

Unparseable input (NL text sent to the SQL endpoint, unsupported
syntax) falls back to a lexical normalization — quoted strings and
numeric tokens replaced, whitespace collapsed — so *every* submission
gets a fingerprint and the statement store never loses a call.

A running system never parses a text just to name it.  Texts that
differ only in their literals share a statement shape
(:mod:`repro.engine.prepare`), and so a fingerprint: a coordinator's
:class:`repro.turbo.coordinator.StatementShape` parses its first text
once, for planning and naming alike, and fingerprints that statement
with :func:`fingerprint_statement` the first time it is asked — once per
shape.  :func:`fingerprint` parses on its own: it is the standalone
helper, and the oracle the shapes' fingerprints are tested against.

:func:`plan_shape_hash` is the complementary physical identity: a hash
over the optimized plan's preorder node kinds and scanned tables, but
not its literals (zone-map ranges, residuals).  Two fingerprints that
map to different plan shapes over time are how an operator spots a plan
regression; the statement store records both.  A shape hashes its
template's plan once, on the first execution that asks: every plan bound
from it has the template's node kinds and tables.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from dataclasses import dataclass

from repro.engine.plan import PlanNode, Scan
from repro.engine.sql import ast as sql_ast

#: Hex digits kept from the sha256 — short enough for dashboards, long
#: enough that workload-scale collisions are implausible.
FINGERPRINT_DIGITS = 12


class _Placeholder(sql_ast.Literal):
    """A literal whose rendering is always ``?`` (the stripped constant)."""

    def to_sql(self) -> str:
        return "?"


class _Count(int):
    """LIMIT/OFFSET are plain ints in the AST; this subclass renders as
    ``?`` wherever ``to_sql`` string-formats it, while still comparing as
    an int so frozen-dataclass reconstruction stays valid."""

    def __str__(self) -> str:
        return "?"

    def __format__(self, spec: str) -> str:
        return "?"


_PLACEHOLDER = _Placeholder(None)
_COUNT_FIELDS = ("limit", "offset")


def _strip_value(value: object) -> object:
    if isinstance(value, tuple):
        return tuple(_strip_value(item) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _strip_node(value)
    return value


def _strip_node(node: object) -> object:
    """Rebuild ``node`` with every literal replaced by a placeholder.

    Generic over the frozen AST dataclasses: recurses through fields and
    tuples, so new node kinds normalize correctly without registration.
    """
    if isinstance(node, sql_ast.Literal):
        return _PLACEHOLDER
    changes: dict[str, object] = {}
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if (
            field.name in _COUNT_FIELDS
            and isinstance(value, int)
            and not isinstance(value, bool)
        ):
            changes[field.name] = _Count(value)
            continue
        stripped = _strip_value(value)
        if stripped is not value:
            changes[field.name] = stripped
    return dataclasses.replace(node, **changes) if changes else node


_STRING_RE = re.compile(r"'(?:[^']|'')*'")
_NUMBER_RE = re.compile(r"\b\d+(?:\.\d+)?\b")
_WS_RE = re.compile(r"\s+")


def _normalize_text(sql: str) -> str:
    """Lexical fallback for SQL the parser rejects: strings first (so
    digits inside them don't double-strip), then bare numbers, then
    whitespace runs."""
    text = _STRING_RE.sub("?", sql)
    text = _NUMBER_RE.sub("?", text)
    return _WS_RE.sub(" ", text).strip()


def _digest(normalized: str) -> str:
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[
        :FINGERPRINT_DIGITS
    ]


@dataclass(frozen=True)
class Fingerprint:
    """One statement shape: short id + the normalized text it hashes."""

    id: str
    normalized: str
    #: False when the AST normalization fell back to the lexical pass.
    parsed: bool


def fingerprint_statement(sql: str, statement: object | None) -> Fingerprint:
    """Fingerprint ``sql`` from its already-parsed ``statement`` — the
    whole statement, an ``EXPLAIN`` wrapper included — or, when
    ``statement`` is None because the text did not parse, from the
    lexical fallback."""
    if statement is None:
        normalized = _normalize_text(sql)
        return Fingerprint(_digest(normalized), normalized, parsed=False)
    normalized = _strip_node(statement).to_sql()
    return Fingerprint(_digest(normalized), normalized, parsed=True)


def fingerprint(sql: str) -> Fingerprint:
    """Fingerprint one query text (never raises)."""
    from repro.errors import PixelsError
    from repro.engine.sql.parser import parse_sql

    try:
        statement = parse_sql(sql)
    except PixelsError:
        statement = None
    return fingerprint_statement(sql, statement)


def _shape_lines(node: PlanNode, depth: int) -> list[str]:
    label = type(node).__name__
    if isinstance(node, Scan):
        label += f" {node.schema_name}.{node.table.name}"
    lines = ["  " * depth + label]
    for child in node.children():
        lines.extend(_shape_lines(child, depth + 1))
    return lines


def plan_shape(plan: PlanNode) -> str:
    """The plan's shape text: indented preorder node kinds, with scanned
    tables (but no literals — ranges and residuals vary per call)."""
    return "\n".join(_shape_lines(plan, 0))


def plan_shape_hash(plan: PlanNode) -> str:
    """Short hash of :func:`plan_shape` — the statement store's physical
    identity next to the textual fingerprint."""
    return hashlib.sha256(plan_shape(plan).encode("utf-8")).hexdigest()[
        :FINGERPRINT_DIGITS
    ]
