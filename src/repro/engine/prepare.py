"""Plan once per statement shape; bind each text's literals into it.

A text's *shape* is its token stream with every number and string token
replaced by its *literal class* — ``?int32``, ``?int64``, ``?decimal``,
``?string``, or ``?rejected`` for a number token the parser cannot read —
and its *literal vector* is those tokens' values, in text order.  One lex
gives both (:func:`shape_of`).  Texts that differ only in their literals
share a shape, and so can share one plan.

:func:`build_template` plans a shape once, with the ordinary
:class:`~repro.engine.planner.Planner` and
:class:`~repro.engine.optimizer.Optimizer`, through a binder that marks
every literal it reads from a slot.  The optimized plan, with its marked
literals, is the shape's :class:`Template`.  :func:`bind` copies the
template for one literal vector: each marked site gets the slot's value
put through the binder's own literal code (:meth:`Binder.literal`, the
unary-minus fold :meth:`Binder.negate`, :meth:`Binder.in_list`,
:meth:`Binder.like`), LIMIT and OFFSET take their counts, and a scan
whose residual holds a slot re-derives its zone-map ranges from the
residual's conjuncts as the optimizer does
(:func:`~repro.engine.optimizer.absorb_range`).  Only nodes on a path to
a slot are copied; the rest of the bound plan is the template's own,
and no bound plan is ever optimized again.

A literal whose value reaches something :func:`bind` does not re-derive
makes its shape *parameter-free*: a constant folded from slots, an
implicit string-to-DATE coercion, a literal in GROUP BY or ORDER BY (the
planner compares those by value), an aggregate argument another
aggregate's could equal, a LIMIT under a join (it feeds the join's row
estimate), an ``INTERVAL`` quantity (the parser reads it).  The
template then reports ``parameter_free``; such a shape is keyed by its
whole token stream instead (:func:`exact_shape`, whose literal vector is
empty) and takes the same path with no slots to bind.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

from repro.engine import expr as bound
from repro.engine.binder import Binder
from repro.engine.optimizer import Optimizer, absorb_range, split_conjuncts
from repro.engine.plan import HashJoin, Limit, PlanNode, Scan, TopN
from repro.engine.planner import Planner
from repro.engine.sql import ast
from repro.engine.sql.lexer import KEYWORDS, Lexer, TokenType, scanner
from repro.engine.sql.parser import number_value
from repro.storage.catalog import Catalog

INT32 = "?int32"
INT64 = "?int64"
DECIMAL = "?decimal"
STRING = "?string"
REJECTED = "?rejected"
_INT32_MAX = 2**31 - 1


class Shape(NamedTuple):
    """A text's shape key and literal vector.

    The key is the token stream rendered back to text, one token per
    space-separated part — identifiers in double quotes, literals as
    their class (or, in an exact shape, as themselves) — so two token
    streams share a key exactly when they share a part sequence."""

    key: str
    literals: tuple


class Slot(NamedTuple):
    """Where a literal of the vector sits: its token's source position,
    and ``"limit"`` or ``"offset"`` for the count of that clause."""

    position: int
    role: str | None


def shape_of(sql: str) -> Shape:
    """The shape of ``sql``; raises :class:`~repro.errors.LexError`."""
    return _shape(sql, parameters=True)


def exact_shape(sql: str) -> Shape:
    """``sql``'s shape with every literal part of the key: the key of a
    parameter-free shape, whose literal vector is empty."""
    return _shape(sql, parameters=False)


_LEX_ERRORS = {"bad_comment", "bad_string", "bad_quoted", "bad"}


def _shape(sql: str, parameters: bool) -> Shape:
    """One pass of the lexer's scanner, building the key's parts from
    its matches (a token's part is its source text, an unquoted
    identifier quoted) without building tokens.

    The parser reads an ``INTERVAL`` quantity itself, and rejects one
    that is not an integer, so a text with a string after ``INTERVAL``
    has an exact shape."""
    parts: list[str] = []
    literals: list = []
    append = parts.append
    interval = False  # the previous token is the INTERVAL keyword
    for match in scanner(sql)(sql):
        kind = match.lastgroup
        if kind == "skip":
            continue
        text = match.group()
        if kind == "word":
            lower = text.lower()
            if lower in KEYWORDS:
                append(text)
                interval = lower == "interval"
                continue
            append('"' + text + '"')
        elif kind == "number":
            if parameters:
                try:
                    value = number_value(text)
                except ValueError:
                    value, text = text, REJECTED
                else:
                    text = (
                        DECIMAL if type(value) is float
                        else INT32 if value <= _INT32_MAX
                        else INT64
                    )
                literals.append(value)
            append(text)
        elif kind == "string" and parameters:
            if interval:
                return _shape(sql, parameters=False)
            append(STRING)
            literals.append(text[1:-1].replace("''", "'"))
        elif kind in _LEX_ERRORS:
            Lexer(sql).tokenize()  # raises the lexer's own error
        else:
            append(text)
        interval = False
    return Shape(" ".join(parts), tuple(literals))


def slots_of(sql: str) -> tuple[Slot, ...]:
    """The slots of ``sql``'s literal vector (:func:`shape_of`'s order);
    none when the text's shape is exact."""
    tokens = Lexer(sql).tokenize()
    slots = []
    previous = None
    for token in tokens:
        if token.type is TokenType.STRING and previous is not None and (
            previous.is_keyword("interval")
        ):
            return ()  # an exact shape
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            role = None
            if previous is not None and previous.is_keyword("limit", "offset"):
                role = previous.lower
            slots.append(Slot(token.position, role))
        previous = token
    return tuple(slots)


# -- marked literals ------------------------------------------------------------


@dataclass
class SlotLiteral(bound.BoundLiteral):
    """A literal read from slot ``slot`` (negated ``negations`` times).
    It renders as ``?``, so aggregates whose arguments differ only in
    slots are deduplicated while the template is planned — which leaves
    a slot behind, and so shows the shape is not parameterisable."""

    slot: int = -1
    negations: int = 0

    def to_sql(self) -> str:
        return "?"


@dataclass
class SlotInList(bound.BoundInList):
    """An IN list whose items come from slots (``None`` for a fixed item)."""

    slots: tuple = ()

    def to_sql(self) -> str:
        inner = ", ".join(
            "?" if slot is not None else repr(value)
            for slot, value in zip(self.slots, self.values)
        )
        return f"({self.operand.to_sql()} {'NOT ' if self.negated else ''}IN ({inner}))"


@dataclass
class SlotLike(bound.BoundLike):
    """A LIKE whose pattern comes from slot ``slot``."""

    slot: int = -1

    def to_sql(self) -> str:
        return f"({self.operand.to_sql()} {'NOT ' if self.negated else ''}LIKE ?)"


_MARKS = (SlotLiteral, SlotInList, SlotLike)


class _SlotBinder(Binder):
    """The binder, marking each literal it reads from a slot and noting
    which marks its own literal code consumed."""

    def __init__(
        self, catalog: Catalog, default_schema: str, slot_of: dict[int, int]
    ) -> None:
        super().__init__(catalog, default_schema)
        self._slot_of = slot_of
        self.created: list[SlotLiteral] = []
        self.consumed: set[int] = set()
        #: Slots in the order the binder first read them.
        self.order: list[int] = []
        #: The slots read as ``DATE '…'`` literals.
        self.dates: set[int] = set()

    def _mark(self, literal: SlotLiteral) -> SlotLiteral:
        self.created.append(literal)
        return literal

    def literal(self, node: ast.Literal) -> bound.BoundLiteral:
        result = Binder.literal(node)
        slot = self._slot_of.get(node.position)
        if slot is None:
            return result
        if slot not in self.order:
            self.order.append(slot)
        if node.is_date:
            self.dates.add(slot)
        return self._mark(SlotLiteral(result.value, result.dtype, slot))

    def negate(self, operand: bound.BoundExpr) -> bound.BoundExpr:
        result = Binder.negate(operand)
        if isinstance(operand, SlotLiteral) and isinstance(result, bound.BoundLiteral):
            self.consumed.add(id(operand))
            return self._mark(
                SlotLiteral(
                    result.value, result.dtype, operand.slot, operand.negations + 1
                )
            )
        return result

    def in_list(self, operand, items, negated):
        result = Binder.in_list(operand, items, negated)
        slots = tuple(
            (item.slot, item.negations) if isinstance(item, SlotLiteral) else None
            for item in items
        )
        if all(slot is None for slot in slots):
            return result
        self.consumed.update(id(item) for item in items)
        return SlotInList(operand, result.values, negated, slots=slots)

    def like(self, operand, pattern, negated):
        result = Binder.like(operand, pattern, negated)
        if not isinstance(pattern, SlotLiteral):
            return result
        self.consumed.add(id(pattern))
        return SlotLike(operand, result.pattern, negated, slot=pattern.slot)


# -- templates ------------------------------------------------------------------


class Template:
    """A shape's optimized plan, its literals marked by slot.

    ``dirty`` maps the id of every plan node and expression on a path to
    a slot to the names of its fields that lead there; :func:`bind`
    copies exactly those.  A template with no dirty node is a plain plan,
    and binds to itself."""

    def __init__(
        self,
        plan: PlanNode,
        parameter_free: bool = False,
        dirty: dict[int, tuple[str, ...]] | None = None,
        dates: tuple[bool, ...] = (),
        order: tuple[int, ...] = (),
        counted: PlanNode | None = None,
        counts: dict[str, int] | None = None,
    ) -> None:
        self.plan = plan
        #: True when a literal reached something bind cannot re-derive;
        #: the plan is then the planned text's own, with no slots.
        self.parameter_free = parameter_free
        self.dirty = dirty or {}
        #: Per slot, whether it is a ``DATE '…'`` literal.
        self.dates = dates
        #: The DATE slots in the order the binder read them: the first
        #: bad one is the error a fresh plan raises.
        self.order = order
        #: The Limit or TopN node holding the LIMIT / OFFSET slots, and
        #: those slots by role (``"limit"``, ``"offset"``).
        self.counted = counted
        self.counts = counts or {}


def _selects(statement):
    """Every SELECT of a statement: union branches and IN subqueries too."""
    if isinstance(statement, ast.UnionAll):
        for branch in statement.branches:
            yield from _selects(branch)
        return
    yield statement
    for item in statement.items:
        yield from _subquery_selects(item.expr)
    for node in (statement.where, statement.having):
        if node is not None:
            yield from _subquery_selects(node)


def _subquery_selects(node: ast.Expr):
    for sub in ast.walk_expr(node):
        if isinstance(sub, ast.InSubquery):
            yield from _selects(sub.query)


def _compared_by_value(statement, slot_of: dict[int, int]) -> bool:
    """Whether a slot sits in a GROUP BY or ORDER BY expression: the
    planner matches those against the select list (and reads an ORDER BY
    position) by value."""

    def holds_slot(node: ast.Expr) -> bool:
        return any(
            isinstance(sub, ast.Literal) and sub.position in slot_of
            for sub in ast.walk_expr(node)
        )

    exprs = [order.expr for order in getattr(statement, "order_by", ())]
    for select in _selects(statement):
        exprs += list(select.group_by) + [order.expr for order in select.order_by]
    return any(holds_slot(node) for node in exprs)


def build_template(
    catalog: Catalog,
    default_schema: str,
    statement: "ast.SelectStatement | ast.UnionAll",
    slots: tuple[Slot, ...],
) -> Template:
    """Plan ``statement`` (parsed from a text with these ``slots``) into
    its shape's template.  Planning errors propagate as from a fresh
    plan; a shape whose literals cannot all be bound comes back as the
    text's own plan, ``parameter_free``."""
    optimizer = Optimizer()
    slot_of = {slot.position: index for index, slot in enumerate(slots)}
    roles = [slot.role for slot in slots]
    if slots and not (
        roles.count("limit") > 1
        or roles.count("offset") > 1
        or _compared_by_value(statement, slot_of)
    ):
        binder = _SlotBinder(catalog, default_schema, slot_of)
        plan = optimizer.optimize(
            Planner(catalog, default_schema, binder).plan(statement)
        )
        template = _Analysis(slots, binder).template(plan)
        if template is not None:
            return template
    plan = optimizer.optimize(Planner(catalog, default_schema).plan(statement))
    return Template(plan, parameter_free=bool(slots))


class _Analysis:
    """One walk over a marked plan: which nodes lead to slots, which
    slots it holds, and whether every mark is where bind can reach it."""

    def __init__(self, slots: tuple[Slot, ...], binder: _SlotBinder) -> None:
        self.slots = slots
        self.binder = binder
        #: The LIMIT and OFFSET slots, by role.
        self.counts = {
            slot.role: index for index, slot in enumerate(slots) if slot.role
        }
        self.dirty: dict[int, tuple[str, ...]] = {}
        self.seen: dict[int, bool] = {}
        self.covered: set[int] = set(self.counts.values())
        self.found: set[int] = set()
        #: Every Limit and TopN node, and whether a join is above it.
        self.counted: list[tuple[PlanNode, bool]] = []
        self.bindable = True

    def template(self, plan: PlanNode) -> Template | None:
        self.node(plan, under_join=False)
        counted = None
        if self.counts:
            if len(self.counted) != 1 or self.counted[0][1]:
                return None
            counted = self.counted[0][0]
        created = {
            id(mark) for mark in self.binder.created
        } - self.binder.consumed
        if (
            not self.bindable
            or created - self.found
            or len(self.covered) != len(self.slots)
        ):
            return None
        dates = self.binder.dates
        return Template(
            plan,
            dirty=self.dirty,
            dates=tuple(index in dates for index in range(len(self.slots))),
            order=tuple(slot for slot in self.binder.order if slot in dates),
            counted=counted,
            counts=self.counts,
        )

    def node(self, node: PlanNode, under_join: bool) -> bool:
        counted = isinstance(node, (Limit, TopN))
        if counted:
            self.counted.append((node, under_join))
        under_join = under_join or isinstance(node, HashJoin)
        fields = tuple(
            spec.name
            for spec in dataclasses.fields(node)
            if self.value(getattr(node, spec.name), under_join)
        )
        dirty = bool(fields) or (counted and bool(self.counts))
        if dirty:
            self.dirty[id(node)] = fields
        return dirty

    def value(self, value, under_join: bool) -> bool:
        if isinstance(value, PlanNode):
            return self.node(value, under_join)
        if isinstance(value, bound.BoundExpr):
            return self.expr(value)
        if isinstance(value, (list, tuple)):
            return sum(self.value(item, under_join) for item in value) > 0
        return False

    def expr(self, expr: bound.BoundExpr) -> bool:
        known = self.seen.get(id(expr))
        if known is not None:
            return known
        if isinstance(expr, SlotLiteral):
            self.found.add(id(expr))
            self.covered.add(expr.slot)
            dirty = True
        elif isinstance(expr, (bound.BoundLiteral, bound.BoundColumn)):
            dirty = False
        else:
            if isinstance(expr, SlotInList):
                self.covered.update(s[0] for s in expr.slots if s is not None)
            elif isinstance(expr, SlotLike):
                self.covered.add(expr.slot)
            fields = tuple(
                spec.name
                for spec in dataclasses.fields(expr)
                if self.value(getattr(expr, spec.name), False)
            )
            dirty = bool(fields) or isinstance(expr, _MARKS)
            if dirty and not expr.references():
                # A constant the planner would fold (or failed to fold)
                # from this slot's value.
                self.bindable = False
            if fields:
                self.dirty[id(expr)] = fields
        if dirty and id(expr) not in self.dirty:
            self.dirty[id(expr)] = ()
        self.seen[id(expr)] = dirty
        return dirty


# -- binding --------------------------------------------------------------------


def bind(template: Template, literals: tuple) -> PlanNode:
    """``template``'s plan with ``literals`` in its slots: structurally the
    plan a fresh parse, plan and optimize of the text would give.  A bad
    ``DATE`` raises the binder's :class:`~repro.errors.BindError`."""
    if not template.dirty:
        return template.plan
    return _Binding(template, literals).copy(template.plan)


class _Binding:
    def __init__(self, template: Template, literals: tuple) -> None:
        self.template = template
        self.literals = literals
        self.memo: dict[int, object] = {}
        self.bound: dict[tuple[int, int], bound.BoundLiteral] = {}
        for slot in template.order:
            self.literal(slot, 0)

    def literal(self, slot: int, negations: int) -> bound.BoundLiteral:
        key = (slot, negations)
        literal = self.bound.get(key)
        if literal is None:
            if negations:
                literal = Binder.negate(self.literal(slot, negations - 1))
            else:
                literal = Binder.literal(
                    ast.Literal(self.literals[slot], self.template.dates[slot])
                )
            self.bound[key] = literal
        return literal

    def value(self, value):
        if type(value) is list or type(value) is tuple:
            return type(value)([self.value(item) for item in value])
        if id(value) in self.template.dirty:
            return self.copy(value)
        return value

    def copy(self, obj):
        new = self.memo.get(id(obj))
        if new is not None:
            return new
        if isinstance(obj, SlotLiteral):
            new = self.literal(obj.slot, obj.negations)
        elif isinstance(obj, SlotInList):
            items = [
                bound.BoundLiteral(value, obj.operand.dtype)
                if slot is None
                else self.literal(*slot)
                for slot, value in zip(obj.slots, obj.values)
            ]
            new = Binder.in_list(self.value(obj.operand), items, obj.negated)
        elif isinstance(obj, SlotLike):
            new = Binder.like(
                self.value(obj.operand), self.literal(obj.slot, 0), obj.negated
            )
        else:
            new = object.__new__(type(obj))
            new.__dict__.update(obj.__dict__)
            fields = self.template.dirty[id(obj)]
            for name in fields:
                setattr(new, name, self.value(getattr(obj, name)))
            if isinstance(new, Scan) and "residual" in fields:
                new.ranges = {}
                for conjunct in split_conjuncts(new.residual):
                    absorb_range(new, conjunct)
            if obj is self.template.counted:
                counts = self.template.counts
                if "limit" in counts:
                    new.limit = self.literals[counts["limit"]]
                if "offset" in counts:
                    new.offset = self.literals[counts["offset"]]
        self.memo[id(obj)] = new
        return new
