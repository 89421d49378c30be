"""A seeded generator of scan predicates, and the differential that runs them.

The scan's residual is applied in two places that share no code:
``InMemorySource`` filters plain vectors in one phase, ``ObjectStoreSource``
hands the predicate to the reader, which evaluates it between decoding the
tested chunks and decoding the rest under the selection.  ``run`` executes
every generated statement through both, at every batch size, worker count
and pool setting, plain and under a LIMIT, and demands identical rows and
identical accounting, each run's counters equal to the store's delta; where
every construct of the statement is on the allow-list below it also
compares the rows with stdlib ``sqlite3``.

The dialect bridge is *conservative*: a statement is sent to sqlite verbatim
or not at all.  A construct whose semantics are not provably the same is
never translated; the statement is skipped for that oracle and counted under
the reason (the two engines above still run it):

* ``x`` (DOUBLE) — sqlite stores NaN as NULL;
* ``DATE '…'`` literals — sqlite has no date type (``d`` holds day numbers);
* a NUL inside a literal — not accepted in sqlite's SQL text;
* ``LIKE`` on ``s`` — sqlite's LIKE stops at the NUL that ``s`` values carry;
* ``LIMIT`` without ORDER BY — any prefix is a right answer.

Each statement (and its LIMIT variant) is also planned once more the way a
coordinator prepares a text of a known shape: bound into the template
planned from a *sibling* — the same shape, its literals re-drawn within
their class (:func:`redraw`) — and that bound plan must equal the fresh one
node for node, in its EXPLAIN text and in its rows; a second sibling bound
into the same template must plan, or fail, as it does fresh (a re-drawn
DATE may not exist).  The counts are printed as the "bound" configuration.

Run as a script for the long profile::

    PYTHONPATH=src python tests/scan_predicates.py --statements 5000 --seed 7
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sqlite3
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.engine.executor import QueryExecutor
from repro.engine.optimizer import Optimizer
from repro.engine.plan import PlanNode
from repro.engine.planner import Planner
from repro.engine.prepare import bind, build_template, shape_of, slots_of
from repro.engine.source import InMemorySource, ObjectStoreSource
from repro.engine.sql.lexer import Lexer, TokenType
from repro.engine.sql.parser import number_value, parse_sql
from repro.errors import PixelsError
from repro.obs.explain import render_analyzed_plan
from repro.storage.cache import BufferPool
from repro.storage.catalog import Catalog, ColumnMeta
from repro.storage.file_format import PixelsReader
from repro.storage.object_store import ObjectStore, ScanCounters
from repro.storage.table import TableData, TableReader, TableWriter
from repro.storage.types import DataType

SCHEMA = [
    ("id", DataType.BIGINT),
    ("i", DataType.INT),
    ("b", DataType.BIGINT),
    ("d", DataType.DATE),
    ("x", DataType.DOUBLE),
    ("f", DataType.BOOLEAN),
    ("s", DataType.VARCHAR),
    ("p", DataType.VARCHAR),
]
ROWS_PER_GROUP = 8
ROWS_PER_FILE = 40  # two files, the second with a single group
GROUPS = 6
ALL_NULL_GROUP = 2
F_ALL_TRUE_GROUP = 4
BATCH_SIZES = (1, 7, 4096)
WORKERS = (1, 3)
#: How a configuration reads through the buffer pool: not at all, through a
#: fresh pool ("cold"), or three times through one shared pool ("warm": a
#: miss, a hit that promotes each chunk to its decoded vector, a decoded hit).
POOLS = (None, "cold", "warm")
WARM_RUNS = 3
#: (batch_size, workers, pool) — the whole product for the plain statement.
CONFIGURATIONS = [
    (batch_size, workers, pool)
    for batch_size in BATCH_SIZES
    for pool in POOLS
    for workers in WORKERS
]
#: A LIMIT keeps the scan sequential whatever the worker count (only a
#: ``count(*)`` under it still reads in parallel), so one multi-worker run.
LIMIT_CONFIGURATIONS = [c for c in CONFIGURATIONS if c[1] == 1] + [(4096, 3, None)]

_S_VALUES = ["", "a", "a\x00", "é", "\U0001F600"]
_X_VALUES = [-1.5, 0.0, 2.25, float("nan"), 1e300, None, 0.5]
_P_PREFIXES = ["ip-", "été-", "\U0001F600", "Ip-", "k"]
DAY = 9000  # 1994-08-23; ``d`` spans DAY .. DAY + GROUPS - 1


def table_rows() -> list[tuple]:
    """48 rows in 6 groups of 8: every encoding (``i``/``d`` constant in a
    group are RLE, ``s`` is DICT, ``p`` PLAIN), NULLs in every type, one
    all-NULL group, ``""``, NUL-suffixed / non-ASCII / astral strings, NaN,
    and groups a predicate can take or leave whole (``f`` all TRUE / FALSE)."""
    rows = []
    for group in range(GROUPS):
        for r in range(ROWS_PER_GROUP):
            key = group * ROWS_PER_GROUP + r
            if group == ALL_NULL_GROUP:
                rows.append((key,) + (None,) * 7)
                continue
            i = group if group < 2 else (key * 7) % 5 - 1
            if group >= 1 and key % 6 == 1:
                i = None
            f = [True, False, None][key % 3]
            if group in (F_ALL_TRUE_GROUP, F_ALL_TRUE_GROUP + 1):
                f = group == F_ALL_TRUE_GROUP
            p = "" if key % 17 == 3 else f"{_P_PREFIXES[key % 5]}{key:03d}"
            rows.append(
                (
                    key,
                    i,
                    None if key % 7 == 2 else (key * 1_000_003) % 977 - 400,
                    None if key % 11 == 4 else DAY + group,
                    _X_VALUES[key % len(_X_VALUES)],
                    f,
                    None if r == 6 else _S_VALUES[(group + r % 3) % 5],
                    None if key % 13 == 5 else p,
                )
            )
    return rows


# -- the generator -------------------------------------------------------------


@dataclass
class Predicate:
    sql: str
    #: Why sqlite cannot be asked (empty when every construct is allowed).
    off_list: set[str] = field(default_factory=set)


_COMPARISONS = ["<", "<=", "=", "<>", ">", ">="]
_INT_POOLS = {
    "id": list(range(0, 48, 5)) + [7, 8, 24, 47, 200],
    "i": [-1, 0, 1, 2, 3, 7],
    "b": [-400, -10, 0, 3, 250, 576],
}
_S_LITERALS = ["''", "'a'", "'é'", "'\U0001F600'", "'b'", "'a\x00'"]
_P_LITERALS = ["''", "'ip-010'", "'k'", "'été-'", "'ip-'", "'zz'"]
_P_PATTERNS = ["'ip-%'", "'%1'", "'_p-0__'", "'%é%'", "'%'", "''", "'\U0001F600___'"]


def _comparison(rng: random.Random, column: str, literal: str) -> str:
    op = rng.choice(_COMPARISONS)
    if rng.random() < 0.3:  # literal on the left
        return f"{literal} {op} {column}"
    return f"{column} {op} {literal}"


def _string_literal(rng: random.Random, literals: list[str]) -> Predicate:
    literal = rng.choice(literals)
    return Predicate(literal, {"NUL in a literal"} if "\x00" in literal else set())


def _atom(rng: random.Random) -> Predicate:
    kind = rng.choice(
        ["int", "int", "int", "date", "double", "bool", "s", "s", "p", "p", "const", "case"]
    )
    if kind == "int":
        column = rng.choice(list(_INT_POOLS))
        pool = _INT_POOLS[column]
        form = rng.choice(["cmp", "cmp", "in", "between", "null"])
        if form == "cmp":
            literal = rng.choice([str(rng.choice(pool)), f"{rng.choice(pool)}.5"])
            return Predicate(_comparison(rng, column, literal))
        if form == "in":
            items = ", ".join(str(v) for v in rng.sample(pool, 3))
            return Predicate(f"{column} {rng.choice(['IN', 'NOT IN'])} ({items})")
        if form == "between":
            low, high = sorted(rng.sample(pool, 2))
            negated = rng.choice(["", "NOT "])
            return Predicate(f"{column} {negated}BETWEEN {low} AND {high}")
        return Predicate(f"{column} IS {rng.choice(['', 'NOT '])}NULL")
    if kind == "date":
        if rng.random() < 0.25:
            return Predicate(f"d IS {rng.choice(['', 'NOT '])}NULL")
        literal = f"DATE '1994-08-{22 + rng.randrange(GROUPS + 2):02d}'"
        return Predicate(_comparison(rng, "d", literal), {"DATE literal"})
    if kind == "double":
        form = rng.choice([_comparison(rng, "x", rng.choice(["0.5", "0", "-2", "1e300"])),
                           "x IS NULL", "x IS NOT NULL"])
        return Predicate(form, {"x holds NaN"})
    if kind == "bool":
        return Predicate(
            rng.choice(
                ["f", "NOT f", "f = TRUE", "TRUE = f", "f = FALSE", "f <> TRUE",
                 "f IS NULL", "f IS NOT NULL"]
            )
        )
    if kind == "s":
        form = rng.choice(["cmp", "cmp", "in", "like", "null"])
        if form == "cmp":
            literal = _string_literal(rng, _S_LITERALS)
            return Predicate(_comparison(rng, "s", literal.sql), literal.off_list)
        if form == "in":
            items = [_string_literal(rng, _S_LITERALS) for _ in range(2)]
            return Predicate(
                f"s {rng.choice(['IN', 'NOT IN'])} ({items[0].sql}, {items[1].sql})",
                items[0].off_list | items[1].off_list,
            )
        if form == "like":
            pattern = rng.choice(["'a%'", "'%'", "'_'", "''", "'é'"])
            return Predicate(f"s LIKE {pattern}", {"LIKE over NUL-suffixed values"})
        return Predicate(f"s IS {rng.choice(['', 'NOT '])}NULL")
    if kind == "p":
        form = rng.choice(["cmp", "like", "like", "in", "null"])
        if form == "cmp":
            return Predicate(_comparison(rng, "p", rng.choice(_P_LITERALS)))
        if form == "like":
            negated = rng.choice(["", "NOT "])
            return Predicate(f"p {negated}LIKE {rng.choice(_P_PATTERNS)}")
        if form == "in":
            items = ", ".join(rng.sample(_P_LITERALS, 2))
            return Predicate(f"p IN ({items})")
        return Predicate(f"p IS {rng.choice(['', 'NOT '])}NULL")
    if kind == "const":
        return Predicate(rng.choice(["1 = 0", "1 = 1", "2 > 1", "'a' = 'b'"]))
    test, then = _atom(rng), rng.choice(["id", "b", "i", "3"])
    otherwise = rng.choice(["id", "0", "NULL"])
    case = f"CASE WHEN {test.sql} THEN {then} ELSE {otherwise} END"
    return Predicate(_comparison(rng, case, str(rng.choice([0, 3, 24]))), test.off_list)


def random_predicate(rng: random.Random, depth: int) -> Predicate:
    if depth == 0 or rng.random() < 0.35:
        return _atom(rng)
    if rng.random() < 0.2:
        inner = random_predicate(rng, depth - 1)
        return Predicate(f"NOT ({inner.sql})", inner.off_list)
    left, right = random_predicate(rng, depth - 1), random_predicate(rng, depth - 1)
    joiner = rng.choice(["AND", "AND", "OR"])
    return Predicate(f"({left.sql}) {joiner} ({right.sql})", left.off_list | right.off_list)


def generate(seed: int, index: int) -> Predicate:
    """Statement ``index`` of the run seeded ``seed`` (replayable alone)."""
    rng = random.Random(f"{seed}/{index}")
    predicate = random_predicate(rng, depth=2)
    if rng.random() < 0.15:
        select = "count(*)"
    else:
        names = [name for name, _ in SCHEMA if name != "x" or rng.random() < 0.3]
        select = ", ".join(rng.sample(names, rng.randint(1, 4)))
    off_list = set(predicate.off_list)
    if "x" in select.split(", "):
        off_list.add("x holds NaN")
    return Predicate(f"SELECT {select} FROM t WHERE {predicate.sql}", off_list)


# -- siblings: the same shape, other literals -----------------------------------
#
# A re-draw favours edge values: 0 and 2**31 - 1 for an INT, 2**31 for a
# BIGINT, LIMIT 0, ``''``, ``%`` and ``_`` in strings (and so in LIKE
# patterns), a quote that needs escaping, and dates that do not exist.

_INT32 = [0, 1, 2, 3, 7, 24, 47, 100, 2**31 - 1]
_INT64 = [2**31, 2**31 + 1, 2**40, 2**62]
_COUNTS = [0, 1, 2, 5, 10]
_DECIMALS = ["0.5", "2.25", "0.0", "7.75", "1e300", "1.e5", ".5e3", "100.00"]
_STRINGS = ["", "a", "%", "_", "a%", "%1", "_p-0__", "ip-%", "é", "a'b", "1-URGENT"]
_DATES = ["1994-08-23", "1994-08-25", "1995-01-01", "1998-12-01", "1995-13-45", "1996-02-30"]


def _draw(rng: random.Random, token, previous) -> str:
    """A new literal of ``token``'s class, as source text."""
    if token.type is TokenType.STRING:
        pool = _DATES if previous is not None and previous.is_keyword("date") else _STRINGS
        value = rng.choice(pool + [token.text])
        return "'" + value.replace("'", "''") + "'"
    value = number_value(token.text)
    if isinstance(value, float):
        return rng.choice(_DECIMALS + [token.text])
    if previous is not None and previous.is_keyword("limit", "offset"):
        return str(rng.choice(_COUNTS + [value]))
    return str(rng.choice((_INT32 if value <= 2**31 - 1 else _INT64) + [value]))


def redraw(sql: str, rng: random.Random) -> str:
    """``sql`` with each literal slot re-drawn within its class."""
    tokens = Lexer(sql).tokenize()
    slots = {slot.position for slot in slots_of(sql)}
    pieces, at, previous = [], 0, None
    for token in tokens:
        if token.position in slots and token.type in (TokenType.NUMBER, TokenType.STRING):
            source = (
                token.text if token.type is TokenType.NUMBER
                else "'" + token.text.replace("'", "''") + "'"
            )
            pieces += [sql[at : token.position], _draw(rng, token, previous)]
            at = token.position + len(source)
        previous = token
    sibling = "".join(pieces) + sql[at:]
    assert shape_of(sibling).key == shape_of(sql).key, (sql, sibling)
    return sibling


def dump(node: PlanNode):
    """Every node's type and fields, a child by its own dump and anything
    else by ``repr``: the plan's structure, object ids left out."""
    fields = []
    for spec in dataclasses.fields(node):
        value = getattr(node, spec.name)
        if isinstance(value, PlanNode):
            value = dump(value)
        elif isinstance(value, list) and any(isinstance(v, PlanNode) for v in value):
            value = [dump(item) for item in value]
        else:
            value = repr(value)
        fields.append((spec.name, value))
    return type(node).__name__, fields


def _plan_outcome(plan):
    """``(dump, EXPLAIN)`` of the plan ``plan()`` returns, or the error."""
    try:
        result = plan()
    except PixelsError as error:
        return type(error), str(error)
    return dump(result), result.explain()


def check_bound(catalog, schema: str, sql: str, rng: random.Random):
    """Bind ``sql``, and a second sibling, into the template planned from
    a re-drawn sibling, and check each against its fresh plan.

    Returns the outcomes — per text ``"bound"``, or ``"fails alike"``
    when the text does not plan and the bind raised the same error; or
    one ``"parameter-free"`` (no sibling can be bound into the shape), or
    ``"sibling fails"`` (three siblings' own literals did not plan) — and
    ``sql``'s bound plan, if any."""
    for _ in range(3):
        try:
            source = redraw(sql, rng)
            template = build_template(
                catalog, schema, parse_sql(source), slots_of(source)
            )
            break
        except PixelsError:
            continue
    else:
        return ["sibling fails"], None
    if template.parameter_free:
        return ["parameter-free"], None
    outcomes = []
    for text in (sql, redraw(sql, rng)):
        fresh = _plan_outcome(
            lambda: Optimizer().optimize(
                Planner(catalog, schema).plan(parse_sql(text))
            )
        )
        literals = shape_of(text).literals
        bound = _plan_outcome(lambda: bind(template, literals))
        assert bound == fresh, (
            f"{text!r} bound from {source!r}:\n{bound[-1]}\n--\nfresh:\n{fresh[-1]}"
        )
        outcomes.append("fails alike" if isinstance(fresh[0], type) else "bound")
    plan = bind(template, shape_of(sql).literals) if outcomes[0] == "bound" else None
    return outcomes, plan


# -- the differential ----------------------------------------------------------


@dataclass
class Counts:
    explored: int = 0
    executions: int = 0
    sqlite_compared: int = 0
    sqlite_skipped_statements: int = 0
    #: Off-list constructs met (a statement can hold several).
    sqlite_skipped: Counter = field(default_factory=Counter)
    #: Outcomes of the bound configuration (:func:`check_bound`).
    bound: Counter = field(default_factory=Counter)

    def sqlite_summary(self) -> str:
        skipped = ", ".join(
            f"{reason}: {count}" for reason, count in sorted(self.sqlite_skipped.items())
        )
        bound = ", ".join(f"{outcome} {count}" for outcome, count in sorted(self.bound.items()))
        return (
            f"sqlite3 compared {self.sqlite_compared}, "
            f"skipped {self.sqlite_skipped_statements} ({skipped}); "
            f"bound configuration: {bound}"
        )


@dataclass
class ScanCounts(Counts):
    #: Row groups by what the statement's predicate kept of them.
    groups: Counter = field(default_factory=Counter)

    def summary(self) -> str:
        return (
            f"scan differential: {self.explored} statements explored in "
            f"{self.executions} executions; {self.sqlite_summary()}; row groups "
            f"all-true {self.groups['all']}, all-false {self.groups['none']}, "
            f"mixed {self.groups['mixed']}"
        )


class Divergence(AssertionError):
    pass


@contextmanager
def replayable(seed: int, index: int, sql: str):
    """Re-raise any failure as a :class:`Divergence` naming the seed, the
    statement's index and its SQL, so the statement can be replayed alone."""
    try:
        yield
    except Exception as exc:
        raise Divergence(
            f"seed={seed} statement={index}: {sql!r}\n{type(exc).__name__}: {exc}"
        ) from exc


def result_rows(result) -> list[tuple]:
    """The result's rows with NaN as a token, so equal rows compare equal."""
    return [
        tuple("NaN" if value != value else value for value in row)
        for row in result.rows()
    ]


def counters_of(stats) -> ScanCounters:
    """The :class:`ScanCounters` part of a record that extends it."""
    return ScanCounters(
        **{f.name: getattr(stats, f.name) for f in dataclasses.fields(ScanCounters)}
    )


class Differential:
    """The table in its three homes, and the checks one statement gets."""

    def __init__(self, counts: Counts | None = None) -> None:
        rows = table_rows()
        self.data = TableData.from_rows(SCHEMA, rows)
        self.store = ObjectStore()
        self.store.create_bucket("w")
        TableWriter(
            self.store, "w", "d/t", rows_per_file=ROWS_PER_FILE, rows_per_group=ROWS_PER_GROUP
        ).write(self.data)
        catalog = Catalog()
        catalog.create_schema("d")
        catalog.create_table(
            "d", "t", [ColumnMeta(name, dtype) for name, dtype in SCHEMA],
            bucket="w", prefix="d/t",
        )
        self.catalog = catalog
        self.planner, self.optimizer = Planner(catalog, "d"), Optimizer()
        self.memory = InMemorySource({("d", "t"): self.data})
        self.lite = sqlite3.connect(":memory:")
        self.lite.execute("PRAGMA case_sensitive_like = ON")
        self.lite.execute(f"CREATE TABLE t ({', '.join(name for name, _ in SCHEMA)})")
        self.lite.executemany(f"INSERT INTO t VALUES ({', '.join('?' * len(SCHEMA))})", rows)
        self.counts = ScanCounts() if counts is None else counts

    def encodings(self) -> set[str]:
        """Every encoding a chunk of the stored table uses."""
        found = set()
        for key in TableReader(self.store, "w", "d/t").file_keys():
            for group in PixelsReader(self.store, "w", key).footer.row_groups:
                found |= {chunk.encoding.value for chunk in group.chunks.values()}
        return found

    def plan(self, sql: str):
        return self.optimizer.optimize(self.planner.plan_sql(sql))

    def execute(self, plan, source, batch_size: int, workers: int = 1):
        self.counts.executions += 1
        return QueryExecutor(source, batch_size, workers).execute(plan, analyze=True)

    def stored(self, plan, expected_rows: list[tuple], configurations) -> tuple:
        """``plan`` over the object store in each configuration: the rows of
        the in-memory run, one accounting for all of them (returned), and
        one EXPLAIN ANALYZE text per (batch size, pool, run) whatever the
        workers.  A warm configuration's later runs read pooled chunks, so
        their GETs are compared among themselves; the rest of their
        accounting is the cold one.  Every run's :class:`ScanCounters`
        also equal ``ScanCounters.of`` the store's delta over that run: the
        footer/chunk GET split and the pool's hits, misses and evictions
        are conserved between the store and the query."""
        accounting = None
        warm_gets = {}
        explained: dict[tuple, str] = {}
        for batch_size, workers, pool in configurations:
            cache = BufferPool(self.store) if pool else None
            for run in range(WARM_RUNS if pool == "warm" else 1):
                source = ObjectStoreSource(self.store, cache=cache)
                before = self.store.metrics.snapshot()
                result = self.execute(plan, source, batch_size, workers)
                delta = self.store.metrics.delta(before)
                where = (
                    f"batch_size={batch_size} workers={workers} pool={pool} run={run}"
                )
                if result_rows(result) != expected_rows:
                    raise Divergence(
                        f"{where}: rows differ from the in-memory scan\n"
                        f"  stored: {result_rows(result)}\n  memory: {expected_rows}"
                    )
                stats = result.stats
                # Conservation: the run's counters are the store's delta.
                counted = counters_of(stats)
                stored = ScanCounters.of(delta, stats.row_groups_skipped)
                if counted != stored:
                    raise Divergence(
                        f"{where}: the query's counters {counted} are not the "
                        f"store's delta {stored}"
                    )
                seen = (
                    stats.rows_scanned, stats.bytes_scanned, stats.get_requests,
                    stats.row_groups_skipped,
                )
                accounting = accounting or seen
                expected = accounting
                if run:
                    gets = warm_gets.setdefault(run, stats.get_requests)
                    expected = (*accounting[:2], gets, accounting[3])
                if seen != expected:
                    raise Divergence(
                        f"{where}: (rows_scanned, bytes_scanned, get_requests, "
                        f"row_groups_skipped) {seen} != {expected}"
                    )
                rendered = render_analyzed_plan(plan, result.profile, stats)
                key = (batch_size, pool, run)
                if explained.setdefault(key, rendered) != rendered:
                    raise Divergence(
                        f"{where}: EXPLAIN ANALYZE depends on the worker count\n"
                        f"{rendered}\n--\n{explained[key]}"
                    )
        return accounting

    def memory_rows(self, plan) -> list[tuple]:
        """``plan``'s rows over the in-memory table, the same at every batch
        size."""
        expected = result_rows(self.execute(plan, self.memory, 4096))
        for batch_size in BATCH_SIZES[:2]:
            if result_rows(self.execute(plan, self.memory, batch_size)) != expected:
                raise Divergence(f"in-memory rows differ at batch_size={batch_size}")
        return expected

    def compare_sqlite(self, statement: Predicate, rows: list[tuple]) -> None:
        """``rows`` equal sqlite3's answer to ``statement`` as multisets, or
        the statement is counted as skipped under its off-list reasons."""
        if statement.off_list:
            self.counts.sqlite_skipped.update(statement.off_list)
            self.counts.sqlite_skipped_statements += 1
            return
        reference = self.lite.execute(statement.sql).fetchall()
        # sqlite has no BOOLEAN: ``f`` comes back 0/1, which equal False/True.
        ours = [tuple(int(v) if v is True or v is False else v for v in row) for row in rows]
        if sorted(ours, key=repr) != sorted(reference, key=repr):
            raise Divergence(
                f"rows differ from sqlite3\n  ours:   {sorted(ours, key=repr)}\n"
                f"  sqlite: {sorted(reference, key=repr)}"
            )
        self.counts.sqlite_compared += 1

    def bound(self, sql: str, expected_rows: list[tuple]) -> None:
        """The bound configuration: ``sql`` bound into a sibling's
        template plans as it does fresh, and its bound plan's rows are
        ``expected_rows``."""
        outcomes, plan = check_bound(self.catalog, "d", sql, random.Random(sql))
        self.counts.bound.update(outcomes)
        if plan is not None:
            rows = result_rows(self.execute(plan, self.memory, 4096))
            if rows != expected_rows:
                raise Divergence(
                    f"bound plan's rows differ\n  bound: {rows}\n  fresh: {expected_rows}"
                )

    def check(self, statement: Predicate, limit: int) -> None:
        sql = statement.sql
        plan = self.plan(sql)
        expected = self.memory_rows(plan)
        self.bound(sql, expected)
        rows_scanned, _, _, skipped = self.stored(plan, expected, CONFIGURATIONS)
        if rows_scanned != ROWS_PER_GROUP * (GROUPS - skipped):
            raise Divergence(
                f"rows_scanned {rows_scanned} is not the pre-residual row count of "
                f"the {GROUPS - skipped} groups read"
            )
        limited = self.plan(f"{sql} LIMIT {limit}")
        if result_rows(self.execute(limited, self.memory, 4096)) != expected[:limit]:
            raise Divergence(f"in-memory LIMIT {limit} is not a prefix of the full scan")
        try:
            self.stored(limited, expected[:limit], LIMIT_CONFIGURATIONS)
            self.bound(f"{sql} LIMIT {limit}", expected[:limit])
        except Divergence as exc:
            raise Divergence(f"under LIMIT {limit}: {exc}") from None
        self._count_groups(sql)
        self.compare_sqlite(statement, expected)

    def _count_groups(self, sql: str) -> None:
        where = sql[sql.index(" WHERE ") :]
        kept = Counter(
            key // ROWS_PER_GROUP
            for (key,) in self.execute(
                self.plan(f"SELECT id FROM t{where}"), self.memory, 4096
            ).rows()
        )
        for group in range(GROUPS):
            shape = {0: "none", ROWS_PER_GROUP: "all"}.get(kept[group], "mixed")
            self.counts.groups[shape] += 1


def run(seed: int, statements: int) -> ScanCounts:
    """Explore ``statements`` generated statements; raises :class:`Divergence`
    naming the seed, the statement's index and its SQL on the first
    disagreement."""
    differential = Differential()
    assert differential.encodings() == {"plain", "rle", "dict"}
    for index in range(statements):
        statement = generate(seed, index)
        with replayable(seed, index, statement.sql):
            differential.check(statement, limit=1 + index % 9)
        differential.counts.explored += 1
    return differential.counts


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--statements", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(f"seed {args.seed}")
    print(run(args.seed, args.statements).summary())
