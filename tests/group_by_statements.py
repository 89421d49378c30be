"""A seeded generator of GROUP BY statements, and the differential that runs them.

Grouping picks its kernel by the data: an integer-like key whose range is
narrower than its row count is its own code, a dictionary-coded string keeps
its codes, anything else is hashed or ranked; a folded radix of at most twice
the row count is addressed directly, a wider one sorted; COUNT(DISTINCT)
over uncoded strings counts per-group sets.  The generated statements mix
0-3 keys of every class (``tests/scan_predicates.py``'s table: INT, BIGINT,
DATE, BOOLEAN, DOUBLE, a DICT-coded and a PLAIN string, NULLs everywhere,
one all-NULL row group) under an optional WHERE, so the filtered row count
moves every statement across those thresholds.

``run`` executes each statement over plain in-memory vectors at every batch
size, and over the stored table (where ``s`` decodes dictionary-coded) at
every batch size x worker count, and demands identical rows in identical
order, one scan accounting and one EXPLAIN ANALYZE per batch size, and the
same rows and plan from the statement bound into a sibling's template (the
"bound" configuration).  Where
every construct is on the allow-list it also compares the rows with stdlib
``sqlite3`` as multisets.  These steps are ``tests/scan_predicates.py``'s
``Differential``; this file holds the generator.  Off-list constructs are never
translated; the statement is skipped for sqlite and counted under the
reason:

* ``x`` (DOUBLE) — sqlite stores NaN as NULL, and float sums print and add
  in their own order;
* ``b / 10`` — sqlite divides integers to an integer;
* whatever ``tests/scan_predicates.py`` flags in the WHERE clause.

Run as a script for the long profile::

    PYTHONPATH=src python -m tests.group_by_statements --statements 2000 --seed 7
"""

from __future__ import annotations

import argparse
import random
from collections import Counter
from dataclasses import dataclass, field

from tests.scan_predicates import (
    CONFIGURATIONS,
    Counts,
    Differential,
    Predicate,
    random_predicate,
    replayable,
)

#: Every batch size x worker count; the buffer pool does not touch grouping.
STORED_CONFIGURATIONS = [c for c in CONFIGURATIONS if not c[2]]

#: Key expression -> why sqlite cannot be asked (None: it can).
KEYS = {
    "i": None,
    "b": None,
    "id": None,
    "d": None,
    "f": None,
    "s": None,
    "p": None,
    "x": "x holds NaN",
    "b / 10": "integer division",
}
_COUNTED = ["i", "b", "id", "d", "f", "s", "p", "x"]
_SUMMED = ["i", "b", "id"]
_ORDERED = ["i", "b", "id", "d", "s", "p"]  # BOOLEAN has no MIN / MAX
_HAVING = [
    "count(*) > 1",
    "count(*) >= 3",
    "sum(i) > 0",
    "max(b) < 100",
    "min(s) <> 'a'",
    "count(DISTINCT p) >= 2",
]


def _aggregate(rng: random.Random) -> Predicate:
    kind = rng.choice(["count_star", "count", "distinct", "distinct", "sum", "min", "max"])
    if kind == "count_star":
        return Predicate("count(*)")
    if kind in ("count", "distinct"):
        column = rng.choice(_COUNTED)
        prefix = "DISTINCT " if kind == "distinct" else ""
        off_list = {"x holds NaN"} if column == "x" else set()
        return Predicate(f"count({prefix}{column})", off_list)
    if kind == "sum":
        if rng.random() < 0.1:
            return Predicate("sum(x)", {"x holds NaN"})
        return Predicate(f"sum({rng.choice(_SUMMED)})")
    if rng.random() < 0.1:
        return Predicate(f"{kind}(x)", {"x holds NaN"})
    return Predicate(f"{kind}({rng.choice(_ORDERED)})")


def generate(seed: int, index: int) -> tuple[Predicate, int]:
    """Statement ``index`` of the run seeded ``seed`` (replayable alone),
    with its number of GROUP BY keys."""
    rng = random.Random(f"group/{seed}/{index}")
    # Off-list keys are drawn less often, so most statements reach sqlite.
    pool = [key for key, reason in KEYS.items() if not reason or rng.random() < 0.3]
    keys = rng.sample(pool, rng.choice([0, 1, 1, 2, 2, 3]))
    aggregates = [_aggregate(rng) for _ in range(rng.randint(1, 3))]
    off_list = {KEYS[key] for key in keys if KEYS[key]}
    for aggregate in aggregates:
        off_list |= aggregate.off_list
    sql = f"SELECT {', '.join(keys + [a.sql for a in aggregates])} FROM t"
    if rng.random() < 0.5:
        where = random_predicate(rng, depth=1)
        sql += f" WHERE {where.sql}"
        off_list |= where.off_list
    if keys:
        sql += f" GROUP BY {', '.join(keys)}"
        if rng.random() < 0.3:
            sql += f" HAVING {rng.choice(_HAVING)}"
    return Predicate(sql, off_list), len(keys)


@dataclass
class GroupByCounts(Counts):
    #: Statements by their number of GROUP BY keys.
    keys: Counter = field(default_factory=Counter)

    def summary(self) -> str:
        keys = ", ".join(f"{n} keys: {self.keys[n]}" for n in sorted(self.keys))
        return (
            f"group-by differential: {self.explored} statements explored in "
            f"{self.executions} executions ({keys}); {self.sqlite_summary()}"
        )


def run(seed: int, statements: int) -> GroupByCounts:
    """Explore ``statements`` generated statements; raises :class:`Divergence`
    naming the seed, the statement's index and its SQL on the first
    disagreement."""
    differential = Differential(GroupByCounts())
    for index in range(statements):
        statement, num_keys = generate(seed, index)
        with replayable(seed, index, statement.sql):
            plan = differential.plan(statement.sql)
            expected = differential.memory_rows(plan)
            differential.bound(statement.sql, expected)
            differential.stored(plan, expected, STORED_CONFIGURATIONS)
            differential.compare_sqlite(statement, expected)
        differential.counts.explored += 1
        differential.counts.keys[num_keys] += 1
    return differential.counts


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--statements", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(f"seed {args.seed}")
    print(run(args.seed, args.statements).summary())
