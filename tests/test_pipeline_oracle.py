"""The generator pipeline equals the Volcano pipeline it replaced.

``tests/eager_pipeline.py`` keeps the replaced ``open() / next_batch() /
close()`` operators, their ``RecordBatch`` and ``BatchStream`` wrappers and
the two driver loops verbatim.  Both pipelines run the same plans over the
same sources, and must agree on:

* the result table (column names, types and rows);
* every :class:`~repro.engine.executor.QueryStats` field;
* every field of the :class:`~repro.engine.executor.OperatorProfile` tree;
* a stream abandoned after k batches: the batches taken, the batches
  emitted, the stream's stats and its profile;
* the CF split: the top plan's result, stats and profile over the view,
  and the sub-plan stream's stats and profile once the top is done (a
  LIMIT above the view stops the sub-plan early); and the top plan over
  the sub-plan's whole result attached as one table.

The plans are the statements of ``tests/scan_predicates.py`` and
``tests/group_by_statements.py`` over their table, and LIMIT/OFFSET edge
cases: each statement also runs under a LIMIT with an OFFSET and under one
rotating wrapper — LIMIT 0, OFFSET past the end, and a Filter, a Project or
a Limit fed the empty batch a LIMIT 0 emits.  Every plan runs over the
stored table at every batch size x worker count, and over the in-memory
table at every batch size.

Tier-1 runs a small fixed budget.  The long profile::

    PYTHONPATH=src python -m tests.test_pipeline_oracle --statements 2000
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools

import pytest

from repro.engine.executor import QueryExecutor
from repro.engine.expr import BoundColumn, BoundIsNull
from repro.engine.plan import Filter, Limit, PlanNode, Project
from repro.engine.source import ObjectStoreSource
from repro.errors import PixelsError
from repro.turbo.plan_split import SplitPlan, split_plan
from tests import eager_pipeline, group_by_statements, scan_predicates
from tests.scan_predicates import Differential, replayable

BATCH_SIZES = (1, 7, 4096)
WORKERS = (1, 4)

EDGE_CASES = [
    "SELECT id FROM t LIMIT 0",
    "SELECT id FROM t LIMIT 5 OFFSET 100",
    "SELECT id, s FROM t LIMIT 3 OFFSET 45",
    "SELECT id FROM t LIMIT 3",
    "SELECT id FROM t WHERE id < 0 LIMIT 3",
    "SELECT s, count(*) AS n FROM t GROUP BY s LIMIT 0",
    "SELECT s, count(*) AS n FROM t GROUP BY s ORDER BY s LIMIT 2 OFFSET 1",
    "SELECT id FROM t ORDER BY id LIMIT 0",
    "SELECT DISTINCT s FROM t LIMIT 2 OFFSET 1",
    "SELECT a.id, b.s FROM t a JOIN t b ON a.id = b.id WHERE a.i > 0 LIMIT 4",
]


def _keep_not_null(plan: PlanNode) -> Filter:
    name, dtype = plan.output_schema()[0]
    return Filter(plan, BoundIsNull(BoundColumn(name, dtype), negated=True))


def _pass_through(plan: PlanNode) -> Project:
    return Project(
        plan, [(name, BoundColumn(name, dtype)) for name, dtype in plan.output_schema()]
    )


#: Wrappers over a statement's plan, one per statement in rotation.
WRAPPERS = [
    ("LIMIT 0", lambda plan: Limit(plan, 0)),
    ("OFFSET past the end", lambda plan: Limit(plan, 3, 100)),
    ("Filter over LIMIT 0", lambda plan: _keep_not_null(Limit(plan, 0))),
    ("Project over LIMIT 0", lambda plan: _pass_through(Limit(plan, 0))),
    ("Limit over LIMIT 0", lambda plan: Limit(Limit(plan, 0), None, 1)),
    (
        "Limit over Project over Filter",
        lambda plan: Limit(_pass_through(_keep_not_null(plan)), 2, 1),
    ),
]


def plans(plan: PlanNode, index: int, every_wrapper: bool) -> list[tuple[str, PlanNode]]:
    """``plan``, ``plan`` under a LIMIT with an OFFSET, and the wrapper
    whose turn ``index`` is (or every wrapper)."""
    turn = index % len(WRAPPERS)
    wrappers = WRAPPERS if every_wrapper else WRAPPERS[turn : turn + 1]
    return [
        ("plan", plan),
        ("LIMIT k OFFSET o", Limit(plan, 1 + index % 9, index % 4)),
        *((label, wrap(plan)) for label, wrap in wrappers),
    ]


def _table(data) -> tuple:
    # Rows by ``repr``: a NaN in ``x`` equals itself there.
    return (
        [(name, vector.dtype) for name, vector in data.columns.items()],
        repr(data.to_rows()),
    )


def _profile(profile) -> dict | None:
    return None if profile is None else dataclasses.asdict(profile)


def executed(executor, plan: PlanNode):
    """Everything a run to completion reports."""
    try:
        result = executor.execute(plan, analyze=True)
    except PixelsError as error:
        return ("error", type(error).__name__, str(error))
    return (
        _table(result.data),
        dataclasses.asdict(result.stats),
        _profile(result.profile),
    )


def abandoned(executor, plan: PlanNode, k: int):
    """A stream's report after its consumer took ``k`` batches and left."""
    stream = executor.execute_stream(plan)
    batches = stream.batches()
    try:
        taken = [_table(batch) for batch in itertools.islice(batches, k)]
    except PixelsError as error:
        return ("error", type(error).__name__, str(error))
    finally:
        batches.close()
    return (
        taken,
        stream.batches_emitted,
        dataclasses.asdict(stream.stats),
        _profile(stream.profile()),
    )


def split(executor, plan: PlanNode, attach):
    """The CF split: the sub-plan streamed into the top plan's view, then
    its whole result attached as one table."""
    parts = split_plan(plan)
    sub = executor.execute_stream(parts.sub)
    attach(parts, sub.batches())
    streamed = (
        executed(executor, parts.top),
        sub.batches_emitted,
        dataclasses.asdict(sub.stats),
        _profile(sub.profile()),
    )
    try:
        parts.attach(executor.execute(parts.sub).data)
    except PixelsError as error:
        return streamed, ("error", type(error).__name__, str(error))
    return streamed, executed(executor, parts.top)


class Oracle:
    """The scan differential's table, stored and in memory, run through
    both pipelines."""

    def __init__(self) -> None:
        self.differential = Differential()
        self.runs = 0

    def sources(self):
        # Without a buffer pool a stored source keeps no state between runs.
        stored = ObjectStoreSource(self.differential.store)
        for batch_size, workers in itertools.product(BATCH_SIZES, WORKERS):
            where = f"stored, batch_size={batch_size} workers={workers}"
            yield where, stored, batch_size, workers
        for batch_size in BATCH_SIZES:
            where = f"in memory, batch_size={batch_size}"
            yield where, self.differential.memory, batch_size, 1

    def check(self, sql: str, index: int, every_wrapper: bool = False) -> None:
        for label, plan in plans(self.differential.plan(sql), index, every_wrapper):
            for where, source, batch_size, workers in self.sources():
                new = QueryExecutor(source, batch_size, workers)
                old = eager_pipeline.QueryExecutor(source, batch_size, workers)
                context = f"{label}, {where}"
                assert executed(new, plan) == executed(old, plan), context
                k = 1 + index % 3
                assert abandoned(new, plan, k) == abandoned(old, plan, k), (
                    f"{context}, abandoned after {k} batches"
                )
                assert split(new, plan, SplitPlan.attach_stream) == split(
                    old, plan, eager_pipeline.attach_stream
                ), f"{context}, CF split"
                self.runs += 1


def statements(seed: int, count: int):
    """``count`` generated statements, alternating between the scan and the
    GROUP BY generators."""
    for index in range(count):
        if index % 2:
            yield index, group_by_statements.generate(seed, index)[0].sql
        else:
            yield index, scan_predicates.generate(seed, index).sql


def run(seed: int, count: int) -> int:
    """Check the edge cases and ``count`` generated statements; returns the
    number of (plan, source) pairs compared."""
    oracle = Oracle()
    for index, sql in enumerate(EDGE_CASES):
        with replayable(seed, index, sql):
            oracle.check(sql, index, every_wrapper=True)
    for index, sql in statements(seed, count):
        with replayable(seed, index, sql):
            oracle.check(sql, index)
    return oracle.runs


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


@pytest.mark.parametrize("index", range(len(EDGE_CASES)))
def test_edge_cases(oracle, index):
    oracle.check(EDGE_CASES[index], index, every_wrapper=True)


@pytest.mark.parametrize("index, sql", list(statements(seed=1, count=12)))
def test_generated_statements(oracle, index, sql):
    oracle.check(sql, index)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--statements", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    runs = run(args.seed, args.statements)
    print(
        f"seed {args.seed}: {len(EDGE_CASES)} edge cases and {args.statements} "
        f"generated statements, {runs} (plan, source) pairs: the generator "
        "pipeline equals the eager pipeline"
    )
