"""The two-phase scan cannot disagree with the single-phase one.

``tests/scan_predicates.py`` holds the generator, the table and the checks;
this file runs its tier-1 slice and pins the regressions by name.
"""

import pytest

from repro.engine.executor import QueryExecutor
from repro.engine.source import ObjectStoreSource
from repro.errors import ExecutionError
from tests.scan_predicates import (
    BATCH_SIZES,
    GROUPS,
    ROWS_PER_GROUP,
    WORKERS,
    Differential,
    run,
)

TIER1_SEED = 21
TIER1_STATEMENTS = 200


def test_generated_statements_agree_everywhere(capsys):
    counts = run(TIER1_SEED, TIER1_STATEMENTS)
    with capsys.disabled():
        print(f"\n{counts.summary()}")
    assert counts.explored == TIER1_STATEMENTS
    # Not vacuous: the independent oracle saw a fair share, and the reader
    # met groups it kept whole, dropped whole and split.
    assert counts.sqlite_compared >= TIER1_STATEMENTS // 3
    assert counts.sqlite_compared + counts.sqlite_skipped_statements == counts.explored
    assert min(counts.groups[shape] for shape in ("all", "none", "mixed")) > 50


@pytest.fixture(scope="module")
def differential():
    return Differential()


def stored_runs(differential, sql):
    plan = differential.plan(sql)
    for batch_size in BATCH_SIZES:
        for workers in WORKERS:
            source = ObjectStoreSource(differential.store)
            yield QueryExecutor(source, batch_size, workers).execute(plan)


class TestRegressions:
    @pytest.mark.parametrize("predicate", ["1 = 0", "1 = 0 AND id > 3", "'a' = 'b'"])
    def test_a_constant_false_residual_keeps_no_row(self, differential, predicate):
        """A residual over no column evaluates to a mask of length 0, which
        is vacuously all-true: a draft returned the whole table here."""
        for result in stored_runs(differential, f"SELECT p FROM t WHERE {predicate}"):
            assert result.rows() == []
            assert result.stats.rows_scanned == ROWS_PER_GROUP * GROUPS

    def test_a_constant_true_residual_keeps_every_row(self, differential):
        for result in stored_runs(differential, "SELECT id FROM t WHERE 1 = 1"):
            assert result.rows() == [(key,) for key in range(ROWS_PER_GROUP * GROUPS)]

    @pytest.mark.parametrize("predicate", ["f = TRUE", "TRUE = f", "f <> FALSE"])
    def test_a_range_on_a_boolean_column_prunes_no_live_group(
        self, differential, predicate
    ):
        """BOOLEAN chunks have no min/max; the zone map took that for
        "empty" as soon as a bound was pushed and the count came back 0."""
        sql = f"SELECT count(*) FROM t WHERE {predicate}"
        plan = differential.plan(sql)
        (expected,) = QueryExecutor(differential.memory).execute(plan).rows()
        assert expected[0] > 0
        for result in stored_runs(differential, sql):
            assert result.rows() == [expected]

    def test_rows_scanned_and_rows_in_stay_pre_residual(self, differential):
        """The cost model scales compute by ``rows_scanned``: it counts the
        rows of the groups read, not the rows the residual kept."""
        plan = differential.plan("SELECT id FROM t WHERE NOT (id <> 7)")
        source = ObjectStoreSource(differential.store)
        result = QueryExecutor(source).execute(plan, analyze=True)
        assert result.rows() == [(7,)]
        assert result.stats.rows_scanned == ROWS_PER_GROUP * GROUPS
        scan = result.profile
        while scan.children:
            (scan,) = scan.children
        assert (scan.rows_in, scan.rows_out) == (ROWS_PER_GROUP * GROUPS, 1)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_residual_that_raises_fails_the_query_as_before(
        self, differential, workers
    ):
        plan = differential.plan("SELECT id FROM t WHERE CAST(p AS BIGINT) = 1")
        for source in (differential.memory, ObjectStoreSource(differential.store)):
            with pytest.raises(ExecutionError, match="CAST failed"):
                QueryExecutor(source, workers=workers).execute(plan)
