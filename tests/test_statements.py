"""Tests for the statement-statistics store (repro.obs.statements).

Invariants under test: per-entry resource nanodollars sum exactly to
the entry's billed total (the store sums the meter's largest-remainder
split it is handed), the top-K orderings are total and deterministic,
and the JSON export is byte-stable.
"""

import json

import pytest

from repro.engine.executor import QueryStats
from repro.obs.fingerprint import Fingerprint
from repro.obs.ledger import AXES
from repro.obs.profiler import NANOS_PER_DOLLAR, _distribute
from repro.obs.statements import StatementStore


FP = Fingerprint("abc123def456", "SELECT a FROM t WHERE b = ?", True)
OTHER = Fingerprint("fff000fff000", "SELECT count(*) FROM t", True)


def bill(dollars, bandwidth=0.0, compute=0.0, requests=0.0):
    """``record``'s ``nanodollars`` / ``axes`` for a bill of ``dollars``
    whose dollar shares are ``bandwidth``, ``compute``, ``requests`` and
    the rest fixed, split by largest remainder as the cost model's meter
    splits it."""
    nanodollars = round(dollars * NANOS_PER_DOLLAR)
    shares = [bandwidth, compute, requests, dollars - bandwidth - compute - requests]
    return {
        "nanodollars": nanodollars,
        "axes": dict(zip(AXES, _distribute(nanodollars, shares))),
    }


def stats(bytes_scanned=1000, gets=4, footer=1, chunk=3, hits=2, misses=2):
    return QueryStats(
        bytes_scanned=bytes_scanned,
        rows_scanned=100,
        rows_produced=10,
        get_requests=gets,
        footer_gets=footer,
        chunk_gets=chunk,
        cache_hits=hits,
        cache_misses=misses,
    )


class TestRecording:
    def test_aggregates_by_fingerprint_and_level(self):
        store = StatementStore()
        for _ in range(3):
            store.record(FP, "immediate", time_s=1.0,
                         **bill(0.001), stats=stats())
        store.record(FP, "relaxed", time_s=2.0,
                     **bill(0.0005), stats=stats())
        entries = store.entries()
        assert [(e.fingerprint, e.level, e.calls) for e in entries] == [
            ("abc123def456", "immediate", 3),
            ("abc123def456", "relaxed", 1),
        ]
        immediate = store.entry(FP.id, "immediate")
        assert immediate.time_s == pytest.approx(3.0)
        assert immediate.rows_produced == 30
        assert immediate.footer_gets == 3
        assert immediate.chunk_gets == 9
        assert immediate.cache_hit_ratio == pytest.approx(0.5)

    def test_resource_nanodollars_sum_to_billed(self):
        store = StatementStore()
        # A split with remainders that cannot divide evenly.
        entry = store.record(
            FP, "immediate", time_s=1.0,
            **bill(
                0.0000001, bandwidth=0.00000003, compute=0.00000003,
                requests=0.00000003,
            ),
            stats=stats(),
        )
        assert sum(entry.axes.values()) == entry.nanodollars
        assert entry.nanodollars == round(0.0000001 * NANOS_PER_DOLLAR)

    def test_missing_attribution_parks_in_fixed(self):
        store = StatementStore()
        entry = store.record(FP, "immediate", **bill(0.002))
        assert entry.axes["fixed"] == entry.nanodollars
        assert entry.axes["bandwidth"] == 0

    def test_errors_counted_without_stats(self):
        store = StatementStore()
        entry = store.record(FP, "immediate", error=True)
        assert entry.calls == 1
        assert entry.errors == 1
        assert entry.bytes_scanned == 0
        assert entry.cache_hit_ratio is None


class TestTopK:
    def _store(self):
        store = StatementStore()
        store.record(FP, "immediate", time_s=5.0,
                     **bill(0.001), stats=stats())
        for _ in range(4):
            store.record(OTHER, "relaxed", time_s=0.5,
                         **bill(0.0001), stats=stats())
        return store

    def test_top_by_each_dimension(self):
        store = self._store()
        assert store.top(1, by="dollars")[0].fingerprint == FP.id
        assert store.top(1, by="time")[0].fingerprint == FP.id
        assert store.top(1, by="calls")[0].fingerprint == OTHER.id

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError, match="unknown dimension"):
            self._store().top(1, by="vibes")

    def test_ties_break_deterministically(self):
        store = StatementStore()
        store.record(OTHER, "relaxed", time_s=1.0, **bill(0.001))
        store.record(FP, "immediate", time_s=1.0, **bill(0.001))
        tops = store.top(2, by="dollars")
        assert [e.fingerprint for e in tops] == [FP.id, OTHER.id]

    def test_render_top_lists_entries(self):
        text = self._store().render_top(5, by="dollars")
        assert "TOP STATEMENTS BY BILLED $" in text
        assert FP.id in text
        assert OTHER.id in text

    def test_render_top_empty_store(self):
        assert "(no statements recorded)" in StatementStore().render_top(5)


class TestExport:
    def test_export_is_byte_stable(self):
        first = self._populated().export_json()
        second = self._populated().export_json()
        assert first == second
        assert first.endswith("\n")

    def _populated(self):
        store = StatementStore()
        store.record(FP, "immediate", time_s=1.5, pending_s=0.5,
                     **bill(0.001, bandwidth=0.0004),
                     stats=stats(), plan_shape="d00dfeedbeef")
        return store

    def test_snapshot_shape(self):
        snapshot = self._populated().snapshot()
        assert len(snapshot) == 1
        row = snapshot[0]
        assert row["plan_shape"] == "d00dfeedbeef"
        assert row["time"]["total_s"] == 1.5
        assert row["time"]["p50_s"] is not None
        assert row["nanodollars"]["billed"] == 1_000_000
        assert row["io"]["footer_gets"] == 1
        parsed = json.loads(self._populated().export_json())
        assert parsed["statements"] == snapshot
