"""Tests for statement fingerprints and plan-shape hashes
(repro.obs.fingerprint).

The contract: two queries differing only in their constants share a
fingerprint; structurally different queries never do; unparseable input
still fingerprints via the lexical fallback — every submission gets an
identity, so the statement store never loses a call.
"""

from repro.engine.optimizer import Optimizer
from repro.obs.fingerprint import (
    FINGERPRINT_DIGITS,
    fingerprint,
    plan_shape,
    plan_shape_hash,
)


class TestFingerprint:
    def test_literals_stripped(self):
        fp = fingerprint(
            "SELECT o_custkey FROM orders "
            "WHERE o_totalprice > 500.0 AND o_orderstatus = 'O' LIMIT 10"
        )
        assert fp.parsed
        assert "500" not in fp.normalized
        assert "'O'" not in fp.normalized
        assert "10" not in fp.normalized
        assert "?" in fp.normalized

    def test_same_shape_same_id(self):
        first = fingerprint(
            "SELECT o_custkey FROM orders WHERE o_totalprice > 100 LIMIT 5"
        )
        second = fingerprint(
            "SELECT o_custkey FROM orders WHERE o_totalprice > 9999 LIMIT 80"
        )
        assert first.id == second.id
        assert first.normalized == second.normalized

    def test_whitespace_and_case_of_keywords_insensitive(self):
        first = fingerprint("select   o_custkey from orders where o_custkey = 1")
        second = fingerprint("SELECT o_custkey FROM orders WHERE o_custkey = 2")
        assert first.id == second.id

    def test_different_structure_different_id(self):
        a = fingerprint("SELECT o_custkey FROM orders")
        b = fingerprint("SELECT o_custkey FROM orders WHERE o_custkey = 1")
        c = fingerprint("SELECT count(*) FROM orders")
        assert len({a.id, b.id, c.id}) == 3

    def test_id_length_and_stability(self):
        fp = fingerprint("SELECT o_custkey FROM orders")
        again = fingerprint("SELECT o_custkey FROM orders")
        assert len(fp.id) == FINGERPRINT_DIGITS
        assert fp == again

    def test_unparseable_falls_back_to_lexical(self):
        fp = fingerprint("how many orders were placed in 1995?")
        assert not fp.parsed
        assert "1995" not in fp.normalized
        assert fp.id  # still got an identity

    def test_lexical_fallback_strips_strings_before_numbers(self):
        first = fingerprint("!! bogus 'abc 123' 42")
        second = fingerprint("!! bogus 'zzz 999' 7")
        assert not first.parsed
        assert first.id == second.id

    def test_never_raises_on_garbage(self):
        for text in ("", "   ", ";;;", "SELECT FROM WHERE"):
            fp = fingerprint(text)
            assert isinstance(fp.id, str)


class TestPlanShape:
    def _plan(self, mini_engine, sql):
        planner, _, _ = mini_engine
        return Optimizer().optimize(planner.plan_sql(sql))

    def test_shape_names_operators_and_tables(self, mini_engine):
        shape = plan_shape(
            self._plan(mini_engine, "SELECT count(*) FROM orders")
        )
        assert "Aggregate" in shape
        assert "mini.orders" in shape

    def test_literal_changes_share_a_shape(self, mini_engine):
        first = plan_shape_hash(
            self._plan(
                mini_engine,
                "SELECT o_custkey FROM orders WHERE o_totalprice > 100",
            )
        )
        second = plan_shape_hash(
            self._plan(
                mini_engine,
                "SELECT o_custkey FROM orders WHERE o_totalprice > 500",
            )
        )
        assert first == second
        assert len(first) == FINGERPRINT_DIGITS

    def test_different_plans_different_shape(self, mini_engine):
        scan = plan_shape_hash(
            self._plan(mini_engine, "SELECT o_custkey FROM orders")
        )
        agg = plan_shape_hash(
            self._plan(mini_engine, "SELECT count(*) FROM orders")
        )
        assert scan != agg


class TestRecorderFingerprintCache:
    """The recorder's per-text fingerprint cache is bounded, and since a
    fingerprint is a pure function of its text, evicting one changes no
    export."""

    TEXTS = [
        "SELECT count(*) FROM orders",
        "SELECT count(*) FROM orders WHERE o_totalprice > 100",
        "SELECT count(*) FROM customer",
    ]

    def _observed_run(self, capacity):
        from repro import PixelsDB, ServiceLevel
        from repro.lru import LruCache, STATEMENT_CACHE_ENTRIES

        db = PixelsDB(seed=5, observe=True)
        db.load_tpch("tpch", scale=0.01)
        server = db.query_server("tpch")
        cache = server._recorder._fingerprint_cache
        assert cache.capacity == STATEMENT_CACHE_ENTRIES
        if capacity is not None:
            cache = server._recorder._fingerprint_cache = LruCache(capacity)
        for sql in self.TEXTS + self.TEXTS[:1]:
            server.submit(sql, ServiceLevel.IMMEDIATE)
        db.run_to_completion()
        return db, cache

    def test_eviction_changes_no_export(self):
        bounded, cache = self._observed_run(capacity=2)
        unbounded, _ = self._observed_run(capacity=None)
        assert cache.evictions == 2 and len(cache) == 2  # the repeat missed
        assert bounded.statements_json() == unbounded.statements_json()
        assert bounded.journal_jsonl() == unbounded.journal_jsonl()
