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
        for text in (
            "", "   ", ";;;", "SELECT FROM WHERE",
            # Number tokens the parser cannot read as numbers.
            "SELECT 1e+ FROM t", "SELECT 1e-", "SELECT \u00b2 FROM t",
        ):
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


class TestStatementCacheEviction:
    """The recorder names a submission with the fingerprint its
    coordinator's prepared statement carries.  Both caches behind it —
    texts and their shapes — are bounded, and since an entry is a pure
    function of its key and catalog version, evicting one changes no
    export."""

    TEXTS = [
        "SELECT count(*) FROM orders",
        "SELECT count(*) FROM orders WHERE o_totalprice > 100",
        "SELECT count(*) FROM customer",
    ]

    def _observed_run(self, capacity, texts, cache_name="prepared"):
        from repro import PixelsDB, ServiceLevel
        from repro.lru import LruCache, STATEMENT_CACHE_ENTRIES

        db = PixelsDB(seed=5, observe=True)
        db.load_tpch("tpch", scale=0.01)
        server = db.query_server("tpch")
        coordinator = db.coordinator("tpch")
        cache = getattr(coordinator, cache_name)
        assert cache.capacity == STATEMENT_CACHE_ENTRIES
        if capacity is not None:
            cache = LruCache(capacity)
            setattr(coordinator, cache_name, cache)
        for sql in texts:
            server.submit(sql, ServiceLevel.IMMEDIATE)
        db.run_to_completion()
        return db, cache

    def test_eviction_changes_no_export(self):
        texts = self.TEXTS + self.TEXTS[:1]
        bounded, cache = self._observed_run(2, texts)
        unbounded, full = self._observed_run(None, texts)
        assert cache.evictions == 2 and len(cache) == 2  # the repeat missed
        assert (full.evictions, len(full)) == (0, 3)
        assert bounded.export("statements") == unbounded.export("statements")
        assert bounded.export("journal") == unbounded.export("journal")

    def test_shape_eviction_changes_no_export(self):
        """The last text is a new text of the first shape, which the
        third has evicted: its shape is parsed and planned again."""
        first, second, third = self.TEXTS[1], self.TEXTS[0], self.TEXTS[2]
        texts = [first, second, third, first.replace("100", "250")]
        bounded, shapes = self._observed_run(2, texts, "shapes")
        unbounded, full = self._observed_run(None, texts, "shapes")
        assert (shapes.misses, shapes.hits, shapes.evictions) == (4, 0, 2)
        assert (full.misses, full.hits, full.evictions) == (3, 1, 0)
        for kind in ("statements", "journal"):
            assert bounded.export(kind) == unbounded.export(kind)


def _deck_texts() -> list[str]:
    """Every statement text the wall-clock benchmark's decks can send."""
    import importlib
    import pathlib
    import sys

    from repro.workloads import TpchGenerator
    from repro.workloads.logs import LogsGenerator

    layers = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "layers"
    sys.path.insert(0, str(layers))
    try:
        stm = importlib.import_module("statements")
    finally:
        sys.path.remove(str(layers))
    texts = [
        stm.tpch_statement(template, v, TpchGenerator(scale, 42).num_orders)
        for scale in (0.02, 0.3)  # the fleet and hybrid replays' datasets
        for template in stm.TPCH_TEMPLATES
        for v in range(stm.VARIANTS)
    ]
    texts += [
        stm.logs_statement(template, v)
        for template in stm.LOGS_TEMPLATES
        for v in range(stm.VARIANTS)
    ]
    span_s = LogsGenerator(10, 7).days * 86400
    texts += [
        stm.scan_statement(template, v, span_s)
        for template in stm.SCAN_TEMPLATES
        for v in range(stm.scan_variants(template))
    ]
    texts += [
        stm.fleet_statement(template, v)
        for template in range(stm.FLEET_TEMPLATES)
        for v in range(stm.FLEET_VARIANTS)
    ]
    return texts


class TestPreparedStatementFingerprint:
    """The coordinator's prepared statement fingerprints the statement it
    parsed once; :func:`fingerprint` parses on its own.  The two must name
    every text identically, byte for byte."""

    UNPARSEABLE = [
        "SELEC 1",
        "how many orders were placed in 1995?",
        "!! bogus 'abc 123' 42",
        "SELECT",
        "",
        "EXPLAIN",
        "SELECT o_custkey FROM orders WHERE o_custkey = 'unterminated",
    ]

    @staticmethod
    def _coordinator():
        from repro.sim import Simulator
        from repro.storage.catalog import Catalog
        from repro.storage.object_store import ObjectStore
        from repro.turbo import Coordinator, TurboConfig

        return Coordinator(
            Simulator(seed=1), TurboConfig.fast(), Catalog(), ObjectStore(),
            "tpch",
        )

    def _assert_oracle(self, texts, parsed=True):
        coordinator = self._coordinator()
        for sql in texts:
            fp = coordinator.statement(sql).fingerprint
            assert fp == fingerprint(sql), sql
            assert fp.parsed is parsed, sql

    def test_deck_texts(self):
        texts = _deck_texts()
        assert len(set(texts)) > 1000
        self._assert_oracle(texts)

    def test_explain_wrappers(self):
        texts = _deck_texts()[:: 7]
        self._assert_oracle(
            [f"{prefix} {sql}" for sql in texts
             for prefix in ("EXPLAIN", "EXPLAIN ANALYZE", "explain  analyze")]
        )
        plain = self._coordinator().statement(texts[0]).fingerprint
        wrapped = self._coordinator().statement("EXPLAIN " + texts[0]).fingerprint
        assert plain != wrapped  # the wrapper is part of the hashed text

    def test_generated_statements(self):
        from tests import group_by_statements, scan_predicates

        self._assert_oracle(
            [scan_predicates.generate(7, index).sql for index in range(200)]
            + [group_by_statements.generate(7, index)[0].sql
               for index in range(200)]
        )

    def test_asked_only_after_planning(self):
        """A fingerprint first asked for after planning is the shape's,
        computed from the statement the shape keeps, to the same value."""
        from repro import PixelsDB

        db = PixelsDB(seed=1)
        db.load_tpch("tpch", scale=0.01)
        coordinator = db.coordinator("tpch")
        texts = _deck_texts()[:128:8]
        for sql in texts + ["EXPLAIN " + texts[0], "EXPLAIN ANALYZE " + texts[1]]:
            prepared = coordinator._prepare(sql)
            assert prepared.plan is not None
            assert prepared.fingerprint == fingerprint(sql), sql

    def test_unparseable_input_keeps_the_lexical_fallback(self):
        self._assert_oracle(self.UNPARSEABLE, parsed=False)
