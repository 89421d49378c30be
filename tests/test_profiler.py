"""Tests for the deterministic profiler (repro.obs.profiler + flamegraph).

The load-bearing properties, in order:

* **exact attribution** — per-node attributed nanodollars sum *exactly*
  (integer equality, not approx) to the billed price;
* **byte reproducibility** — folded stacks and flame-graph SVGs are
  byte-identical across same-seed runs;
* **observe invariance** — running with the observability stack on
  changes neither query results nor billed prices;
* the CF path grafts the sub-plan's operator profile under the
  MaterializedView node of the top plan.
"""

import pytest

from repro import PixelsDB, ServiceLevel, TurboConfig
from repro.engine.executor import QueryStats
from repro.obs.profiler import (
    NANOS_PER_DOLLAR,
    _distribute,
    build_query_profile,
)
from repro.turbo.cost import TB, CostModel

DEMO_SQL = (
    "SELECT o_orderstatus, count(*) AS n, sum(o_totalprice) AS total "
    "FROM orders GROUP BY o_orderstatus"
)


def run_session(observe: bool):
    db = PixelsDB(observe=observe, seed=3)
    db.load_tpch("tpch", scale=0.01)
    record = db.submit("tpch", DEMO_SQL, ServiceLevel.IMMEDIATE)
    db.run_to_completion()
    return db, record


@pytest.fixture(scope="module")
def observed_profile():
    db, record = run_session(observe=True)
    return db.profile("tpch", record.query_id), record


class TestDistribute:
    def test_sums_exactly_to_pool(self):
        weights = [0.1, 0.7, 0.2, 1e-9]
        shares = _distribute(1_000_000_007, weights)
        assert sum(shares) == 1_000_000_007
        assert all(share >= 0 for share in shares)

    def test_proportionality(self):
        shares = _distribute(100, [1.0, 3.0])
        assert shares == [25, 75]

    def test_zero_weights_returns_zeros(self):
        assert _distribute(100, [0.0, 0.0]) == [0, 0]
        assert _distribute(0, [1.0, 2.0]) == [0, 0]
        assert _distribute(100, []) == []

    def test_deterministic_tie_break(self):
        # Equal remainders: leftover units go to the lowest indices.
        assert _distribute(3, [1.0, 1.0]) == [2, 1]


class TestExactDollarAttribution:
    def test_self_nanodollars_sum_exactly_to_billed(self, observed_profile):
        profile, record = observed_profile
        total = sum(n.self_nanodollars for n in profile.root.walk())
        assert total == profile.billed_nanodollars
        assert profile.billed_nanodollars == round(
            record.price * NANOS_PER_DOLLAR
        )
        assert profile.root.cum_nanodollars == profile.billed_nanodollars

    def test_operator_dollars_are_positive_somewhere(self, observed_profile):
        profile, record = observed_profile
        assert record.price > 0
        operators = [
            n for n in profile.root.walk() if n.kind == "operator"
        ]
        assert operators, "executor profile missing from the fused tree"
        assert any(n.self_nanodollars > 0 for n in profile.root.walk())

    def test_request_class_split_covers_gets(self, observed_profile):
        # Every storage GET an operator caused is classed footer or chunk.
        profile, _ = observed_profile
        operators = [n for n in profile.root.walk() if n.kind == "operator"]
        total_gets = sum(n.get_requests for n in operators)
        assert total_gets > 0
        assert total_gets == sum(
            n.footer_gets + n.chunk_gets for n in operators
        )

    def test_attribution_components_cover_bill(self, observed_profile):
        profile, record = observed_profile
        assert profile.bill is record.bill
        assert sum(profile.bill.axes.values()) == profile.billed_nanodollars

    def test_all_zero_attribution_parks_at_root(self):
        # No venue earned the bill: the meter parks it in the fixed axis,
        # and the profile keeps it at the root.
        bill = CostModel(TurboConfig()).meter(
            QueryStats(bytes_scanned=TB // 1000), "none", ServiceLevel.IMMEDIATE
        )
        assert bill.billed_nanodollars > 0
        assert bill.axes["fixed"] == bill.billed_nanodollars
        profile = build_query_profile("q", None, None, bill)
        assert profile.billed_nanodollars == bill.billed_nanodollars
        assert profile.root.self_nanodollars == bill.billed_nanodollars


class TestByteReproducibility:
    def test_same_seed_runs_export_identical_bytes(self):
        exports = []
        for _ in range(2):
            db, record = run_session(observe=True)
            profile = db.profile("tpch", record.query_id)
            exports.append(
                (
                    profile.folded_time(),
                    profile.folded_dollars(),
                    profile.flamegraph_time_svg(),
                    profile.flamegraph_dollars_svg(),
                )
            )
        assert exports[0] == exports[1]

    def test_folded_format(self, observed_profile):
        profile, _ = observed_profile
        folded = profile.folded_time()
        assert folded.endswith("\n")
        for line in folded.strip().splitlines():
            frames, _, value = line.rpartition(" ")
            assert frames
            assert value.isdigit()
            assert int(value) >= 0

    def test_flamegraph_is_self_contained_svg(self, observed_profile):
        profile, _ = observed_profile
        svg = profile.flamegraph_time_svg()
        assert svg.startswith("<svg")
        assert "<script" not in svg
        assert "Scan" in svg


class TestObserveInvariance:
    def test_results_and_billing_identical_observe_on_off(self):
        _, plain = run_session(observe=False)
        _, observed = run_session(observe=True)
        assert plain.price == observed.price
        assert (
            plain.execution.result.rows()
            == observed.execution.result.rows()
        )
        stats_off = plain.execution.result.stats
        stats_on = observed.execution.result.stats
        assert stats_off.bytes_scanned == stats_on.bytes_scanned
        assert stats_off.get_requests == stats_on.get_requests

    def test_unobserved_profile_still_attributes_exactly(self):
        # No tracer -> no timeline, but the analyze-path operator profile
        # and the bill are enough for an exact attribution tree.
        db, record = run_session(observe=False)
        db.query_server("tpch")  # session is alive
        profile = db.profile("tpch", record.query_id)
        total = sum(n.self_nanodollars for n in profile.root.walk())
        assert total == profile.billed_nanodollars


class TestCfGraft:
    def test_cf_execution_profile_contains_subplan(self):
        from repro.core import QueryServer
        from repro.obs import Instrumentation
        from repro.sim import Simulator
        from repro.storage.catalog import Catalog
        from repro.storage.object_store import ObjectStore
        from repro.turbo import Coordinator, TurboConfig
        from repro.turbo.coordinator import ExecutionVenue
        from repro.workloads import TpchGenerator, load_dataset

        sim = Simulator(seed=11)
        store = ObjectStore()
        catalog = Catalog()
        load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.02).tables())
        obs = Instrumentation.create(clock=lambda: sim.now)
        coordinator = Coordinator(
            sim, TurboConfig.fast(), catalog, store, "tpch", obs=obs
        )
        heavy = (
            "SELECT l_returnflag, count(*) FROM lineitem GROUP BY l_returnflag"
        )
        executions = [
            coordinator.submit(heavy, cf_enabled=True) for _ in range(6)
        ]
        sim.run_until(300)
        on_cf = [
            e for e in executions if e.venue is ExecutionVenue.CF and e.succeeded
        ]
        assert on_cf, "overload failed to push any query onto CF"
        profile = on_cf[0].profile
        assert profile is not None
        names = []

        def collect(node):
            names.append(node.name)
            for child in node.children:
                collect(child)

        collect(profile)
        assert "MaterializedView" in names
        # The grafted CF sub-plan brings the pushed-down Scan with it.
        assert "Scan" in names


class TestQueryServerEndpoint:
    def test_unfinished_query_raises(self):
        from repro.errors import PixelsError

        db = PixelsDB(observe=True, seed=3)
        db.load_tpch("tpch", scale=0.01)
        record = db.submit("tpch", DEMO_SQL, ServiceLevel.IMMEDIATE)
        with pytest.raises(PixelsError):
            db.profile("tpch", record.query_id)
