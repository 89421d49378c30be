"""Unit tests for the cost model: durations, provider cost, user prices."""

import pytest

from repro.core.service_levels import ServiceLevel
from repro.engine.executor import QueryStats
from repro.turbo.config import CfConfig, TurboConfig, VmConfig
from repro.turbo.cost import TB, CostModel


@pytest.fixture
def model():
    return CostModel(TurboConfig())


def stats(bytes_scanned=0, rows=0):
    return QueryStats(bytes_scanned=bytes_scanned, rows_scanned=rows)


class TestVmExecution:
    def test_duration_scales_with_bytes(self, model):
        small = model.vm_execution(stats(bytes_scanned=10**6))
        large = model.vm_execution(stats(bytes_scanned=10**9))
        assert large.duration_s > small.duration_s

    def test_minimum_is_startup_overhead(self, model):
        estimate = model.vm_execution(stats())
        assert estimate.duration_s == pytest.approx(
            TurboConfig().vm.startup_overhead_s
        )

    def test_provider_cost_positive(self, model):
        estimate = model.vm_execution(stats(bytes_scanned=10**9))
        assert estimate.provider_cost > 0
        assert estimate.provider_cost == pytest.approx(
            estimate.worker_seconds * TurboConfig().vm.price_per_worker_s
        )


class TestCfExecution:
    def test_fan_out_grows_with_bytes(self, model):
        cf = TurboConfig().cf
        one = model.cf_execution(stats(bytes_scanned=cf.bytes_per_worker // 2))
        many = model.cf_execution(stats(bytes_scanned=cf.bytes_per_worker * 10))
        assert one.num_workers == 1
        assert many.num_workers == 10

    def test_fan_out_capped(self, model):
        cf = TurboConfig().cf
        estimate = model.cf_execution(
            stats(bytes_scanned=cf.bytes_per_worker * cf.max_workers_per_query * 5)
        )
        assert estimate.num_workers == cf.max_workers_per_query

    def test_parallelism_shortens_duration(self, model):
        cf = TurboConfig().cf
        serial_bytes = cf.bytes_per_worker
        parallel_bytes = cf.bytes_per_worker * 16
        serial = model.cf_execution(stats(bytes_scanned=serial_bytes))
        parallel = model.cf_execution(stats(bytes_scanned=parallel_bytes))
        # 16x data with 16 workers: duration grows far less than 16x.
        assert parallel.duration_s < serial.duration_s * 3

    def test_unit_price_ratio_matches_config(self):
        """The CF/VM unit-price ratio is the paper's 9-24x (default 12x)."""
        config = TurboConfig()
        ratio = config.cf.price_per_worker_s(config.vm) / config.vm.price_per_worker_s
        assert ratio == pytest.approx(config.cf.price_multiplier)
        assert 9 <= ratio <= 24

    def test_cf_more_expensive_than_vm_for_same_work(self, model):
        """Even per-query, CF execution costs more than VM execution — the
        cost asymmetry the service levels monetize."""
        work = stats(bytes_scanned=10**9, rows=10**6)
        vm = model.vm_execution(work)
        cf = model.cf_execution(work)
        assert cf.provider_cost > vm.provider_cost


class TestUserPrices:
    def test_paper_prices(self, model):
        assert model.price_per_tb(ServiceLevel.IMMEDIATE) == 5.0
        assert model.price_per_tb(ServiceLevel.RELAXED) == 1.0
        assert model.price_per_tb(ServiceLevel.BEST_EFFORT) == 0.5

    def test_price_proportional_to_bytes(self, model):
        one_tb = model.user_price(stats(bytes_scanned=TB), ServiceLevel.IMMEDIATE)
        assert one_tb == pytest.approx(5.0)
        half = model.user_price(stats(bytes_scanned=TB // 2), ServiceLevel.IMMEDIATE)
        assert half == pytest.approx(2.5)

    def test_level_fractions(self, model):
        base = model.user_price(stats(bytes_scanned=TB), ServiceLevel.IMMEDIATE)
        relaxed = model.user_price(stats(bytes_scanned=TB), ServiceLevel.RELAXED)
        best = model.user_price(stats(bytes_scanned=TB), ServiceLevel.BEST_EFFORT)
        assert relaxed == pytest.approx(base * 0.2)
        assert best == pytest.approx(base * 0.1)

    def test_zero_scan_is_free(self, model):
        assert model.user_price(stats(), ServiceLevel.IMMEDIATE) == 0.0


class TestMeter:
    @pytest.mark.parametrize("venue", ["vm", "cf", "none"])
    @pytest.mark.parametrize("level", list(ServiceLevel))
    def test_one_reading_prices_rounds_and_splits(self, model, venue, level):
        scanned = QueryStats(
            bytes_scanned=123_456_789, rows_scanned=98_765, get_requests=7
        )
        bill = model.meter(scanned, venue, level)
        assert bill.price == model.user_price(scanned, level)
        assert bill.billed_nanodollars == round(bill.price * 1e9) > 0
        assert list(bill.axes) == ["bandwidth", "compute", "requests", "fixed"]
        assert sum(bill.axes.values()) == bill.billed_nanodollars
        assert min(bill.axes.values()) >= 0
        if venue == "none":
            assert bill.axes["fixed"] == bill.billed_nanodollars
        else:
            assert bill.axes["bandwidth"] > 0

    def test_zero_scan_bills_nothing(self, model):
        bill = model.meter(stats(), "vm", ServiceLevel.IMMEDIATE)
        assert bill == (0.0, 0, dict.fromkeys(bill.axes, 0))


class TestConfig:
    def test_defaults_match_paper(self):
        vm = VmConfig()
        assert vm.high_watermark == 5.0
        assert vm.low_watermark == 0.75
        assert 60 <= vm.scale_out_lag_s <= 120
        cf = CfConfig()
        assert cf.startup_s <= 1.0
        assert TurboConfig().grace_period_s == 300.0

    def test_fast_config_keeps_ratios(self):
        fast = TurboConfig.fast()
        assert fast.cf.price_multiplier == TurboConfig().cf.price_multiplier
        assert fast.vm.high_watermark == 5.0
        assert fast.vm.low_watermark == 0.75
