"""Where the traced run puts its spans, and how spans become per-layer
metrics.

Layers are the program's packages: ``engine.sql`` / ``engine.plan`` /
``engine.exec`` / ``engine.kernel``, ``storage``, ``sim``, ``turbo``,
``core``, ``obs`` — plus ``bench`` for the harness itself.  A span name
is ``<layer>.<part>.<callable>``; a ``*_self_share`` is the summed self
time of the spans under a prefix over the traced wall.  Time the program
spends in code that is not wrapped lands in the self time of the nearest
wrapped caller — by construction that is the caller's own layer or the
``bench`` root (``bench.untraced_share``).
"""

from __future__ import annotations

import inspect

import numpy as np

import repro.engine.expr as expr_module
import repro.engine.physical as physical
import repro.engine.sql.parser as sql_parser
import repro.obs.fingerprint as fingerprint_module
import repro.obs.profiler as profiler_module
import repro.storage.columnar as columnar
import repro.turbo.plan_split as plan_split
from repro.core.query_server import QueryServer
from repro.core.scheduler import AdmissionController, LevelScheduler, SessionFleet
from repro.engine import Optimizer, Planner, QueryExecutor
from repro.engine.executor import StreamingExecution
from repro.obs.activity import ActivityRegistry, ProjectionGuard
from repro.obs.alerts import AlertEngine
from repro.obs.journal import QueryJournal
from repro.obs.ledger import MeterLedger
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import SloTracker
from repro.obs.spend import SpendAccountant
from repro.obs.statements import StatementStore
from repro.obs.timeseries import ScrapeLoop, TimeSeriesStore
from repro.obs.tracer import Span, Tracer
from repro.sim import Simulator
from repro.sim.trace import Trace
from repro.storage import BufferPool, ObjectStore, PixelsReader, TableReader, TableWriter
from repro.storage.file_format import PixelsWriter
from repro.storage.object_store import StoreView
from repro.turbo.cf_service import CfService
from repro.turbo.coordinator import Coordinator
from repro.turbo.cost import CostModel
from repro.turbo.plan_split import SplitPlan
from repro.turbo.vm_cluster import VmCluster

from statements import LOGS_TEMPLATES, TPCH_TEMPLATES
from trace import Recorder, SpanArrays

ENGINE_TEMPLATES = (*TPCH_TEMPLATES, *LOGS_TEMPLATES)

#: Span-name prefixes of each layer.  Callback spans are
#: ``cb:<module>:<qualname>``: the package that defined the callback owns
#: its self time (``repro.baselines`` is harness code and stays ``bench``).
LAYER_PREFIXES = {
    "engine.sql": ("engine.sql.",),
    "engine.plan": ("engine.plan.",),
    "engine.exec": ("engine.exec.",),
    "engine.kernel": ("engine.kernel.",),
    "storage": ("storage.",),
    "sim": ("sim.", "cb:repro.sim"),
    "turbo": ("turbo.", "cb:repro.turbo"),
    "core": ("core.", "cb:repro.core"),
    "obs": ("obs.", "cb:repro.obs"),
}
OBS_SINKS = (
    "tracer", "metrics", "slo", "statements", "journal", "ledger", "spend",
    "activity",
)


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark measures.  Call after the
    workload's set-up, so every ``repro`` module is already imported."""
    # engine: SQL front end, planner, executor driver.
    rec.patch_function(sql_parser.parse_sql, "engine.sql.parse_sql")
    rec.patch_attr(Planner, "plan", "engine.plan.plan")
    rec.patch_attr(Optimizer, "optimize", "engine.plan.optimize")
    rec.patch_attr(QueryExecutor, "execute", "engine.exec.execute")
    rec.patch_attr(QueryExecutor, "execute_stream", "engine.exec.execute_stream")
    rec.patch_attr(StreamingExecution, "batches", "engine.exec.stream_batches")

    # engine kernels; the join hook counts the rows entering each join.
    def join_rows(args, _returned) -> None:
        rec.add("join_rows", args[0].num_rows + args[1].num_rows)

    rec.patch_function(
        physical.execute_hash_join, "engine.kernel.join.hash_join", count=join_rows
    )
    for fn, part in (
        (physical.join_tables, "join"),
        (physical.execute_semi_anti_join, "join"),
        (physical.execute_aggregate, "aggregate"),
        (physical.partial_aggregate, "aggregate"),
        (physical.final_aggregate, "aggregate"),
        (physical.execute_sort, "sort"),
        (physical.execute_top_n, "sort"),
        (physical.execute_distinct, "sort"),
        (physical.column_codes, "codes"),
    ):
        rec.patch_function(fn, f"engine.kernel.{part}.{fn.__name__}")

    def traced_eval(compiled):
        evaluate = rec.wrap(compiled, "engine.kernel.expr.evaluate")
        evaluate.__dict__.update(vars(compiled))  # keeps ``.source``
        return evaluate

    rec.patch_function(
        expr_module.compile_expr, "engine.kernel.expr.compile", result=traced_eval
    )

    # storage: table/file readers and writers, pool, store, codecs.
    rec.patch_attr(TableReader, "scan", "storage.read.table_scan")
    rec.patch_class(
        PixelsReader, "storage.read", ["__init__", "read", "read_group"]
    )
    rec.patch_attr(
        PixelsReader,
        "iter_groups",
        "storage.read.iter_groups",
        count=lambda _args, _group: rec.add("row_groups_read", 1),
    )
    rec.patch_attr(TableWriter, "write", "storage.write.table_write")
    rec.patch_class(PixelsWriter, "storage.write", ["write_row_group", "close"])
    rec.patch_class(
        BufferPool, "storage.pool", ["chunk", "footer", "put_chunk", "put_footer"]
    )
    rec.patch_class(ObjectStore, "storage.store", ["get", "read_range", "put"])
    rec.patch_class(StoreView, "storage.store", ["get"])
    rec.patch_function(
        columnar.decode_chunk,
        "storage.decode.decode_chunk",
        count=lambda args, _vector: rec.add("decoded_bytes", len(args[0])),
    )
    rec.patch_function(
        columnar.encode_chunk,
        "storage.encode.encode_chunk",
        count=lambda _args, blob: rec.add("encoded_bytes", len(blob)),
    )

    # sim: the loop, the heap, the metric series; every scheduled callback
    # gets a span named after the module that defined it.
    rec.patch_class(Simulator, "sim.loop", ["run", "run_until", "step"])
    rec.patch_attr(Simulator, "cancel", "sim.heap.cancel")
    for attr in ("schedule", "schedule_at"):
        push = rec.wrap(Simulator.__dict__[attr], f"sim.heap.{attr}")
        rec.replace(
            Simulator,
            attr,
            lambda self, when, callback, _push=push: _push(
                self, when, rec.wrap_callback(callback)
            ),
        )
    rec.patch_class(Trace, "sim.trace")

    # turbo: coordinator, venues, cost model, CF plan split.
    submit = rec.wrap(Coordinator.submit, "turbo.coordinator.submit")

    def coordinator_submit(self, *args, **kwargs):
        # The completion continuation belongs to whoever passed it (the
        # query server's billing path), not to the coordinator.
        if kwargs.get("on_complete") is not None:
            kwargs["on_complete"] = rec.wrap_callback(kwargs["on_complete"])
        return submit(self, *args, **kwargs)

    rec.replace(Coordinator, "submit", coordinator_submit)
    rec.patch_class(
        Coordinator, "turbo.coordinator", ["submit_shared_batch", "cancel"]
    )
    rec.patch_class(VmCluster, "turbo.vm", ["submit", "release"])
    rec.patch_attr(CfService, "invoke", "turbo.cf.invoke")
    rec.patch_class(
        CostModel,
        "turbo.cost",
        ["vm_execution", "cf_execution", "attribution", "meter", "user_price"],
    )
    rec.patch_function(plan_split.split_plan, "turbo.split.split_plan")
    rec.patch_class(SplitPlan, "turbo.split", ["attach", "attach_stream"])

    # core: the server façade, admission, fair queues, session fleet.
    rec.patch_class(
        QueryServer, "core.server", ["submit", "cancel", "downgrade_query"]
    )
    rec.patch_attr(AdmissionController, "decide", "core.admission.decide")
    rec.patch_class(
        LevelScheduler, "core.wfq", ["push", "pop", "peek", "claim", "remove"]
    )
    rec.patch_class(SessionFleet, "core.fleet", ["add", "start"])

    # obs: every public method the real sinks define (their Noop twins
    # override the mutators and stay unwrapped, so a disabled sink can
    # only show up here if real sink code runs).
    for cls, sink in (
        (Tracer, "tracer"),
        (Span, "tracer"),
        (MetricsRegistry, "metrics"),
        (Counter, "metrics"),
        (Gauge, "metrics"),
        (Histogram, "metrics"),
        (SloTracker, "slo"),
        (StatementStore, "statements"),
        (QueryJournal, "journal"),
        (MeterLedger, "ledger"),
        (SpendAccountant, "spend"),
        (ActivityRegistry, "activity"),
        (ProjectionGuard, "activity"),
        (ScrapeLoop, "timeseries"),
        (TimeSeriesStore, "timeseries"),
        (AlertEngine, "alerts"),
    ):
        rec.patch_class(cls, f"obs.{sink}")
    # Statement fingerprints and cost profiles feed several sinks; they
    # count towards obs.self_share but towards no single sink.
    for module in (fingerprint_module, profiler_module):
        for attr, value in list(vars(module).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                rec.patch_function(value, f"obs.profile.{attr}")


# -- metrics ------------------------------------------------------------------

#: (name, unit, better) of every per-layer metric, in print order.  The
#: ``engine.tpl.*`` and ``storage.op.*`` rows come from the untraced
#: reference part of the traced run.
PER_LAYER: list[tuple[str, str, str]] = [
    ("engine.sql.parse_us_p50", "us", "lower"),
    ("engine.sql.self_share", "ratio", "lower"),
    ("engine.plan.plan_us_p50", "us", "lower"),
    ("engine.plan.optimize_us_p50", "us", "lower"),
    ("engine.plan.self_share", "ratio", "lower"),
    ("engine.exec.execute_ms_p50", "ms", "lower"),
    ("engine.exec.self_share", "ratio", "lower"),
    ("engine.exec.rows_scanned_per_s", "1/s", "higher"),
    ("engine.exec.rows_scanned_per_row_out", "ratio", "lower"),
    ("engine.kernel.self_share", "ratio", "lower"),
    ("engine.kernel.join_self_share", "ratio", "lower"),
    ("engine.kernel.join_rows_per_s", "1/s", "higher"),
    ("engine.kernel.aggregate_self_share", "ratio", "lower"),
    ("engine.kernel.sort_self_share", "ratio", "lower"),
    ("engine.kernel.codes_self_share", "ratio", "lower"),
    ("engine.kernel.expr_self_share", "ratio", "lower"),
    *[(f"engine.tpl.{t}_ms_p50", "ms", "lower") for t in ENGINE_TEMPLATES],
    ("storage.self_share", "ratio", "lower"),
    ("storage.decode_self_share", "ratio", "lower"),
    ("storage.decode_mb_per_s", "MB/s", "higher"),
    ("storage.encode_mb_per_s", "MB/s", "higher"),
    ("storage.get_requests", "count", "lower"),
    ("storage.bytes_read", "bytes", "lower"),
    ("storage.logical_bytes_scanned", "bytes", "lower"),
    ("storage.pool_hit_ratio", "ratio", "higher"),
    ("storage.pool_evictions", "count", "lower"),
    ("storage.row_groups_skipped_ratio", "ratio", "higher"),
    ("storage.stored_bytes_per_user_byte", "ratio", "lower"),
    ("storage.op.scan_cold_ms_p50", "ms", "lower"),
    ("storage.op.scan_warm_ms_p50", "ms", "lower"),
    ("storage.op.ingest_ms_p50", "ms", "lower"),
    ("sim.self_share", "ratio", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_wall_s", "1/s", "higher"),
    ("sim.sim_s_per_wall_s", "ratio", "higher"),
    ("sim.loop_self_share", "ratio", "lower"),
    ("sim.trace_self_share", "ratio", "lower"),
    ("turbo.self_share", "ratio", "lower"),
    ("turbo.coordinator_submit_us_p50", "us", "lower"),
    ("turbo.autoscaler_tick_us_p50", "us", "lower"),
    ("turbo.cost_model_self_share", "ratio", "lower"),
    ("turbo.cf_split_self_share", "ratio", "lower"),
    ("turbo.vm_queries", "count", "higher"),
    ("turbo.cf_queries", "count", "higher"),
    ("turbo.cf_fragments", "count", "lower"),
    ("core.self_share", "ratio", "lower"),
    ("core.submit_us_p50_held", "us", "lower"),
    ("core.submit_us_p50_dispatched", "us", "lower"),
    ("core.tick_us_p50", "us", "lower"),
    ("core.admitted", "count", "higher"),
    ("core.rejected", "count", "lower"),
    ("core.downgraded", "count", "lower"),
    ("core.held_at_horizon", "count", "lower"),
    ("obs.self_share", "ratio", "lower"),
    *[(f"obs.{sink}_self_share", "ratio", "lower") for sink in OBS_SINKS],
    ("obs.on_off_wall_ratio", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.untraced_share", "ratio", "lower"),
    ("bench.wall_over_cpu", "ratio", "lower"),
    ("bench.calib_ms", "ms", "lower"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: SpanArrays, hooks: dict[str, int], counts: dict[str, float], rounds: int
) -> dict[str, float]:
    """Per-layer metrics of the traced part.

    ``hooks`` are the recorder's hook-fed totals over the whole traced
    part; ``counts`` are the exact counts of the *first* traced round
    (always the same round after the same warm-up, so they repeat run to
    run); ``rounds`` is how many traced rounds ``spans`` covers.
    """
    share = spans.self_share
    durations = spans.duration
    self_ns = spans.self_ns

    def p50(values: np.ndarray, scale: float) -> float:
        return float(np.median(values)) / scale if len(values) else 0.0

    submits = spans.exact("core.server.submit")
    dispatched = np.zeros(len(spans.name), dtype=bool)
    coordinator_submits = spans.exact("turbo.coordinator.submit")
    dispatched[spans.parent[coordinator_submits & (spans.parent >= 0)]] = True
    # A simulator event is a callback span fired directly by the loop
    # (continuations passed to Coordinator.submit nest deeper).
    loop = spans.mask("sim.loop.")
    fired = spans.mask("cb:") & (spans.parent >= 0)
    events = int(loop[spans.parent[fired]].sum())
    run_until_s = float(durations[loop].sum()) / 1e9
    reads = counts.get("chunk_cache_hits", 0) + counts.get("footer_cache_hits", 0)
    misses = counts.get("chunk_cache_misses", 0) + counts.get(
        "footer_cache_misses", 0
    )
    groups_read = hooks.get("row_groups_read", 0) / max(rounds, 1)
    metrics = {
        "engine.sql.parse_us_p50": p50(durations[spans.mask("engine.sql.")], 1e3),
        "engine.plan.plan_us_p50": p50(
            durations[spans.exact("engine.plan.plan")], 1e3
        ),
        "engine.plan.optimize_us_p50": p50(
            durations[spans.exact("engine.plan.optimize")], 1e3
        ),
        "engine.exec.execute_ms_p50": p50(
            durations[spans.exact("engine.exec.execute")], 1e6
        ),
        "engine.exec.rows_scanned_per_s": _ratio(
            counts.get("rows_scanned", 0) * rounds,
            float(durations[spans.mask("engine.exec.")].sum()) / 1e9,
        ),
        "engine.exec.rows_scanned_per_row_out": _ratio(
            counts.get("rows_scanned", 0), counts.get("rows_produced", 0)
        ),
        "engine.kernel.join_rows_per_s": _ratio(
            hooks.get("join_rows", 0), spans.self_seconds("engine.kernel.join.")
        ),
        "storage.decode_mb_per_s": _ratio(
            hooks.get("decoded_bytes", 0) / 1e6,
            spans.self_seconds("storage.decode."),
        ),
        "storage.encode_mb_per_s": _ratio(
            hooks.get("encoded_bytes", 0) / 1e6,
            spans.self_seconds("storage.encode."),
        ),
        "storage.get_requests": counts.get("get_requests", 0),
        "storage.bytes_read": counts.get("bytes_read", 0),
        "storage.logical_bytes_scanned": counts.get("logical_bytes_scanned", 0),
        "storage.pool_hit_ratio": _ratio(reads, reads + misses),
        "storage.pool_evictions": counts.get("chunk_cache_evictions", 0),
        "storage.row_groups_skipped_ratio": _ratio(
            counts.get("row_groups_skipped", 0),
            counts.get("row_groups_skipped", 0) + groups_read,
        ),
        "sim.events": events / max(rounds, 1),
        "sim.events_per_wall_s": _ratio(events, run_until_s),
        "sim.sim_s_per_wall_s": _ratio(
            counts.get("sim_seconds", 0) * rounds, run_until_s
        ),
        "sim.loop_self_share": share("sim.loop.", "sim.heap."),
        "sim.trace_self_share": share("sim.trace."),
        "turbo.coordinator_submit_us_p50": p50(self_ns[coordinator_submits], 1e3),
        "turbo.autoscaler_tick_us_p50": p50(
            self_ns[spans.exact("cb:repro.turbo.vm_cluster:VmCluster._evaluate")],
            1e3,
        ),
        "turbo.cost_model_self_share": share("turbo.cost."),
        "turbo.cf_split_self_share": share("turbo.split."),
        "core.submit_us_p50_held": p50(self_ns[submits & ~dispatched], 1e3),
        "core.submit_us_p50_dispatched": p50(self_ns[submits & dispatched], 1e3),
        "core.tick_us_p50": p50(
            self_ns[spans.exact("cb:repro.core.query_server:QueryServer._tick")],
            1e3,
        ),
        "bench.untraced_share": share("bench."),
    }
    for layer, prefixes in LAYER_PREFIXES.items():
        metrics[f"{layer}.self_share"] = share(*prefixes)
    for part in ("join", "aggregate", "sort", "codes", "expr"):
        metrics[f"engine.kernel.{part}_self_share"] = share(
            f"engine.kernel.{part}."
        )
    metrics["storage.decode_self_share"] = share("storage.decode.")
    for sink in OBS_SINKS:
        metrics[f"obs.{sink}_self_share"] = share(f"obs.{sink}.")
    for key in ("vm_queries", "cf_queries", "cf_fragments"):
        metrics[f"turbo.{key}"] = counts.get(key, 0)
    for key in ("admitted", "rejected", "downgraded", "held_at_horizon"):
        metrics[f"core.{key}"] = counts.get(key, 0)
    return metrics


#: What the Workloads table in README.md predicts; a miss is a warning
#: that the workload no longer isolates the layer it was built for.
PREDICTIONS = {
    "engine_mix": (
        "engine.exec + engine.kernel >= 0.85",
        lambda m: m["engine.exec.self_share"] + m["engine.kernel.self_share"]
        >= 0.85,
    ),
    "logs_storage": (
        "storage >= 0.6",
        lambda m: m["storage.self_share"] >= 0.6,
    ),
    "fleet_sched": (
        "engine.exec + engine.kernel <= 0.3",
        lambda m: m["engine.exec.self_share"] + m["engine.kernel.self_share"]
        <= 0.3,
    ),
    "hybrid_replay": (
        "obs == 0",
        lambda m: m["obs.self_share"] == 0.0,
    ),
}
