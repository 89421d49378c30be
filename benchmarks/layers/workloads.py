"""The four benchmark workloads.

Each workload is a single client thread calling the program's public
API.  Two are closed loops over the engine (`engine_mix`, kernels;
`logs_storage`, the storage layer read cold, read warm, and written);
two are replays that are open loops in *simulated* time but run flat-out
in wall time (`fleet_sched`, scheduler + simulator + observability;
`hybrid_replay`, every layer in its production proportion).  Sizes are
recorded in README.md; why each exists is in BENCHMARK.json.

A workload exposes ``setup()`` (dataset + dataset check + warm-up) and
``round(index)`` — one pass over its templates or one whole replay —
and times only calls into the program; digesting and checking outputs
happens between the timed calls.

The clock is the client thread's CPU clock (``time.thread_time_ns``).
The program is single-threaded and never blocks, so on a quiet machine
that *is* its wall time; on the shared sandbox the benchmark has to be
steady on, the hypervisor takes the CPU away for up to 60 % of a run and
the wall clock swings by 10×.  The wall time of the same calls is kept
beside it and reported as ``bench.wall_over_cpu``; the day the program
starts to wait — worker processes, real I/O — that ratio leaves 1 on a
quiet machine and the clock must be revisited.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from time import perf_counter_ns, thread_time_ns
from typing import Any, Callable

import numpy as np

import repro.engine.sql.parser as sql_parser
from repro.baselines.runner import Submission, run_workload
from repro.core import QueryStatus, ServiceLevel
from repro.core.query_server import QueryServer
from repro.core.scheduler import AdmissionPolicy, SessionFleet, SessionSpec
from repro.engine import Optimizer, Planner, QueryExecutor
from repro.engine.source import ObjectStoreSource
from repro.obs import Instrumentation
from repro.sim import Simulator
from repro.storage import (
    BufferPool,
    CacheConfig,
    Catalog,
    ObjectStore,
    TableReader,
    TableWriter,
)
from repro.turbo import TurboConfig
from repro.turbo.coordinator import Coordinator, ExecutionVenue
from repro.workloads import LogsGenerator, TpchGenerator, load_dataset
from repro.workloads.arrivals import (
    diurnal_arrivals,
    spike_arrivals,
    steady_arrivals,
)

import statements as stm
from statements import VARIANTS, table_digest

BUCKET = "warehouse"


@dataclass
class Round:
    """What one pass / replay did and how long the program took."""

    ops: int = 0  # statements, storage ops, or submissions
    #: (step class, ns) of every timed call into the program.
    steps: list[tuple[str, int]] = field(default_factory=list)
    #: Time in the program that is not a step: building a replay's stack,
    #: draining it after the last arrival.
    other_ns: int = 0
    #: The same calls on the wall clock (steps + other); only the ratio to
    #: the CPU-clock total is reported, as a sign of a disturbed machine.
    real_ns: int = 0
    attempted: int = 0
    failed: int = 0
    #: Exact counts read from the program's public stats objects.
    counts: dict[str, float] = field(default_factory=dict)
    #: What the correctness check compared (printed for unseen seeds).
    outputs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Time in the program: every step plus ``other_ns``."""
        return (self.other_ns + sum(ns for _, ns in self.steps)) / 1e9


def _rng(seed: int, tag: str, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode()), *extra])


class Workload:
    name = ""
    warmup_rounds = 1

    def __init__(self, seed: int, golden: dict) -> None:
        self.seed = seed
        self.golden = golden
        #: First-seen outputs for keys the golden file does not cover;
        #: later rounds must reproduce them (run-to-run equality).
        self.seen: dict[str, Any] = {}
        #: Set by the runner for the traced part.
        self.recorder = None
        self._orders: dict[str, np.ndarray] = {}
        self.store = ObjectStore()
        self.catalog = Catalog()

    # -- hooks ---------------------------------------------------------------

    def setup(self) -> None:
        self.load()
        round_ = Round()
        self.check(round_, "dataset", self.dataset_fingerprint())
        if round_.failed:
            raise SystemExit(
                f"{self.name}: dataset differs from golden.json — the "
                "generator or the file format changed; run --update-golden"
            )
        self.warm_up()

    def warm_up(self) -> None:
        for index in range(self.warmup_rounds):
            self.round(index)

    def load(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> Round:
        raise NotImplementedError

    # -- shared machinery -----------------------------------------------------

    def dataset_fingerprint(self) -> list:
        tables = {
            f"{schema}.{table}": self.catalog.table(schema, table).row_count
            for schema in self.catalog.schema_names
            for table in self.catalog.schema(schema).table_names
        }
        return [tables, self.store.total_bytes(BUCKET, "")]

    def timed(
        self, round_: Round, label: str, fn: Callable[[], Any], step: bool = True
    ) -> Any:
        """Run ``fn`` on the clock — as one step, or as time that counts
        towards the round only — and as one trace root if traced."""
        recorder = self.recorder
        root = recorder.begin_op(label) if recorder is not None else None
        real_started = perf_counter_ns()
        started = thread_time_ns()
        try:
            return fn()
        finally:
            elapsed = thread_time_ns() - started
            round_.real_ns += perf_counter_ns() - real_started
            if step:
                round_.steps.append((label, elapsed))
            else:
                round_.other_ns += elapsed
            if root is not None:
                recorder.exit(root)

    def check(self, round_: Round, key: str, value: Any) -> None:
        expected = self.golden.get(key)
        if expected is None:
            expected = self.seen.setdefault(key, value)
        round_.attempted += 1
        round_.outputs[key] = value
        if expected != value:
            round_.failed += 1

    def run_sql(self, sql: str, schema: str, pool: BufferPool | None):
        """The direct engine path a Coordinator takes per query."""
        statement = sql_parser.parse_sql(sql)
        plan = Planner(self.catalog, schema).plan(statement)
        plan = self.optimizer.optimize(plan)
        source = ObjectStoreSource(self.store, cache=pool)
        return QueryExecutor(source).execute(plan)

    def statement_step(
        self, round_: Round, key: str, label: str, sql: str, schema: str, pool
    ) -> None:
        try:
            result = self.timed(
                round_, label, lambda: self.run_sql(sql, schema, pool)
            )
        except Exception as error:  # an op that raised is a failed op
            round_.attempted += 1
            round_.failed += 1
            round_.outputs[key] = repr(error)
            return
        round_.ops += 1
        stats = result.stats
        for counter in ("rows_scanned", "rows_produced", "row_groups_skipped"):
            round_.counts[counter] = round_.counts.get(counter, 0) + getattr(
                stats, counter
            )
        self.check(round_, key, self.output_of(result))

    @staticmethod
    def output_of(result) -> list:
        """What is compared for a statement: row count + result digest."""
        return [result.num_rows, table_digest(result.data)]

    def statements(self):
        """Every (golden key, sql, schema) a statement workload can run."""
        raise NotImplementedError

    def golden_entries(self) -> dict[str, Any]:
        """Every (key → expected output) this workload can be asked for."""
        entries: dict[str, Any] = {"dataset": self.dataset_fingerprint()}
        for key, sql, schema in self.statements():
            entries[key] = self.output_of(self.run_sql(sql, schema, None))
        return entries

    def with_storage_counts(self, round_: Round, before) -> Round:
        delta = self.store.metrics.delta(before)
        for key, value in vars(delta).items():
            if isinstance(value, int):
                round_.counts[key] = value
        return round_

    def variant(self, template: str, index: int, count: int = VARIANTS) -> int:
        """The literal variant ``template`` runs in pass ``index``: a seeded
        permutation, so any ``count`` consecutive passes cover them all."""
        order = self._orders.get(template)
        if order is None:
            order = _rng(self.seed, self.name + template).permutation(count)
            self._orders[template] = order
        return int(order[index % count])


# -- engine_mix ---------------------------------------------------------------


class EngineMix(Workload):
    """14 templates, each once per pass in seeded order, warm shared pool."""

    name = "engine_mix"
    warmup_rounds = 2
    tpch_scale = 2.0
    log_rows = 100_000

    def load(self) -> None:
        generator = TpchGenerator(self.tpch_scale, 42)
        self.num_orders = generator.num_orders
        load_dataset(self.store, self.catalog, "tpch", generator.tables())
        load_dataset(
            self.store,
            self.catalog,
            "weblogs",
            [LogsGenerator(self.log_rows, 7).table()],
        )
        self.pool = BufferPool(self.store)
        self.optimizer = Optimizer()
        self.templates = [(t, "tpch") for t in stm.TPCH_TEMPLATES] + [
            (t, "weblogs") for t in stm.LOGS_TEMPLATES
        ]

    def sql(self, template: str, schema: str, v: int) -> str:
        if schema == "tpch":
            return stm.tpch_statement(template, v, self.num_orders)
        return stm.logs_statement(template, v)

    def round(self, index: int) -> Round:
        round_ = Round()
        before = self.store.metrics.snapshot()
        order = _rng(self.seed, self.name, index).permutation(len(self.templates))
        for position in order:
            template, schema = self.templates[position]
            v = self.variant(template, index)
            self.statement_step(
                round_,
                f"{template}/{v}",
                template,
                self.sql(template, schema, v),
                schema,
                self.pool,
            )
        return self.with_storage_counts(round_, before)

    def statements(self):
        for template, schema in self.templates:
            for v in range(VARIANTS):
                yield f"{template}/{v}", self.sql(template, schema, v), schema


# -- logs_storage -------------------------------------------------------------


class LogsStorage(Workload):
    """5 scans × {cold pool, warm pool} + one ingest per pass, over a log
    larger than the warm pool."""

    name = "logs_storage"
    log_rows = 400_000  # 22.3 MB stored
    #: Pool budget: 80 % of the 21 MB of chunks the scans touch, so the
    #: shared pool evicts.  (The default 64 MiB pool would need a 1.3 M-row
    #: log, whose set-up alone takes 6 s.)
    pool = CacheConfig(chunk_budget_bytes=16 * 1024 * 1024)
    ingest_rows = 65_536
    staging = "staging/ingest"

    def load(self) -> None:
        generator = LogsGenerator(self.log_rows, 7)
        self.span_s = generator.days * 86400
        load_dataset(self.store, self.catalog, "weblogs", [generator.table()])
        self.warm = BufferPool(self.store, self.pool)
        self.optimizer = Optimizer()
        # The seed picks the ingest batch (through the program's own log
        # generator), the window order, and the op order in each pass.
        self.batch = LogsGenerator(self.ingest_rows, 10_000 + self.seed).table().data
        # The ingest is self-verifying: its read-back must equal the batch.
        self.golden = {**self.golden, "ingest": table_digest(self.batch)}
        self.op_list = [
            (template, temperature)
            for template in stm.SCAN_TEMPLATES
            for temperature in ("cold", "warm")
        ] + [("ingest", "")]

    def ingest(self):
        TableWriter(self.store, BUCKET, self.staging).write(self.batch)
        return TableReader(self.store, BUCKET, self.staging).scan()

    def round(self, index: int) -> Round:
        round_ = Round()
        before = self.store.metrics.snapshot()
        order = _rng(self.seed, self.name, index).permutation(len(self.op_list))
        for position in order:
            template, temperature = self.op_list[position]
            if template == "ingest":
                scan = self.timed(round_, "ingest", self.ingest)
                round_.ops += 1
                self.check(round_, "ingest", table_digest(scan.data))
                continue
            v = self.variant(template, index, stm.scan_variants(template))
            # A fresh pool is what every CF invocation gets; the shared
            # one is the long-lived VM tier's.
            pool = (
                self.warm
                if temperature == "warm"
                else BufferPool(self.store, self.pool)
            )
            self.statement_step(
                round_,
                f"{template}/{v}",
                f"{template}.{temperature}",
                stm.scan_statement(template, v, self.span_s),
                "weblogs",
                pool,
            )
        return self.with_storage_counts(round_, before)

    def statements(self):
        for template in stm.SCAN_TEMPLATES:
            for v in range(stm.scan_variants(template)):
                sql = stm.scan_statement(template, v, self.span_s)
                yield f"{template}/{v}", sql, "weblogs"


# -- replays ------------------------------------------------------------------


class Replay(Workload):
    """Shared replay machinery: build the stack with every arrival
    scheduled, then advance the simulator one *batch* of arrivals at a
    time — each ``run_until`` up to the next ``batch``-th arrival is a
    timed step, "absorb the next N submissions and whatever else came due"
    — drain, and summarise the outcome."""

    tpch_scale = 0.02
    horizon_s = 0.0
    batch = 1  # arrivals per timed step
    #: Whether the replay runs with the observability stack on.
    observe = False

    def load(self) -> None:
        generator = TpchGenerator(self.tpch_scale, 42)
        self.num_orders = generator.num_orders
        load_dataset(self.store, self.catalog, "tpch", generator.tables())
        self.generate_arrivals()

    def generate_arrivals(self) -> None:
        """Seeded arrival schedule; must end with ``set_arrivals``."""
        raise NotImplementedError

    def set_arrivals(self, times: list[float]) -> None:
        ordered = sorted(times)
        self.submissions = len(ordered)
        self.boundaries = ordered[self.batch - 1 :: self.batch]

    @staticmethod
    def deal(rng: np.random.Generator, deck: list, count: int) -> list:
        """``count`` cards off ``deck``, reshuffled whenever it runs out:
        every card is used equally often (±1), so how much work a replay
        holds barely depends on the seed — only where the work lands."""
        cards: list = []
        while len(cards) < count:
            cards.extend(deck[i] for i in rng.permutation(len(deck)))
        return cards[:count]

    def build(self) -> tuple[Simulator, QueryServer]:
        """The whole stack, every arrival scheduled, nothing run yet."""
        raise NotImplementedError

    def drain_until(self, sim: Simulator, server: QueryServer) -> float | None:
        """Where to run to after the last batch; None once done."""
        raise NotImplementedError

    def warm_up(self) -> None:
        # Every round builds its whole stack afresh, so there is no cache
        # to fill — a quarter of a replay is enough to warm the interpreter.
        sim, _ = self.build()
        sim.run_until(self.horizon_s / 4)

    def round(self, index: int) -> Round:
        round_ = Round(ops=self.submissions)
        before = self.store.metrics.snapshot()
        sim, server = self.timed(round_, "build", self.build, step=False)
        for until in self.boundaries:
            self.timed(round_, "batch", lambda: sim.run_until(until))
        while (until := self.drain_until(sim, server)) is not None:
            self.timed(round_, "drain", lambda: sim.run_until(until), step=False)
        self.summarise(round_, sim, server)
        return self.with_storage_counts(round_, before)

    def summarise(self, round_: Round, sim: Simulator, server: QueryServer) -> None:
        queries = server.queries
        statuses = {status.value: 0 for status in QueryStatus}
        for query in queries:
            statuses[query.status.value] += 1
        admission = server.scheduler_snapshot()["admission"]
        immediate = [
            q.pending_time_s
            for q in queries
            if q.level is ServiceLevel.IMMEDIATE and q.pending_time_s is not None
        ]
        summary = {
            "submissions": self.submissions,
            "statuses": statuses,
            "billed_nanodollars": server.total_billed_nanodollars(),
            "admitted": admission["admitted"],
            "rejected": sum(admission["rejected"].values()),
            "downgraded": sum(admission["downgraded"].values()),
            "held_at_horizon": server.queued_relaxed + server.queued_best_effort,
            "max_immediate_pending_s": round(max(immediate, default=0.0), 9),
            "sim_now": round(sim.now, 9),
        }
        self.check(round_, f"seed/{self.seed}", summary)
        # A wrong replay makes every one of its submissions suspect.
        round_.attempted = self.submissions
        round_.failed = (
            self.submissions if round_.failed else statuses["failed"]
        )
        executions = [q.execution for q in queries if q.execution is not None]
        finished_stats = [
            e.result.stats for e in executions if e.succeeded and e.result
        ]
        round_.counts.update(
            rows_scanned=sum(s.rows_scanned for s in finished_stats),
            rows_produced=sum(s.rows_produced for s in finished_stats),
            row_groups_skipped=sum(s.row_groups_skipped for s in finished_stats),
            admitted=summary["admitted"],
            rejected=summary["rejected"],
            downgraded=summary["downgraded"],
            held_at_horizon=summary["held_at_horizon"],
            vm_queries=sum(e.venue is ExecutionVenue.VM for e in executions),
            cf_queries=sum(e.venue is ExecutionVenue.CF for e in executions),
            cf_fragments=sum(e.cf_workers for e in executions),
            sim_seconds=sim.now,
        )

    def golden_entries(self) -> dict[str, Any]:
        entries = {"dataset": self.dataset_fingerprint()}
        for seed in range(1, 13):
            self.seed = seed
            self.generate_arrivals()
            entries.update(self.round(0).outputs)
        return entries


class FleetSched(Replay):
    """bench_c9's shape with varied statements: sharded sessions → admission
    → weighted-fair hold queues → coordinator, observability on."""

    name = "fleet_sched"
    observe = True
    horizon_s = 3600.0
    batch = 50
    tenants = tuple(f"tenant-{i}" for i in range(8))

    def generate_arrivals(self) -> None:
        rng = _rng(self.seed, self.name)
        horizon = self.horizon_s
        bulk = diurnal_arrivals(
            rng, horizon, peak_rate_per_s=5.0, period_s=horizon,
            trough_fraction=0.1,
        )
        spike = spike_arrivals(
            rng, horizon, 0.0, spike_at_s=horizon / 2,
            spike_queries=1500, spike_spread_s=30.0,
        )
        probes = np.arange(300.0, horizon - 60.0, 60.0).tolist()
        texts = self.deal(
            rng,
            [
                stm.fleet_statement(template, v)
                for template in range(stm.FLEET_TEMPLATES)
                for v in range(stm.FLEET_VARIANTS)
            ],
            len(bulk) + len(spike),
        )
        probe_texts = self.deal(
            rng,
            [
                stm.fleet_statement(template, v)
                for template in stm.FLEET_PROBE_TEMPLATES
                for v in range(stm.FLEET_VARIANTS)
            ],
            len(probes),
        )
        self.specs = [
            SessionSpec(
                session_id=f"{kind}-{index}",
                tenant=(
                    "ops-probe"
                    if kind == "probe"
                    else self.tenants[index % len(self.tenants)]
                ),
                level=level,
                arrivals=(float(offset),),
                sql=sql,
            )
            for kind, level, offsets, sqls in (
                ("bulk", ServiceLevel.BEST_EFFORT, bulk, texts),
                ("spike", ServiceLevel.RELAXED, spike, texts[len(bulk) :]),
                ("probe", ServiceLevel.IMMEDIATE, probes, probe_texts),
            )
            for index, (offset, sql) in enumerate(zip(offsets, sqls))
        ]
        self.set_arrivals([spec.arrivals[0] for spec in self.specs])

    def build(self) -> tuple[Simulator, QueryServer]:
        config = TurboConfig.experiment(data_inflation=50_000.0)
        sim = Simulator(seed=424242)
        obs = (
            Instrumentation.create(clock=lambda: sim.now)
            if self.observe
            else Instrumentation.disabled()
        )
        coordinator = Coordinator(
            sim, config, self.catalog, self.store, "tpch", obs=obs
        )
        server = QueryServer(
            sim,
            coordinator,
            config,
            admission=AdmissionPolicy(
                tenant_quota=1000, downgrade_queue_depth=64
            ),
        )
        fleet = SessionFleet(sim, server, num_shards=16)
        for spec in self.specs:
            fleet.add(spec)
        fleet.start()
        return sim, server

    def drain_until(self, sim: Simulator, server: QueryServer) -> float | None:
        return self.horizon_s if sim.now < self.horizon_s else None


class HybridReplay(Replay):
    """The paper's headline scenario: steady relaxed + best-effort traffic
    with an immediate spike the VM cluster cannot absorb, observe off."""

    name = "hybrid_replay"
    tpch_scale = 0.3
    horizon_s = 1800.0
    batch = 5

    def generate_arrivals(self) -> None:
        rng = _rng(self.seed, self.name)
        horizon = self.horizon_s
        arrivals = [
            (time, level)
            for level, times in (
                (
                    ServiceLevel.RELAXED,
                    steady_arrivals(rng, horizon, 180 / horizon),
                ),
                (
                    ServiceLevel.BEST_EFFORT,
                    steady_arrivals(rng, horizon, 60 / horizon),
                ),
                (
                    ServiceLevel.IMMEDIATE,
                    spike_arrivals(
                        rng, horizon, 0.0, spike_at_s=horizon / 2,
                        spike_queries=60, spike_spread_s=2.0,
                    ),
                ),
            )
            for time in times
        ]
        texts = self.deal(
            rng,
            [
                stm.tpch_statement(template, v, self.num_orders)
                for template in stm.TPCH_TEMPLATES
                for v in range(VARIANTS)
            ],
            len(arrivals),
        )
        self.schedule = [
            Submission(float(time), sql, level)
            for (time, level), sql in zip(arrivals, texts)
        ]
        self.set_arrivals([submission.time for submission in self.schedule])

    def build(self) -> tuple[Simulator, QueryServer]:
        # horizon 0: run_workload wires the stack and schedules every
        # arrival; the benchmark then drives the simulator itself.
        result = run_workload(
            self.schedule,
            self.store,
            self.catalog,
            "tpch",
            TurboConfig.experiment(),
            horizon_s=0.0,
            observe=self.observe,
        )
        return result.sim, result.server

    def drain_until(self, sim: Simulator, server: QueryServer) -> float | None:
        # To quiescence, in the 60 s slices run_workload's own loop uses.
        if all(query.status.is_terminal for query in server.queries):
            return None
        return sim.now + 60.0


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (EngineMix, LogsStorage, FleetSched, HybridReplay)
}
