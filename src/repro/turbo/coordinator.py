"""The Coordinator: Pixels-Turbo's only long-running component (paper §2).

It manages metadata, parses/plans queries, coordinates execution tasks,
and collects results and statistics (execution time, resource
consumption).  This reproduction adds the two interfaces the paper
contributes (§2, §3.1): the query server can

* check the system's load status (query concurrency vs the watermarks) and
* specify per query whether CF acceleration is enabled.

Execution paths:

* a free VM slot → run the whole plan on that VM;
* no free slot and CF enabled → split the plan, fan the expensive
  sub-plan out to CF workers, feed the result to the cheap top-level plan
  as a materialized view (the query never loads the VM cluster further);
* no free slot and CF disabled → wait in the VM queue (cheaper, slower).
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from repro.errors import NoSuchQueryError, PixelsError
from repro.engine.executor import (
    OperatorProfile,
    QueryExecutor,
    QueryResult,
    QueryStats,
)
from repro.engine.optimizer import Optimizer
from repro.engine.prepare import (
    Template,
    bind,
    build_template,
    exact_shape,
    shape_of,
    slots_of,
)
from repro.engine.source import ObjectStoreSource
from repro.lru import LruCache
from repro.obs import Instrumentation, render_analyzed_plan
from repro.obs.fingerprint import (
    Fingerprint,
    fingerprint_statement,
    plan_shape_hash,
)
from repro.obs.recorder import ExecutionRecorder
from repro.sim import Simulator, Trace
from repro.storage.cache import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo.cf_service import CfService
from repro.turbo.config import TurboConfig
from repro.turbo.cost import CostModel, MeterReading
from repro.turbo.faults import FaultConfig, FaultInjector
from repro.turbo.plan_split import split_plan
from repro.turbo.vm_cluster import VmCluster, VmTask, VmWorker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.service_levels import ServiceLevel


class ExecutionVenue(enum.Enum):
    """Where a query's heavy work ran."""

    VM = "vm"
    CF = "cf"


@dataclass
class QueryExecution:
    """The Coordinator's record of one query (status + statistics)."""

    query_id: str
    sql: str
    submitted_at: float
    cf_enabled: bool
    started_at: float | None = None
    finished_at: float | None = None
    venue: ExecutionVenue | None = None
    result: QueryResult | None = None
    error: str | None = None
    provider_cost: float = 0.0
    cf_workers: int = 0
    retries: int = 0
    explain_text: str | None = None
    #: Per-operator profile of the final successful attempt, captured when
    #: observability is on (the profiler's input); None otherwise.
    profile: OperatorProfile | None = None
    #: Shape hash of the optimized plan (statement-store plan identity),
    #: captured when observability is on.
    plan_shape: str | None = None
    #: Scheduling context the submitter (the query server) attached —
    #: queue wait + admission verdict; EXPLAIN ANALYZE's ``pending:``
    #: header renders it next to the execution header.
    submit_context: dict | None = field(default=None, repr=False)
    #: The service level the submitter bills the query at (None for a
    #: query no query server submitted, which has no bill).
    level: "ServiceLevel | None" = field(default=None, repr=False)
    #: The meter reading of the latest execution window (or a plain
    #: EXPLAIN's zero reading), taken at ``level``; None without one.
    reading: MeterReading | None = field(default=None, repr=False)
    #: One-shot completion continuation: cleared just before it fires.
    on_complete: Callable[["QueryExecution"], None] | None = field(
        default=None, repr=False
    )

    @property
    def succeeded(self) -> bool:
        return self.finished_at is not None and self.error is None

    @property
    def bill(self) -> MeterReading | None:
        """The reading of a successful execution; any other has no bill."""
        return self.reading if self.succeeded else None

    @property
    def pending_time_s(self) -> float | None:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def execution_time_s(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def bytes_scanned(self) -> int:
        return self.result.stats.bytes_scanned if self.result else 0


class StatementShape:
    """One statement shape (:mod:`repro.engine.prepare`) as its coordinator
    knows it under one catalog version.

    It holds the statement parsed from the first text seen of the shape,
    and, once a text of it is planned, the shape's template.  The
    fingerprint and the plan's shape hash are the shape's, computed the
    first time an observer asks, so an unobserved coordinator computes
    neither and an observed one computes each once per shape.  A shape
    found ``parameter_free`` plans nothing itself: its texts are keyed
    by their exact token streams instead.
    """

    def __init__(self, sql: str, statement, literals: tuple) -> None:
        from repro.engine.sql import ast as sql_ast

        #: The text the statement was parsed from, and its literals.
        self.sql = sql
        self.literals = literals
        self.statement = statement
        #: None for a plain query, ``"plan"`` for EXPLAIN, ``"analyze"``
        #: for EXPLAIN ANALYZE.
        self.explain_mode: str | None = None
        if isinstance(statement, sql_ast.Explain):
            self.explain_mode = "analyze" if statement.analyze else "plan"
        self.template: Template | None = None
        self.parameter_free = False

    @cached_property
    def fingerprint(self) -> Fingerprint:
        """The whole statement's fingerprint, an EXPLAIN wrapper included:
        every text of the shape has the same one."""
        return fingerprint_statement(self.sql, self.statement)

    @cached_property
    def plan_shape(self) -> str:
        """The template's plan-shape hash (only once :attr:`template` is
        set): a bound plan has its template's node kinds and tables."""
        return plan_shape_hash(self.template.plan)


class PreparedStatement:
    """One SQL text as its coordinator knows it under one catalog version.

    The text is lexed once, when the entry is made, into its shape and
    literal vector; a text of a shape not seen before is parsed then.  A
    lex or parse failure is kept too, so planning never parses the text
    again while the entry lives.  :attr:`plan` is the text's literals
    bound into its shape's template, set once planning succeeds.
    """

    def __init__(
        self,
        sql: str,
        shape: StatementShape | None,
        literals: tuple = (),
        error: PixelsError | None = None,
    ) -> None:
        self.sql = sql
        self.shape = shape
        self.literals = literals
        #: The bound plan; None until the text is planned.
        self.plan: object | None = None
        self._parse_error = error

    @property
    def explain_mode(self) -> str | None:
        """None for a plain query, ``"plan"`` for EXPLAIN, ``"analyze"``
        for EXPLAIN ANALYZE (None for a text that did not parse)."""
        return self.shape.explain_mode if self.shape is not None else None

    def raise_parse_error(self) -> None:
        """A text that failed to parse raises a fresh copy of its error —
        the same class and message as a fresh parse would raise."""
        if self._parse_error is not None:
            raise copy.copy(self._parse_error)

    @cached_property
    def fingerprint(self) -> Fingerprint:
        """The shape's fingerprint, or the lexical fallback when the text
        did not parse."""
        if self.shape is None:
            return fingerprint_statement(self.sql, None)
        return self.shape.fingerprint

    @property
    def plan_shape(self) -> str:
        """The plan's shape hash (only once :attr:`plan` is set)."""
        return self.shape.plan_shape


def _graft_cf_profile(
    top: OperatorProfile, sub: OperatorProfile
) -> OperatorProfile:
    """Attach the CF sub-plan's operator profile under the top plan's
    MaterializedView leaf, rebuilding one end-to-end tree for the profiler.

    Only the per-operator ``self_time_s`` (and self storage deltas) stay
    meaningful across the graft — the top tree's cumulative fields predate
    the splice — which is exactly why the profiler works from selfs.
    """
    anchor = None
    stack = [top]
    while stack:
        node = stack.pop()
        if node.name == "MaterializedView":
            anchor = node
        stack.extend(node.children)
    (anchor if anchor is not None else top).children.append(sub)
    return top


def _self_time_total(profile: OperatorProfile) -> float:
    """Sum of per-operator self times over a profile tree — the additive
    work measure (cumulative times predate a CF graft; selfs survive)."""
    total = profile.self_time_s
    for child in profile.children:
        total += _self_time_total(child)
    return total


def _text_table(text: str):
    """A one-column VARCHAR table whose rows are ``text``'s lines — the
    result-set form of EXPLAIN output, renderable by any result surface."""
    from repro.storage.table import TableData
    from repro.storage.types import ColumnVector, DataType

    return TableData(
        {"plan": ColumnVector.from_values(DataType.VARCHAR, text.split("\n"))}
    )


class Coordinator:
    """Metadata + scheduling brain of Pixels-Turbo."""

    def __init__(
        self,
        sim: Simulator,
        config: TurboConfig,
        catalog: Catalog,
        store: ObjectStore,
        default_schema: str,
        trace: Trace | None = None,
        faults: FaultConfig | None = None,
        obs: Instrumentation | None = None,
    ) -> None:
        self._sim = sim
        self._config = config
        self.catalog = catalog
        self._store = store
        self._default_schema = default_schema
        self.trace = trace if trace is not None else Trace()
        self.obs = obs if obs is not None else Instrumentation.disabled()
        # The VM tier's buffer pool: VMs are long-running, so one pool
        # stays warm across every VM-executed query.  CF invocations get a
        # fresh pool each (see _run_on_cf) — functions cold-start.
        self.vm_buffer_pool = BufferPool.from_config(store, config.cache)
        self.vm_cluster = VmCluster(sim, config.vm, self.trace)
        self.cf_service = CfService(sim, config.cf, config.vm, self.trace)
        self.cost_model = CostModel(config)
        self._optimizer = Optimizer()
        #: Prepared statements by (exact SQL text, catalog version), and
        #: their shapes by (shape key, catalog version); see
        #: :meth:`statement` and :meth:`_prepare`.
        self.prepared: LruCache[PreparedStatement] = LruCache()
        self.shapes: LruCache[StatementShape] = LruCache()
        self._executions: dict[str, QueryExecution] = {}
        self._query_counter = 0
        # query_id -> (pending completion/crash event, worker) for queries
        # currently occupying a VM slot; used by cancel().
        self._vm_running: dict[str, tuple[object, VmWorker]] = {}
        self.fault_injector = (
            FaultInjector(faults, sim.rng.stream("faults"))
            if faults is not None
            else None
        )
        #: The one writer of execution spans, provider-account ledger
        #: rows, activity windows and the execution, venue and storage
        #: instruments; None when unobserved, so an unobserved coordinator
        #: runs no sink code at all.
        self._recorder = ExecutionRecorder.observing(self.obs, self)

    def _executor(self, pool: BufferPool | None) -> QueryExecutor:
        """An executor reading through ``pool`` — the warm VM pool or a CF
        invocation's private one."""
        return QueryExecutor(
            ObjectStoreSource(self._store, cache=pool),
            batch_size=self._config.batch_size,
            workers=self._config.workers or None,
        )

    def _open_window(
        self,
        execution: QueryExecution,
        stats: QueryStats,
        duration_s: float | None = None,
        cost: float = 0.0,
        merge_at: float | None = None,
    ) -> None:
        """The venue starts executing for ``duration_s``: accrue the
        operator's ``cost``, take the query's one meter reading of
        ``stats`` at its level and record the window.  A plain EXPLAIN
        occupies no venue, passes no ``duration_s`` and only reads."""
        if duration_s is not None:
            execution.provider_cost += cost
            if self._recorder is not None:
                self._recorder.provider_charged(execution, cost)
        if execution.level is not None:
            venue = execution.venue.value if execution.venue is not None else "none"
            execution.reading = self.cost_model.meter(
                stats, venue, execution.level,
                get_price_per_1000=self._store.profile.get_price_per_1000,
            )
        if duration_s is not None and self._recorder is not None:
            self._recorder.window_opened(execution, duration_s, merge_at)

    @property
    def config(self) -> TurboConfig:
        return self._config

    @property
    def store(self) -> ObjectStore:
        return self._store

    # -- load-status API (paper §2: "check the system's load status") -----------

    @property
    def concurrency(self) -> int:
        return self.vm_cluster.concurrency

    @property
    def concurrency_per_worker(self) -> float:
        return self.vm_cluster.concurrency_per_worker

    def below_high_watermark(self) -> bool:
        """Whether a new VM-only query would not overload the cluster."""
        return self.concurrency_per_worker < self._config.vm.high_watermark

    def below_low_watermark(self) -> bool:
        """Whether the cluster is idle enough that it would otherwise
        scale in (the best-of-effort admission condition)."""
        return self.concurrency_per_worker < self._config.vm.low_watermark

    # -- queries -------------------------------------------------------------------

    def execution(self, query_id: str) -> QueryExecution:
        try:
            return self._executions[query_id]
        except KeyError:
            raise NoSuchQueryError(f"no query {query_id!r}") from None

    @property
    def executions(self) -> list[QueryExecution]:
        return list(self._executions.values())

    def submit(
        self,
        sql: str,
        cf_enabled: bool,
        query_id: str | None = None,
        on_complete: Callable[[QueryExecution], None] | None = None,
        submit_context: dict | None = None,
        level: "ServiceLevel | None" = None,
    ) -> QueryExecution:
        """Accept a query for execution at the current simulated time.

        ``cf_enabled`` is the per-query switch this paper adds to
        Pixels-Turbo (§3.1): enabled → the query may be accelerated with
        CFs when the VM cluster is overloaded (immediate execution);
        disabled → the query waits for VM capacity.  ``submit_context``
        carries the submitter's scheduling story (queue wait, admission
        verdict) into EXPLAIN ANALYZE's ``pending:`` header, and
        ``level`` the service level it bills the query at.
        """
        execution = self._register(
            sql, query_id, cf_enabled, on_complete, submit_context, level
        )
        prepared = self._plan(execution)
        if prepared is None:
            return execution
        plan, explain_mode = prepared.plan, prepared.explain_mode
        if explain_mode == "plan":
            # Pure EXPLAIN renders without occupying any venue and bills
            # a zero reading (no bytes are scanned).
            execution.explain_text = self._render_plan_report(plan, cf_enabled)
            stats = QueryStats()
            self._open_window(execution, stats)
            self._succeed(
                execution, QueryResult(_text_table(execution.explain_text), stats)
            )
            return execution
        if explain_mode == "analyze":
            # EXPLAIN ANALYZE really executes; it is pinned to the VM path
            # so the profile covers one executor run end-to-end.
            self._run_on_vm(execution, plan, analyze=True)
        elif self._choose_cf(cf_enabled):
            self._run_on_cf(execution, plan)
        else:
            self._run_on_vm(execution, plan)
        return execution

    def _register(
        self,
        sql: str,
        query_id: str | None,
        cf_enabled: bool,
        on_complete: Callable[[QueryExecution], None] | None,
        submit_context: dict | None = None,
        level: "ServiceLevel | None" = None,
    ) -> QueryExecution:
        """Open the record of a query arriving now, under ``query_id`` or
        the next ``q-N``."""
        if query_id is None:
            self._query_counter += 1
            query_id = f"q-{self._query_counter}"
        if query_id in self._executions:
            raise PixelsError(f"duplicate query id {query_id!r}")
        execution = QueryExecution(
            query_id=query_id,
            sql=sql,
            submitted_at=self._sim.now,
            cf_enabled=cf_enabled,
            submit_context=submit_context,
            level=level,
            on_complete=on_complete,
        )
        self._executions[query_id] = execution
        return execution

    def _plan(
        self, execution: QueryExecution, batch: bool = False
    ) -> PreparedStatement | None:
        """``_prepare`` the execution's statement; a planning error fails
        the execution and returns None.  A shared batch cannot EXPLAIN."""
        try:
            prepared = self._prepare(execution.sql)
            if batch and prepared.explain_mode is not None:
                raise PixelsError(
                    "EXPLAIN is not supported on this execution path"
                )
        except PixelsError as error:
            if self._recorder is not None:
                self._recorder.planned(execution, error=str(error), batch=batch)
            self._fail(execution, str(error))
            return None
        if self._recorder is not None:
            self._recorder.planned(execution, prepared, batch=batch)
        return prepared

    def _choose_cf(self, cf_enabled: bool) -> bool:
        """The adaptive-acceleration decision (§3.1): CF only when the
        query allows it *and* the VM cluster has no free slot.  Baselines
        override this to force one venue."""
        return cf_enabled and not self.vm_cluster.has_free_slot()

    def statement(self, sql: str) -> PreparedStatement:
        """The one place a SQL text becomes a statement: the entry for
        ``sql`` under the current catalog version, lexed on first sight.

        A text miss lexes the text into its shape and literal vector and
        looks the shape up in :attr:`shapes`; only a shape not seen before
        is parsed.  Entries of older catalog versions are never looked up
        again and age out of both caches.  The query recorder reads a
        submission's fingerprint here, so an observed text is never
        parsed for naming alone."""
        key = (sql, self.catalog.version)
        prepared = self.prepared.get(key)
        if prepared is None:
            prepared = self._lex(sql)
            self.prepared.put(key, prepared)
        return prepared

    def _lex(self, sql: str) -> PreparedStatement:
        """A new text's entry: its shape's entry (made, by a parse, if the
        shape is new) and its literal vector."""
        try:
            text_shape = shape_of(sql)
        except PixelsError as error:
            return PreparedStatement(sql, None, error=error)
        shape = self.shapes.get((text_shape.key, self.catalog.version))
        if shape is not None and shape.parameter_free:
            text_shape = exact_shape(sql)
            shape = self.shapes.get((text_shape.key, self.catalog.version))
        if shape is None:
            try:
                statement = self._parse(sql)
            except PixelsError as error:
                return PreparedStatement(sql, None, error=error)
            shape = StatementShape(sql, statement, text_shape.literals)
            self.shapes.put((text_shape.key, self.catalog.version), shape)
        return PreparedStatement(sql, shape, text_shape.literals)

    def _prepare(self, sql: str) -> PreparedStatement:
        """:meth:`statement`, planned: its ``plan`` is set on return.

        A text whose entry holds a plan is not planned again.  Every
        caller treats the plan as read-only (the CF splitter copies the
        tail it rewires), so one plan serves every run of its text, and
        a bound plan shares its literal-free nodes with its shape's
        template.  A parse failure is part of the entry and raises a
        fresh copy of the same error each time; a bind or plan failure
        is not stored and is raised afresh by the next call."""
        prepared = self.statement(sql)
        if prepared.plan is None:
            shape = self._planned(prepared)
            prepared.plan = bind(shape.template, prepared.literals)
        return prepared

    def _planned(self, prepared: PreparedStatement) -> StatementShape:
        """The shape ``prepared`` binds into, its template built.

        A shape is planned once, from the statement it was first parsed
        from; if that text's own literals fail to plan (a bad DATE, say),
        a text of other literals plans from its own parse.  A template
        that comes back ``parameter_free`` hands the shape's texts over to
        their exact shapes, the planned text's plan becoming its own."""
        prepared.raise_parse_error()
        shape = prepared.shape
        if shape.parameter_free:
            shape = self._exact(prepared)
        if shape.template is not None:
            return shape
        source = shape.sql, shape.statement, shape.literals
        try:
            template = self._template(*source)
        except PixelsError:
            if prepared.literals == shape.literals:
                raise
            source = prepared.sql, self._parse(prepared.sql), prepared.literals
            template = self._template(*source)
        if not template.parameter_free:
            shape.template = template
            return shape
        shape.parameter_free = True
        sql, statement, _ = source
        exact = StatementShape(sql, statement, ())
        exact.template = Template(template.plan)
        self.shapes.put((exact_shape(sql).key, self.catalog.version), exact)
        return self._planned(prepared)

    def _exact(self, prepared: PreparedStatement) -> StatementShape:
        """Move ``prepared`` to its exact shape, parsed if new."""
        key = (exact_shape(prepared.sql).key, self.catalog.version)
        shape = self.shapes.get(key)
        if shape is None:
            shape = StatementShape(prepared.sql, self._parse(prepared.sql), ())
            self.shapes.put(key, shape)
        prepared.shape, prepared.literals = shape, ()
        return shape

    @staticmethod
    def _parse(sql: str):
        from repro.engine.sql.parser import parse_sql

        return parse_sql(sql)

    def _template(self, sql: str, statement, literals: tuple) -> Template:
        """Plan a statement parsed from ``sql`` into its shape's template
        (with no slots for an exact shape, whose literal vector is empty)."""
        from repro.engine.sql import ast as sql_ast

        if isinstance(statement, sql_ast.Explain):
            statement = statement.statement
        return build_template(
            self.catalog,
            self._default_schema,
            statement,
            slots_of(sql) if literals else (),
        )

    def execute_ddl(self, sql: str) -> str:
        """Run a DDL statement against the coordinator's metadata.

        ``CREATE TABLE`` registers the table (with a storage location under
        the warehouse bucket) and writes an empty columnar file so the table
        is immediately scannable; ``DROP TABLE`` removes the catalog entry
        and deletes its files.  Returns a human-readable confirmation.
        """
        from repro.engine.sql import ast as sql_ast
        from repro.engine.sql.parser import parse_sql
        from repro.storage.catalog import ColumnMeta
        from repro.storage.table import TableData, TableWriter
        from repro.storage.types import DataType

        statement = parse_sql(sql)
        if isinstance(statement, sql_ast.CreateTable):
            try:
                columns = [
                    ColumnMeta(name, DataType.from_string(type_name))
                    for name, type_name in statement.columns
                ]
            except ValueError as exc:
                raise PixelsError(str(exc)) from exc
            bucket = "warehouse"
            prefix = f"{self._default_schema}/{statement.name}"
            self._store.create_bucket(bucket)
            self.catalog.create_table(
                self._default_schema,
                statement.name,
                columns,
                bucket=bucket,
                prefix=prefix,
            )
            schema = [(c.name, c.dtype) for c in columns]
            TableWriter(self._store, bucket, prefix).write(TableData.empty(schema))
            return f"created table {statement.name}"
        if isinstance(statement, sql_ast.DropTable):
            table = self.catalog.table(self._default_schema, statement.name)
            if table.bucket and table.prefix:
                for key in self._store.list_keys(
                    table.bucket, table.prefix + "/"
                ):
                    self._store.delete(table.bucket, key)
            self.catalog.drop_table(self._default_schema, statement.name)
            return f"dropped table {statement.name}"
        raise PixelsError("execute_ddl expects CREATE TABLE or DROP TABLE")

    def explain(self, sql: str, cf_enabled: bool = True) -> str:
        """The optimized physical plan plus an execution annotation: the
        venue the coordinator would choose right now, the cost-model
        estimates for both venues, and the CF fan-out from the plan
        splitter — what an operator looks at before choosing a service
        level for an expensive query."""
        plan = self._prepare(sql).plan
        return self._render_plan_report(plan, cf_enabled)

    def explain_analyze(self, sql: str) -> str:
        """Execute ``sql`` inline (VM buffer pool, no queueing or venue
        scheduling) and render the plan annotated with each operator's
        actual rows, batches, bytes, GETs, cache hits, and deterministic
        virtual execution time."""
        plan = self._prepare(sql).plan
        executor = self._executor(self.vm_buffer_pool)
        return self._render_analyzed(
            plan, executor.execute(plan, analyze=True), executor
        )

    @staticmethod
    def _render_analyzed(
        plan, result: QueryResult, executor: QueryExecutor, pending=None
    ) -> str:
        assert result.profile is not None
        return render_analyzed_plan(
            plan,
            result.profile,
            result.stats,
            context={
                "workers": executor.workers,
                "batch_size": executor.batch_size,
            },
            pending=pending,
        )

    def _estimate_stats(self, plan) -> QueryStats:
        """Pre-execution scan-size estimate from catalog storage sizes,
        scaled by each scan's projected column fraction.  Row counts are
        unknown before execution, so the estimate covers the byte terms
        of the cost model only."""
        from repro.engine.plan import plan_scans

        estimated = 0
        for scan in plan_scans(plan):
            if not scan.table.bucket or not scan.table.prefix:
                continue
            total = self._store.total_bytes(scan.table.bucket, scan.table.prefix)
            width = max(len(scan.table.columns), 1)
            estimated += int(total * len(scan.columns) / width)
        return QueryStats(bytes_scanned=estimated)

    def _render_plan_report(self, plan, cf_enabled: bool) -> str:
        estimate = self._estimate_stats(plan)
        vm_estimate = self.cost_model.vm_execution(estimate)
        cf_estimate = self.cost_model.cf_execution(estimate)
        use_cf = self._choose_cf(cf_enabled)
        if use_cf:
            venue_reason = (
                "cf — cf acceleration enabled and the vm cluster has no free slot"
            )
        elif cf_enabled:
            venue_reason = "vm — a vm slot is free"
        else:
            venue_reason = "vm — cf acceleration disabled for this query"
        lines = [plan.explain(), "", "-- execution --", f"venue: {venue_reason}"]
        lines.append(
            f"estimated bytes scanned: {estimate.bytes_scanned}"
            " (from catalog storage sizes x projection width)"
        )
        lines.append(
            f"vm estimate: duration {vm_estimate.duration_s:.3f}s,"
            f" provider cost ${vm_estimate.provider_cost:.6f}"
        )
        lines.append(
            f"cf estimate: {cf_estimate.num_workers} workers,"
            f" duration {cf_estimate.duration_s:.3f}s,"
            f" provider cost ${cf_estimate.provider_cost:.6f}"
        )
        split = split_plan(plan)
        lines.append(
            f"cf fan-out: {cf_estimate.num_workers} workers execute the"
            f" sub-plan rooted at {type(split.sub).__name__}; the top-level"
            f" plan consumes it as {split.view.name}"
        )
        return "\n".join(lines)

    # -- VM path ---------------------------------------------------------------------

    def _run_on_vm(
        self, execution: QueryExecution, plan, analyze: bool = False
    ) -> None:
        if self._recorder is not None:
            self._recorder.vm_queued(execution)
        task = VmTask(
            task_id=execution.query_id,
            on_start=lambda worker: self._vm_started(
                execution, plan, worker, analyze
            ),
        )
        self.vm_cluster.submit(task)

    def _vm_started(
        self,
        execution: QueryExecution,
        plan,
        worker: VmWorker,
        analyze: bool = False,
    ) -> None:
        recorder = self._recorder
        query_id = execution.query_id
        if execution.started_at is None:
            execution.started_at = self._sim.now
        execution.venue = ExecutionVenue.VM
        if recorder is not None:
            recorder.attempt_started(execution, worker=worker.worker_id)
        # Profiles are captured whenever the run is observed (the profiler
        # fuses them with the span tree); building one changes neither the
        # result nor the stats billing derives from, preserving
        # observe-invariance.
        capture_profile = analyze or recorder is not None
        try:
            executor = self._executor(self.vm_buffer_pool)
            result = executor.execute(plan, analyze=capture_profile)
        except PixelsError as error:
            self.vm_cluster.release(worker)
            self._fail(execution, str(error))
            return
        execution.profile = result.profile
        if analyze and result.profile is not None:
            pending = None
            if execution.submit_context is not None:
                # Server-submitted ANALYZE: print the scheduling story
                # (server queue wait, admission verdict, VM queue) so a
                # slow query is attributable without opening the trace.
                pending = dict(execution.submit_context)
                pending["vm_queue_s"] = round(
                    self._sim.now - execution.submitted_at, 9
                )
            execution.explain_text = self._render_analyzed(
                plan, result, executor, pending
            )
            result = QueryResult(
                _text_table(execution.explain_text), result.stats, result.profile
            )
        estimate = self.cost_model.vm_execution(result.stats)
        if recorder is not None:
            recorder.attempt_measured(execution, result.stats)
        # A crashing worker dies partway through; the partial work is still
        # paid for, the worker is retired, and the query retries on the
        # remaining capacity.
        injector = self.fault_injector
        fails = injector is not None and injector.vm_task_fails()
        fraction = injector.failure_point() if fails else 1.0
        cost = estimate.provider_cost * fraction
        self._open_window(execution, result.stats, estimate.duration_s, cost)

        def ended() -> None:
            if recorder is not None and fails:
                recorder.attempt_ended(execution, "retry", reason="vm worker crashed")
            elif recorder is not None:
                recorder.attempt_ended(execution, "ok", result, cost)
            self._vm_running.pop(query_id, None)
            self.vm_cluster.release(worker)
            if fails:
                self.vm_cluster.fail_worker(worker)
                self._retry(execution, plan, reason="VM worker crashed")
            else:
                self._succeed(execution, result)

        event = self._sim.schedule(estimate.duration_s * fraction, ended)
        self._vm_running[query_id] = (event, worker)

    def _retry(self, execution: QueryExecution, plan, reason: str) -> None:
        assert self.fault_injector is not None
        if execution.retries >= self.fault_injector.config.max_retries:
            self._fail(
                execution,
                f"{reason}; gave up after {execution.retries} retries",
            )
            return
        execution.retries += 1
        self._run_on_vm(execution, plan)

    # -- CF path ---------------------------------------------------------------------

    def _run_on_cf(self, execution: QueryExecution, plan) -> None:
        recorder = self._recorder
        execution.started_at = self._sim.now
        execution.venue = ExecutionVenue.CF
        if recorder is not None:
            recorder.attempt_started(execution)
        split = split_plan(plan)
        try:
            # Each CF invocation starts with a cold, invocation-private
            # pool: it still coalesces range-GETs and reuses chunks within
            # the query, but no warmth carries across invocations.
            executor = self._executor(
                BufferPool.from_config(self._store, self._config.cache)
            )
            # Incremental merge: the sub-plan's result flows into the
            # top-level plan as a batch stream, so the merge step consumes
            # fragment output as it is produced instead of waiting for the
            # whole materialized view — and a top that stops early (LIMIT)
            # stops the sub-plan's remaining scan work.
            sub_exec = executor.execute_stream(split.sub)
            split.attach_stream(sub_exec.batches())
            top_result = executor.execute(
                split.top, analyze=recorder is not None
            )
        except PixelsError as error:
            self._fail(execution, str(error))
            return
        merge_at = None
        if top_result.profile is not None:
            sub_profile = sub_exec.profile()
            # The fraction of the execution window spent in the fanned-out
            # sub-plan; past it the query is in its VM-side merge phase
            # (the activity registry's "merging" lifecycle state).
            sub_work = _self_time_total(sub_profile)
            top_work = _self_time_total(top_result.profile)
            if sub_work + top_work > 0:
                merge_at = round(sub_work / (sub_work + top_work), 9)
            execution.profile = _graft_cf_profile(
                top_result.profile, sub_profile
            )
        # ``sub_exec.stats`` is read after the top plan drained (or
        # abandoned) the stream, so it reflects exactly the sub-plan work
        # performed — the CF billing basis.
        sub_stats = sub_exec.stats
        # The heavy statistics (bytes scanned, GETs, cache traffic) come
        # from the CF sub-plan; the merge step, which reads only the
        # materialized view, adds its own operator and storage counts and
        # decides the row count.
        merged_stats = replace(sub_stats)
        merged_stats.merge(top_result.stats)
        merged_stats.rows_produced = top_result.stats.rows_produced
        result = QueryResult(top_result.data, merged_stats)
        estimate = self.cost_model.cf_execution(sub_stats)
        execution.cf_workers = estimate.num_workers
        if recorder is not None:
            recorder.attempt_measured(
                execution, sub_stats, top_result.stats, sub_exec.batches_emitted
            )
        self._launch_cf(execution, result, estimate, merge_at)

    def _launch_cf(
        self,
        execution: QueryExecution,
        result,
        estimate,
        merge_at: float | None = None,
    ) -> None:
        recorder = self._recorder
        if recorder is not None:
            recorder.cf_invoked(execution)
        injector = self.fault_injector
        fails = injector is not None and injector.cf_invocation_fails()
        # A failing invocation dies partway through — before the merge —
        # and its function time is still billed.
        fraction = injector.failure_point() if fails else 1.0
        duration_s = estimate.duration_s * fraction
        cost = estimate.provider_cost * fraction
        self._open_window(
            execution, result.stats, duration_s, cost, None if fails else merge_at
        )

        def returned() -> None:
            if execution.finished_at is not None:
                return  # cancelled in flight: the invocation billed above
            if not fails:
                if recorder is not None:
                    recorder.attempt_ended(
                        execution, "ok", result, execution.provider_cost
                    )
                self._succeed(execution, result)
            elif execution.retries >= injector.config.max_retries:
                if recorder is not None:
                    recorder.attempt_ended(
                        execution, "error", error="cf invocation failed"
                    )
                self._fail(
                    execution,
                    "CF invocation failed; gave up after "
                    f"{execution.retries} retries",
                )
            else:
                execution.retries += 1
                self._launch_cf(execution, result, estimate, merge_at)

        self.cf_service.invoke(
            execution.query_id,
            estimate.num_workers,
            duration_s,
            on_complete=returned,
        )

    # -- batch optimization (paper §5: "opportunities for batch query
    #    optimization") -----------------------------------------------------------------

    def submit_shared_batch(
        self,
        sqls: list[str],
        query_ids: list[str] | None = None,
        on_complete: Callable[[QueryExecution], None] | None = None,
        level: "ServiceLevel | None" = None,
    ) -> list[QueryExecution]:
        """Execute several non-urgent queries as one shared-scan batch.

        The batch occupies a single VM slot; base tables referenced by
        more than one member are fetched once (see
        :mod:`repro.turbo.batching`).  Every member gets its own
        QueryExecution with its own result and bill; the shared fetch
        shows up as a lower combined provider cost, split evenly.
        ``level`` is the service level every member bills at.
        """
        from repro.turbo.batching import execute_shared_batch

        recorder = self._recorder
        executions = []
        plans = []
        members: list[QueryExecution] = []
        for sql, query_id in zip(sqls, query_ids or [None] * len(sqls)):
            execution = self._register(
                sql, query_id, False, on_complete, level=level
            )
            executions.append(execution)
            prepared = self._plan(execution, batch=True)
            if prepared is not None:
                plans.append(prepared.plan)
                members.append(execution)
        if not members:
            return executions
        batch = execute_shared_batch(
            plans,
            self._store,
            ObjectStoreSource(self._store, cache=self.vm_buffer_pool),
            cache=self.vm_buffer_pool,
        )
        estimate = self.cost_model.vm_execution(batch.combined)
        per_member_cost = estimate.provider_cost / len(members)
        self.trace.record(
            "batch.bytes_saved", self._sim.now, batch.shared_stats.bytes_saved
        )

        def started(worker: VmWorker) -> None:
            for execution, result in zip(members, batch.results):
                execution.started_at = self._sim.now
                execution.venue = ExecutionVenue.VM
                self._open_window(
                    execution, result.stats, estimate.duration_s, per_member_cost
                )
                if recorder is not None:
                    recorder.attempt_started(
                        execution,
                        batch=True,
                        batch_size=len(members),
                        bytes_saved=batch.shared_stats.bytes_saved,
                    )

            def finish() -> None:
                self.vm_cluster.release(worker)
                for execution, result in zip(members, batch.results):
                    if recorder is not None:
                        recorder.attempt_ended(execution, "ok", result)
                    self._succeed(execution, result)

            self._sim.schedule(estimate.duration_s, finish)

        self.vm_cluster.submit(
            VmTask(task_id=f"batch-{members[0].query_id}", on_start=started)
        )
        return executions

    # -- cancellation --------------------------------------------------------------------

    def cancel(self, query_id: str) -> bool:
        """Cancel a pending or running query.

        Pending VM-queued queries are removed from the queue; running VM
        queries have their slot freed at once; CF-accelerated queries are
        marked failed immediately but their invocations run (and bill) to
        completion — functions cannot be recalled once launched — and a
        failed one is not relaunched.  Returns False if the query had
        already finished.
        """
        execution = self.execution(query_id)
        if execution.finished_at is not None:
            return False
        running = self._vm_running.pop(query_id, None)
        if running is not None:
            event, worker = running
            self._sim.cancel(event)  # type: ignore[arg-type]
            self.vm_cluster.release(worker)
        else:
            self.vm_cluster.cancel_task(query_id)
        self._fail(execution, "cancelled by user", status="cancelled")
        return True

    # -- completion --------------------------------------------------------------------

    def _succeed(self, execution: QueryExecution, result: QueryResult) -> None:
        if execution.finished_at is not None:
            return  # e.g. cancelled while a CF invocation was in flight
        execution.finished_at = self._sim.now
        execution.result = result
        if self._recorder is not None:
            self._recorder.finished(execution, "ok")
        self._notify(execution)

    def _fail(
        self, execution: QueryExecution, message: str, status: str = "error"
    ) -> None:
        """Terminal failure; ``status`` is ``"cancelled"`` only when the
        user (or the guard) withdrew the query — never inferred from the
        message, which may quote user SQL.  A finished one stays as is."""
        if execution.finished_at is not None:
            return
        execution.finished_at = self._sim.now
        if execution.started_at is None:
            execution.started_at = self._sim.now
        execution.error = message
        if self._recorder is not None:
            self._recorder.finished(execution, status)
        self._notify(execution)

    def _notify(self, execution: QueryExecution) -> None:
        """Fire the completion continuation, once.  It is dropped before
        it runs: it usually closes over a record that points back at the
        execution, a cycle that would keep every finished query (and its
        result table) alive until a full garbage collection."""
        on_complete, execution.on_complete = execution.on_complete, None
        if on_complete is not None:
            on_complete(execution)

    # -- aggregate accounting -------------------------------------------------------------

    def total_provider_cost(self) -> float:
        """Infrastructure cost so far: VM uptime + CF invocations."""
        return self.vm_cluster.provider_cost() + self.cf_service.provider_cost()
