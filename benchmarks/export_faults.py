"""Export every observability artifact of fault-injected, cancelled replays.

The other exporters and the observed benches inject no fault, so the
coordinator's crash, retry, give-up and in-flight-cancel paths leave no
byte in anything ``export_diff.py`` compares.  This replays, for each of
four seeds, 120 seeded arrivals (the TPC-H deck, a statement that fails
in planning, a server-submitted ``EXPLAIN ANALYZE``) over three levels
and two tenants with

* VM worker crashes and CF invocation failures under a retry budget of
  2 (``FaultConfig``), so some queries retry and some give up;
* quota + queue-pressure admission and the projection guard;
* ``batch_best_effort`` on for even seeds (shared-scan batches);
* 25 cancels at seeded times of whichever query is live then — held,
  VM-queued, running, or mid CF invocation;

and writes per seed, into ``results/`` (or the directory given as
argv[1]): traces, the metrics exposition, journal, ledger, statements,
SLO records, spend, activity, projections, time series, alerts and the
autoscaler audit.  Everything runs on the virtual clock, so two trees
that behave the same write the same bytes.

Only the public API is used (``run_workload`` and the sinks' exports),
so ``export_diff.py`` can run this file unchanged in an older tree.

Exit status 1 when a seed fails to reach one of the paths above — a
fence that compares nothing is worse than none.

Usage: PYTHONPATH=../src python export_faults.py [results_dir]
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

from repro import GuardPolicy, ServiceLevel
from repro.baselines.runner import Submission, WorkloadResult, run_workload
from repro.core.scheduler import AdmissionPolicy
from repro.storage.catalog import Catalog
from repro.storage.object_store import ObjectStore
from repro.turbo import TurboConfig
from repro.turbo.faults import FaultConfig
from repro.workloads import TPCH_QUERIES, TpchGenerator, load_dataset

SEEDS = (1, 2, 3, 4)
STATEMENTS = (
    *TPCH_QUERIES.values(),
    "SELECT no_such_column FROM nation",
    "EXPLAIN ANALYZE SELECT n_name, count(*) FROM nation GROUP BY n_name",
)


def replay(store: ObjectStore, catalog: Catalog, seed: int) -> WorkloadResult:
    rng = np.random.default_rng(seed)
    levels = list(ServiceLevel)
    submissions = [
        Submission(
            float(at),
            STATEMENTS[int(rng.integers(len(STATEMENTS)))],
            levels[int(rng.integers(len(levels)))],
            tenant=f"tenant-{int(rng.integers(2))}",
        )
        for at in np.sort(rng.uniform(0.0, 240.0, 120))
    ]
    # Horizon 0: the stack is built and every arrival scheduled, nothing
    # has run — the cancels below interleave with the replay.
    result = run_workload(
        submissions,
        store,
        catalog,
        "tpch",
        TurboConfig.experiment(data_inflation=20_000.0),
        seed=seed,
        horizon_s=0.0,
        observe=True,
        coordinator_kwargs={
            "faults": FaultConfig(
                vm_crash_rate=0.3, cf_failure_rate=0.3, max_retries=2
            )
        },
        server_kwargs={
            "batch_best_effort": seed % 2 == 0,
            "admission": AdmissionPolicy(
                tenant_quota=25, downgrade_queue_depth=8
            ),
            "guard": GuardPolicy(),
        },
    )
    sim, server = result.sim, result.server
    for at in np.sort(rng.uniform(5.0, 400.0, 25)):
        sim.run_until(float(at))
        live = [q for q in server.queries if not q.status.is_terminal]
        if live:
            server.cancel(live[int(rng.integers(len(live)))].query_id)
    while not all(q.status.is_terminal for q in server.queries):
        sim.run_until(sim.now + 60.0)
    result.obs.scrape()  # the state past the last tick
    return result


def unreached(result: WorkloadResult, batching: bool) -> list[str]:
    """The coordinator paths this replay was meant to walk and did not."""
    queries = result.server.queries
    executions = [q.execution for q in queries if q.execution is not None]
    reached = {
        "a retry": any(e.retries for e in executions),
        "a retry give-up": any("gave up" in (q.error or "") for q in queries),
        "a planning failure": any(
            "no_such_column" in (q.error or "") for q in queries
        ),
        "a cancel while held": any(
            q.cancelled and q.execution is None for q in queries
        ),
        "a cancel in flight": any(
            q.cancelled and q.execution is not None for q in queries
        ),
        "a CF execution": bool(result.coordinator.cf_service.invocations),
        "an EXPLAIN ANALYZE": any(e.explain_text for e in executions),
        "a shared batch": not batching
        or bool(result.coordinator.trace.values("batch.bytes_saved")),
    }
    return [path for path, hit in reached.items() if not hit]


#: Each export kind of the bundle → the file it is written to.
FILES = {
    "traces": "traces.json",
    "metrics": "metrics.txt",
    "journal": "journal.jsonl",
    "ledger": "ledger.jsonl",
    "statements": "statements.json",
    "slo": "slo.json",
    "spend": "spend.json",
    "activity": "activity.json",
    "projections": "projections.json",
    "timeseries": "timeseries.jsonl",
    "alerts": "alerts.jsonl",
}


def artifacts(result: WorkloadResult) -> dict[str, str]:
    return {
        **{name: result.obs.export(kind) for kind, name in FILES.items()},
        "audit.jsonl": result.coordinator.vm_cluster.export_audit_jsonl(),
    }


def export(results_dir: pathlib.Path) -> int:
    store, catalog = ObjectStore(), Catalog()
    load_dataset(store, catalog, "tpch", TpchGenerator(scale=0.02).tables())
    results_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for seed in SEEDS:
        result = replay(store, catalog, seed)
        for kind, payload in artifacts(result).items():
            path = results_dir / f"faults_s{seed}_{kind}"
            path.write_text(payload, encoding="utf-8")
        queries = result.server.queries
        print(
            f"seed {seed}: {len(queries)} queries, "
            f"{sum(q.execution.retries for q in queries if q.execution)} retries, "
            f"{sum(q.cancelled for q in queries)} cancelled, "
            f"{len(result.obs.ledger.events())} ledger events, "
            f"{len(result.obs.tracer.trace_ids())} traces"
        )
        for path in unreached(result, batching=seed % 2 == 0):
            print(f"seed {seed}: FAIL — the replay never reached {path}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(
        export(pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results"))
    )
