"""The vectorized SQL query engine.

Pixels-Turbo executes real SQL; this package is the from-scratch engine the
reproduction runs on, organized as a classic pipeline:

``SQL text`` → :mod:`~repro.engine.sql.lexer` → :mod:`~repro.engine.sql.parser`
→ :mod:`~repro.engine.binder` (name/type resolution against the catalog)
→ :mod:`~repro.engine.plan` (logical plan) → :mod:`~repro.engine.optimizer`
(push-downs, join ordering, Top-N fusion) → :mod:`~repro.engine.pipeline`
(batch-at-a-time physical operators over the :mod:`~repro.engine.physical`
kernels) → :mod:`~repro.engine.executor` (the pipeline driver).

The supported SQL subset covers the TPC-H-style workloads in
:mod:`repro.workloads`: inner/left joins, WHERE with three-valued logic,
GROUP BY / HAVING, aggregate functions, CASE, BETWEEN/IN/LIKE, ORDER BY,
LIMIT, and DISTINCT.
"""

from repro.engine.batch import DEFAULT_BATCH_SIZE
from repro.engine.executor import QueryExecutor, QueryResult
from repro.engine.binder import Binder
from repro.engine.optimizer import Optimizer
from repro.engine.planner import Planner
from repro.engine.sql.parser import parse_sql

__all__ = [
    "Binder",
    "DEFAULT_BATCH_SIZE",
    "Optimizer",
    "Planner",
    "QueryExecutor",
    "QueryResult",
    "parse_sql",
]
