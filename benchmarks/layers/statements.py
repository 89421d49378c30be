"""Statement catalogue and result digests for the layered benchmark.

Every template has a *fixed* list of literal variants; ``--seed`` only
chooses which variant each pass runs and in what order.  That keeps two
properties the benchmark needs at once: inputs depend on the seed, and
every statement any seed can produce has a golden digest in
``golden.json`` — so correctness is checked on unseen seeds too, not
just on the default one.
"""

from __future__ import annotations

import datetime
import hashlib

import numpy as np

from repro.storage.table import TableData
from repro.storage.types import DataType
from repro.workloads.logs import HTTP_METHODS, USER_AGENTS
from repro.workloads.tpch import MARKET_SEGMENTS, REGIONS, SHIP_MODES

#: Literal variants per template.  A 12 s run completes ~16 passes of
#: ``engine_mix``, so each variant runs about once whatever the seed.
VARIANTS = 16

_ERROR_CODES = (400, 403, 404, 500, 503)


def _date(iso: str, plus_days: int = 0) -> str:
    day = datetime.date.fromisoformat(iso) + datetime.timedelta(days=plus_days)
    return f"DATE '{day.isoformat()}'"


def _month(index: int) -> tuple[str, str]:
    """First days of month ``index`` (0 = 1993-01) and of the next one."""
    year, month = 1993 + index // 12, index % 12 + 1
    nxt = (year + (month == 12), month % 12 + 1)
    return f"DATE '{year}-{month:02d}-01'", f"DATE '{nxt[0]}-{nxt[1]:02d}-01'"


def tpch_statement(template: str, v: int, num_orders: int) -> str:
    """Variant ``v`` of a TPC-H template (the 8 ``TPCH_QUERIES`` shapes
    with their literals opened up).  ``num_orders`` scales the point
    lookup's key domain to the loaded dataset."""
    if template == "q1_pricing_summary":
        return (
            "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
            "sum(l_extendedprice) AS sum_base_price, "
            "sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
            "avg(l_quantity) AS avg_qty, count(*) AS count_order "
            f"FROM lineitem WHERE l_shipdate <= {_date('1998-09-02', -5 * v)} "
            "GROUP BY l_returnflag, l_linestatus "
            "ORDER BY l_returnflag, l_linestatus"
        )
    if template == "q3_shipping_priority":
        return (
            "SELECT o.o_orderkey, "
            "sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue, "
            "o.o_orderdate FROM customer c, orders o, lineitem l "
            f"WHERE c.c_mktsegment = '{MARKET_SEGMENTS[v % 5]}' "
            "AND c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey "
            f"AND o.o_orderdate < {_date('1995-03-01', 2 * v)} "
            "GROUP BY o.o_orderkey, o.o_orderdate "
            "ORDER BY revenue DESC, o_orderdate LIMIT 10"
        )
    if template == "q5_local_supplier":
        year = 1993 + v // 4
        return (
            "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue "
            "FROM customer c, orders o, lineitem l, supplier s, nation n, region r "
            "WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey "
            "AND l.l_suppkey = s.s_suppkey AND c.c_nationkey = s.s_nationkey "
            "AND s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey "
            f"AND r.r_name = '{REGIONS[v % 5]}' "
            f"AND o.o_orderdate >= DATE '{year}-01-01' "
            f"AND o.o_orderdate < DATE '{year + 1}-01-01' "
            "GROUP BY n_name ORDER BY revenue DESC"
        )
    if template == "q6_forecast_revenue":
        year, mid = 1993 + v % 5, 2 + 2 * (v // 5)
        return (
            "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem "
            f"WHERE l_shipdate >= DATE '{year}-01-01' "
            f"AND l_shipdate < DATE '{year + 1}-01-01' "
            f"AND l_discount BETWEEN 0.0{mid - 1} AND 0.0{mid + 1} "
            f"AND l_quantity < {24 + v % 2}"
        )
    if template == "q12_shipmode":
        year = 1993 + v % 5
        first, second = SHIP_MODES[v % 7], SHIP_MODES[(v + 3) % 7]
        return (
            "SELECT l.l_shipmode, "
            "sum(CASE WHEN o.o_orderpriority = '1-URGENT' "
            "OR o.o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS high_line_count, "
            "sum(CASE WHEN o.o_orderpriority <> '1-URGENT' "
            "AND o.o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END) AS low_line_count "
            "FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
            f"WHERE l.l_shipmode IN ('{first}', '{second}') "
            f"AND l.l_shipdate >= DATE '{year}-01-01' "
            f"AND l.l_shipdate < DATE '{year + 1}-01-01' "
            "GROUP BY l.l_shipmode ORDER BY l.l_shipmode"
        )
    if template == "q14_promo_effect":
        start, stop = _month(3 * v)
        return (
            "SELECT 100.00 * sum(CASE WHEN p.p_type LIKE 'PROMO%' "
            "THEN l.l_extendedprice * (1 - l.l_discount) ELSE 0 END) / "
            "sum(l.l_extendedprice * (1 - l.l_discount)) AS promo_revenue "
            "FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey "
            f"WHERE l.l_shipdate >= {start} AND l.l_shipdate < {stop}"
        )
    if template == "point_lookup":
        key = 1 + (v * 2654435761 + 41) % num_orders
        return (
            "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders "
            f"WHERE o_orderkey = {key}"
        )
    if template == "top_customers":
        return (
            "SELECT c.c_name, sum(o.o_totalprice) AS total_spent, count(*) AS orders "
            "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
            f"GROUP BY c.c_name ORDER BY total_spent DESC LIMIT {10 + v}"
        )
    raise KeyError(template)


TPCH_TEMPLATES = (
    "q1_pricing_summary",
    "q3_shipping_priority",
    "q5_local_supplier",
    "q6_forecast_revenue",
    "q12_shipmode",
    "q14_promo_effect",
    "point_lookup",
    "top_customers",
)


def logs_statement(template: str, v: int) -> str:
    """Variant ``v`` of a weblog template (the 6 ``LOGS_QUERIES`` shapes
    with a seeded filter each)."""
    if template == "error_rate_by_url":
        return (
            "SELECT url, count(*) AS errors FROM web_logs "
            f"WHERE status >= {_ERROR_CODES[v % 5]} AND ts >= {(v % 4) * 86400} "
            "GROUP BY url ORDER BY errors DESC, url"
        )
    if template == "top_urls_by_traffic":
        return (
            "SELECT url, sum(bytes_sent) AS total_bytes, count(*) AS hits "
            f"FROM web_logs WHERE bytes_sent > {v * 20000} "
            "GROUP BY url ORDER BY total_bytes DESC LIMIT 10"
        )
    if template == "status_distribution":
        return (
            "SELECT status, count(*) AS n FROM web_logs "
            f"WHERE ts >= {v * 6 * 3600} GROUP BY status ORDER BY status"
        )
    if template == "slow_requests":
        return (
            "SELECT url, avg(latency_ms) AS avg_latency, max(latency_ms) AS worst "
            f"FROM web_logs GROUP BY url HAVING avg(latency_ms) > {20 + v} "
            "ORDER BY avg_latency DESC"
        )
    if template == "hourly_traffic":
        return (
            "SELECT CAST(ts / 3600 AS int) % 24 AS hour_of_day, count(*) AS hits "
            f"FROM web_logs WHERE method = '{HTTP_METHODS[v % 4]}' "
            f"AND ts >= {(v // 4) * 86400} "
            "GROUP BY CAST(ts / 3600 AS int) % 24 ORDER BY hour_of_day"
        )
    if template == "bot_share":
        return (
            "SELECT agent, count(*) AS hits, count(DISTINCT ip) AS clients "
            f"FROM web_logs WHERE agent <> '{USER_AGENTS[v % 5]}' "
            f"AND ts >= {(v // 5) * 86400} "
            "GROUP BY agent ORDER BY hits DESC"
        )
    raise KeyError(template)


LOGS_TEMPLATES = (
    "error_rate_by_url",
    "top_urls_by_traffic",
    "status_distribution",
    "slow_requests",
    "hourly_traffic",
    "bot_share",
)

#: ``logs_storage`` scan templates; only ``scan_window`` takes a literal.
SCAN_TEMPLATES = (
    "scan_window",
    "scan_filter",
    "scan_numeric",
    "count_star",
    "limit_early",
)


def scan_statement(template: str, v: int, span_s: int) -> str:
    """A ``logs_storage`` scan over a log covering ``span_s`` seconds."""
    if template == "scan_window":
        width = span_s // 20  # ~5 % of the ts range
        low = (span_s - width) * v // (VARIANTS - 1)
        return (
            "SELECT ts, ip, method, url, status, bytes_sent, latency_ms, agent "
            f"FROM web_logs WHERE ts >= {low} AND ts < {low + width}"
        )
    if template == "scan_filter":
        return "SELECT ip, url, agent FROM web_logs WHERE status >= 500"
    if template == "scan_numeric":
        return (
            "SELECT sum(bytes_sent) AS total_bytes, avg(latency_ms) AS avg_latency "
            "FROM web_logs"
        )
    if template == "count_star":
        return "SELECT count(*) AS n FROM web_logs"
    if template == "limit_early":
        return "SELECT ts, url, status FROM web_logs LIMIT 100"
    raise KeyError(template)


def scan_variants(template: str) -> int:
    return VARIANTS if template == "scan_window" else 1


#: ``fleet_sched``: 12 cheap templates over TPC-H scale 0.02 (tables of a
#: few hundred rows), each with 64 literal vectors — 768 distinct texts.
FLEET_VARIANTS = 64


def fleet_statement(template: int, v: int) -> str:
    a, b = v % 8, v // 8  # two independent 0..7 literal axes
    if template == 0:
        return (
            "SELECT count(*) AS n FROM customer "
            f"WHERE c_custkey <= {1 + v % 30} AND c_acctbal > {(v // 30) * 2000 - 999}"
        )
    if template == 1:
        return (
            "SELECT o_orderstatus, count(*) AS n, sum(o_totalprice) AS total "
            f"FROM orders WHERE o_orderdate >= DATE '{1991 + a}-0{1 + b}-01' "
            "GROUP BY o_orderstatus"
        )
    if template == 2:
        return (
            "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders "
            f"WHERE o_orderkey = {1 + (v * 37) % 300}"
        )
    if template == 3:
        return f"SELECT count(*) AS n FROM orders WHERE o_totalprice > {v * 7000}"
    if template == 4:
        return (
            "SELECT max(o_totalprice) AS top, min(o_totalprice) AS low FROM orders "
            f"WHERE o_custkey = {1 + v % 30} AND o_totalprice > {(v // 30) * 100000}"
        )
    if template == 5:
        return (
            "SELECT o_orderpriority, count(*) AS n FROM orders "
            f"WHERE o_totalprice < {60000 + v * 6000} "
            "GROUP BY o_orderpriority ORDER BY o_orderpriority"
        )
    if template == 6:
        return (
            "SELECT c_mktsegment, count(*) AS n FROM customer "
            f"WHERE c_nationkey >= {a} AND c_acctbal > {b * 900 - 999} "
            "GROUP BY c_mktsegment"
        )
    if template == 7:
        return (
            "SELECT count(*) AS n, sum(ps_availqty) AS qty FROM partsupp "
            f"WHERE ps_supplycost < {100 + v * 14}"
        )
    if template == 8:
        return (
            "SELECT n_name FROM nation "
            f"WHERE n_nationkey >= {v % 25} AND n_regionkey <> {v // 25}"
        )
    if template == 9:
        return (
            "SELECT avg(o_totalprice) AS mean_price FROM orders "
            f"WHERE o_orderstatus = '{'FOP'[v // 30]}' AND o_custkey > {v % 30}"
        )
    if template == 10:
        return (
            "SELECT count(*) AS n FROM orders o JOIN customer c "
            "ON o.o_custkey = c.c_custkey "
            f"WHERE c.c_mktsegment = '{MARKET_SEGMENTS[v % 5]}' "
            f"AND o.o_totalprice > {(v // 5) * 30000}"
        )
    if template == 11:
        return (
            "SELECT o_orderkey, o_totalprice FROM orders "
            f"WHERE o_totalprice > {400000 + v * 1000} "
            "ORDER BY o_totalprice DESC LIMIT 5"
        )
    raise KeyError(template)


FLEET_TEMPLATES = 12
#: Immediate probes draw from the single-row templates only.
FLEET_PROBE_TEMPLATES = (0, 2, 3)


# -- digests ------------------------------------------------------------------


def _round_sig(values: np.ndarray, digits: int = 6) -> np.ndarray:
    """Round to ``digits`` significant digits, so a kernel that sums in a
    different order keeps the same digest."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        exponent = np.floor(np.log10(np.abs(values)))
    exponent = np.where(np.isfinite(exponent), exponent, 0.0)
    scale = 10.0 ** (digits - 1 - exponent)
    return np.round(values * scale) / scale + 0.0  # -0.0 -> 0.0


def table_digest(table: TableData) -> str:
    """Order-sensitive digest of a result: column names, values (floats at
    6 significant digits), and NULL masks."""
    sha = hashlib.sha1()
    for name, vector in table.columns.items():
        sha.update(name.encode())
        data = vector.data
        if vector.nulls is not None and vector.nulls.any():
            sha.update(np.packbits(vector.nulls).tobytes())
            data = data.copy()
            data[vector.nulls] = "" if vector.dtype is DataType.VARCHAR else 0
        if vector.dtype is DataType.VARCHAR:
            sha.update("\x1f".join(data.tolist()).encode())
        elif vector.dtype is DataType.DOUBLE:
            sha.update(_round_sig(data).tobytes())
        else:
            sha.update(np.ascontiguousarray(data).tobytes())
    return sha.hexdigest()[:16]
