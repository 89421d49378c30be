"""Deterministic cost/time attribution profiles ("where did my $ go?").

The profiler fuses the two observability trees the system already
records — the tracer's span tree (queue, dispatch, plan, execute, bill)
and the executor's per-operator profile — into one :class:`ProfileNode`
tree and attributes the query's **billed price** to the nodes that earned
it.  Attribution spreads the resource split of the server's one meter
reading (:meth:`~repro.turbo.cost.CostModel.meter`): the bandwidth share is
distributed over each operator's self bytes scanned, the compute share
over self virtual time, the request share over self GET counts, and the
fixed share (startup/merge overhead no operator caused) stays at the
root.

Dollars are handled as **integer nanodollars** with largest-remainder
rounding, so the per-node attributed amounts sum *exactly* — not merely
approximately — to the billed price.  Everything here is derived from
virtual-clock spans and modelled operator times, so the folded-stack and
flame-graph exports are byte-reproducible across same-seed runs.  Real
elapsed time is measured from outside, by ``benchmarks/layers``.

Export formats:

* :func:`render_folded` — flamegraph.pl-compatible folded stacks
  (``frame;frame;frame value``), value in µs for time views and
  nanodollars for the dollar view.
* :mod:`repro.obs.flamegraph` — self-contained SVG flame graphs (no
  scripts, deterministic colors), one for time and one for dollars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.engine.executor import OperatorProfile

if TYPE_CHECKING:  # import cycle: turbo.coordinator imports repro.obs
    from repro.turbo.cost import MeterReading

NANOS_PER_DOLLAR = 1_000_000_000

#: The resource axes one bill splits into, in the order
#: :meth:`~repro.turbo.cost.CostModel.attribution` splits it.
AXES = ("bandwidth", "compute", "requests", "fixed")

#: Span name under which the executor's operator tree is grafted.
EXECUTE_SPAN = "execute"


@dataclass
class ProfileNode:
    """One frame of the attribution tree (a span or a plan operator).

    ``self_*`` values are this node's own share (children excluded);
    cumulative values are derived, never stored, so grafted subtrees can
    never disagree with their parents.
    """

    name: str
    kind: str  # "span" | "operator"
    self_time_s: float = 0.0
    bytes_scanned: int = 0  # self bytes
    get_requests: int = 0  # self GETs
    footer_gets: int = 0  # request-class split of self GETs
    chunk_gets: int = 0
    rows_out: int = 0
    batches: int = 0
    peak_bytes: int = 0
    morsels: int = 0  # self source granules (row groups) processed
    self_nanodollars: int = 0
    children: list["ProfileNode"] = field(default_factory=list)

    # -- derived (cumulative over the subtree) -------------------------------

    @property
    def cum_nanodollars(self) -> int:
        return self.self_nanodollars + sum(
            c.cum_nanodollars for c in self.children
        )

    def walk(self) -> Iterator["ProfileNode"]:
        """Preorder traversal of the subtree (self first)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def frame(self) -> str:
        """The node's folded-stack frame name (separator-safe)."""
        return self.name.replace(";", ":").replace(" ", "_")


def _span_to_node(span: dict) -> ProfileNode:
    """Convert one tracer timeline span (nested dict) to a ProfileNode.

    A span's self time is its duration minus the children's durations,
    clamped at zero (children can overhang when a safety-net close stamps
    them at the same instant)."""
    children = [_span_to_node(child) for child in span.get("children", [])]
    end = span.get("end")
    duration = max(0.0, (end - span["start"])) if end is not None else 0.0
    child_time = sum(
        max(0.0, (c.get("end") or c["start"]) - c["start"])
        for c in span.get("children", [])
    )
    return ProfileNode(
        name=span["name"],
        kind="span",
        self_time_s=max(0.0, duration - child_time),
        children=children,
    )


def _operator_to_node(profile: OperatorProfile) -> ProfileNode:
    """Convert the executor's operator tree (cumulative counters) to
    ProfileNodes (self counters)."""
    children = [_operator_to_node(child) for child in profile.children]
    self_bytes = profile.bytes_scanned - sum(
        c.bytes_scanned for c in profile.children
    )
    self_gets = profile.get_requests - sum(
        c.get_requests for c in profile.children
    )
    self_footer_gets = profile.footer_gets - sum(
        c.footer_gets for c in profile.children
    )
    self_chunk_gets = profile.chunk_gets - sum(
        c.chunk_gets for c in profile.children
    )
    self_morsels = profile.morsels - sum(c.morsels for c in profile.children)
    return ProfileNode(
        name=profile.name,
        kind="operator",
        self_time_s=profile.self_time_s,
        bytes_scanned=max(0, self_bytes),
        get_requests=max(0, self_gets),
        footer_gets=max(0, self_footer_gets),
        chunk_gets=max(0, self_chunk_gets),
        rows_out=profile.rows_out,
        batches=profile.batches,
        peak_bytes=profile.peak_bytes,
        morsels=max(0, self_morsels),
        children=children,
    )


def _find_last(root: ProfileNode, name: str) -> ProfileNode | None:
    """Last preorder node with ``name`` (the execute span of the final,
    successful attempt when retries produced several)."""
    found = None
    for node in root.walk():
        if node.name == name:
            found = node
    return found


def _distribute(pool: int, weights: list[float]) -> list[int]:
    """Split ``pool`` (an int) proportionally to ``weights``, exactly.

    Largest-remainder rounding: floor every share, then hand the leftover
    units to the largest fractional remainders (ties broken by index, so
    the split is deterministic).  Returns all zeros when the pool or the
    weights are empty — the caller must then park the pool elsewhere.
    """
    total = sum(weights)
    if pool <= 0 or total <= 0:
        return [0] * len(weights)
    exact = [pool * w / total for w in weights]
    shares = [int(x) for x in exact]
    leftover = pool - sum(shares)
    order = sorted(
        range(len(weights)), key=lambda i: (shares[i] - exact[i], i)
    )
    for i in order[:leftover]:
        shares[i] += 1
    return shares


def _attribute_dollars(root: ProfileNode, axes: dict[str, int]) -> None:
    """Spread the bill's resource axes over the tree, in integer
    nanodollars.

    Four pools, each keyed to the resource that earned it: bandwidth →
    self bytes scanned, compute → self virtual time (operators only, so
    queue waits are never billed as compute), requests → self GETs,
    fixed → the root.  Every pool whose weights are all zero falls back
    to the root, so the invariant Σ self_nanodollars == billed_nanodollars
    holds unconditionally.
    """
    bandwidth, compute, requests, fixed = map(axes.__getitem__, AXES)
    operators = [n for n in root.walk() if n.kind == "operator"]
    root.self_nanodollars += fixed
    for pool, weights in (
        (bandwidth, [float(n.bytes_scanned) for n in operators]),
        (compute, [n.self_time_s for n in operators]),
        (requests, [float(n.get_requests) for n in operators]),
    ):
        shares = _distribute(pool, weights)
        for node, share in zip(operators, shares):
            node.self_nanodollars += share
        root.self_nanodollars += pool - sum(shares)  # zero-weight fallback


@dataclass
class QueryProfile:
    """One query's fused attribution tree plus the bill spread over it
    (``None`` for a query that billed nothing)."""

    query_id: str
    root: ProfileNode
    bill: "MeterReading | None"

    @property
    def billed_nanodollars(self) -> int:
        return self.bill.billed_nanodollars if self.bill is not None else 0

    # -- folded-stack exports ------------------------------------------------

    def folded_time(self) -> str:
        return render_folded(self.root, "time")

    def folded_dollars(self) -> str:
        return render_folded(self.root, "dollars")

    # -- flame graphs --------------------------------------------------------

    def flamegraph_time_svg(self, title: str | None = None) -> str:
        from repro.obs.flamegraph import render_flamegraph_svg

        return render_flamegraph_svg(
            self.root, "time", title or f"{self.query_id} — virtual time"
        )

    def flamegraph_dollars_svg(self, title: str | None = None) -> str:
        from repro.obs.flamegraph import render_flamegraph_svg

        return render_flamegraph_svg(
            self.root, "dollars", title or f"{self.query_id} — attributed $"
        )


def _node_value(node: ProfileNode, value: str) -> int:
    if value == "time":
        return round(node.self_time_s * 1_000_000)  # µs
    if value == "dollars":
        return node.self_nanodollars
    raise ValueError(f"unknown profile value {value!r}")


def render_folded(root: ProfileNode, value: str = "time") -> str:
    """flamegraph.pl-compatible folded stacks.

    One line per tree node with a nonzero self value:
    ``frame;frame;frame <int>`` — µs for ``time``, nanodollars for
    ``dollars``; both views are virtual and deterministic.
    """
    lines: list[str] = []

    def visit(node: ProfileNode, stack: list[str]) -> None:
        frames = stack + [node.frame()]
        val = _node_value(node, value)
        if val > 0:
            lines.append(f"{';'.join(frames)} {val}")
        for child in node.children:
            visit(child, frames)

    visit(root, [])
    if not lines:  # keep the artifact non-empty and parseable
        lines.append(f"{root.frame()} 0")
    return "\n".join(lines) + "\n"


def build_query_profile(
    query_id: str,
    timeline: dict | None,
    operators: OperatorProfile | None,
    bill: "MeterReading | None",
) -> QueryProfile:
    """Fuse a tracer timeline + executor operator profile into one tree
    and spread ``bill`` (the server's reading, ``None`` when the query
    billed nothing) over it.

    Either input may be missing: with no timeline the operator tree is
    the root (under a synthetic ``query`` frame); with no operator
    profile the whole bill parks at the root span.  The operator tree is
    grafted under the *last* ``execute`` span — the final, successful
    attempt when retries recorded several.
    """
    span_root: ProfileNode | None = None
    if timeline is not None and timeline.get("spans"):
        roots = [_span_to_node(span) for span in timeline["spans"]]
        if len(roots) == 1:
            span_root = roots[0]
        else:
            span_root = ProfileNode(name=f"query {query_id}", kind="span")
            span_root.children = roots
    op_root = _operator_to_node(operators) if operators is not None else None
    if span_root is None:
        root = ProfileNode(name=f"query {query_id}", kind="span")
        if op_root is not None:
            root.children.append(op_root)
    else:
        root = span_root
        if op_root is not None:
            anchor = _find_last(root, EXECUTE_SPAN) or root
            anchor.children.append(op_root)
    if bill is not None:
        _attribute_dollars(root, bill.axes)
    return QueryProfile(query_id=query_id, root=root, bill=bill)
