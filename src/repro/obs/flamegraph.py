"""Self-contained SVG flame graphs over :class:`ProfileNode` trees.

No JavaScript, no external assets: a static SVG where every frame is a
``<rect>`` with a ``<title>`` tooltip, so it renders anywhere (GitHub CI
artifact previews included) and diffs cleanly.  Colors come from an md5
hash of the frame name — Python's built-in ``hash`` is salted per
process, md5 is not — so same-seed runs produce byte-identical files,
which the determinism tests assert.

Layout is the classic icicle: root on top spanning the full width, each
node's box spans its *cumulative* value, children laid left-to-right
inside it, the uncovered remainder being the node's self value.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING
from xml.sax.saxutils import escape

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profiler import ProfileNode

ROW_HEIGHT = 18
HEADER_HEIGHT = 28
FONT_SIZE = 11
MIN_LABEL_WIDTH = 35.0  # px below which a frame gets no inline text


def _color(name: str, kind: str) -> str:
    """Deterministic warm color per frame name; operators skew orange,
    spans skew red, so the two tree layers are visually separable."""
    digest = hashlib.md5(name.encode("utf-8")).digest()
    v1, v2 = digest[0] / 255.0, digest[1] / 255.0
    if kind == "operator":
        r = 205 + int(50 * v1)
        g = 120 + int(80 * v2)
        b = 30 + int(40 * v1)
    else:
        r = 200 + int(55 * v1)
        g = 50 + int(90 * v2)
        b = 40 + int(50 * v2)
    return f"rgb({r},{g},{b})"


def _cum_value(node: "ProfileNode", value: str) -> int:
    from repro.obs.profiler import _node_value

    return _node_value(node, value) + sum(
        _cum_value(child, value) for child in node.children
    )


def _format_value(units: int, value: str) -> str:
    if value == "dollars":
        return f"${units / 1e9:.9f}"
    if units >= 1_000_000:
        return f"{units / 1e6:.3f} s"
    if units >= 1_000:
        return f"{units / 1e3:.3f} ms"
    return f"{units} µs"


def _layout(
    node: "ProfileNode",
    value: str,
    depth: int,
    x0: float,
    span: float,
    rects: list[tuple[int, float, float, "ProfileNode", int]],
) -> int:
    """Append the rectangles of ``node``'s subtree (pre-order) to
    ``rects``; returns the deepest depth laid out.  A module function,
    not a closure: a recursive closure is a reference cycle."""
    cum = _cum_value(node, value)
    rects.append((depth, x0, span, node, cum))
    deepest = depth
    # children left-to-right, each scaled by its share of this node
    x = x0
    for child in node.children:
        child_cum = _cum_value(child, value)
        if child_cum <= 0:
            continue
        child_span = span * child_cum / cum
        deepest = max(deepest, _layout(child, value, depth + 1, x, child_span, rects))
        x += child_span
    return deepest


def render_flamegraph_svg(
    root: "ProfileNode",
    value: str = "time",
    title: str = "flame graph",
    width: int = 1200,
) -> str:
    """Render the subtree as one static SVG document (a string)."""
    total = _cum_value(root, value)
    rects: list[tuple[int, float, float, "ProfileNode", int]] = []
    max_depth = 0
    if total > 0:
        max_depth = _layout(root, value, 0, 0.0, float(width), rects)
    height = HEADER_HEIGHT + (max_depth + 1) * ROW_HEIGHT + 6
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace">',
        f'<rect width="{width}" height="{height}" fill="#fdf6ec"/>',
        f'<text x="6" y="18" font-size="13" fill="#333">'
        f"{escape(title)} — total {_format_value(total, value)}</text>",
    ]
    for depth, x0, span, node, cum in rects:
        y = HEADER_HEIGHT + depth * ROW_HEIGHT
        pct = 100.0 * cum / total
        tooltip = (
            f"{node.name} — {_format_value(cum, value)} cumulative "
            f"({pct:.2f}%), {_format_value(_self_value(node, value), value)} self"
        )
        if node.kind == "operator":
            tooltip += (
                f"; rows_out={node.rows_out} batches={node.batches}"
                f" bytes={node.bytes_scanned}"
                f" gets={node.get_requests}"
                f" (footer {node.footer_gets}, chunk {node.chunk_gets})"
            )
            if node.morsels:
                tooltip += f" morsels={node.morsels}"
        parts.append(
            f'<g><rect x="{x0:.2f}" y="{y}" width="{max(span, 0.5):.2f}" '
            f'height="{ROW_HEIGHT - 1}" fill="{_color(node.name, node.kind)}" '
            f'stroke="#fdf6ec" stroke-width="0.5">'
            f"<title>{escape(tooltip)}</title></rect>"
        )
        if span >= MIN_LABEL_WIDTH:
            label = _fit_label(node.name, span)
            parts.append(
                f'<text x="{x0 + 3:.2f}" y="{y + 13}" '
                f'font-size="{FONT_SIZE}" fill="#1a1a1a">'
                f"{escape(label)}</text>"
            )
        parts.append("</g>")
    if total <= 0:
        parts.append(
            f'<text x="6" y="{HEADER_HEIGHT + 14}" font-size="12" '
            f'fill="#777">(no samples)</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _self_value(node: "ProfileNode", value: str) -> int:
    from repro.obs.profiler import _node_value

    return _node_value(node, value)


def _fit_label(name: str, span: float) -> str:
    chars = max(1, int((span - 6) / (FONT_SIZE * 0.62)))
    if len(name) <= chars:
        return name
    if chars <= 2:
        return name[:chars]
    return name[: chars - 2] + "…"
