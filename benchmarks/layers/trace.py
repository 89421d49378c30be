"""Outside-in span recorder for the traced benchmark run.

Nothing under ``src/`` knows about this file.  The recorder wraps public
callables *in place* for the lifetime of the traced part — methods on
their classes, module functions in every ``repro.*`` namespace that
imported them, simulator callbacks at the ``Simulator.schedule`` seam —
and restores the originals on :meth:`Recorder.uninstall`.

A span is five integers (name id, start ns, end ns, parent span, op id)
in pre-sized parallel lists; the open-span stack is thread-local, so a
morsel worker thread would start its own root instead of corrupting the
client's stack.  Self time is computed afterwards: a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np

_CHUNK = 1 << 18


class Recorder:
    """In-memory span store plus the patch/restore bookkeeping."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = [0] * _CHUNK
        self.start = [0] * _CHUNK
        self.end = [0] * _CHUNK
        self.parent = [-1] * _CHUNK
        self.op = [0] * _CHUNK
        self._next = itertools.count()
        self._local = threading.local()
        #: Operation the client thread is in; spans inherit it.
        self.current_op = -1
        self.op_labels: list[str] = []
        #: Hook-fed totals read at span boundaries (rows, bytes, yields).
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def enter(self, name_id: int) -> int:
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = [-1]
        index = next(self._next)
        if index >= len(self.name):
            for column in (self.name, self.start, self.end, self.op):
                column.extend([0] * _CHUNK)
            self.parent.extend([-1] * _CHUNK)
        self.name[index] = name_id
        self.parent[index] = stack[-1]
        self.op[index] = self.current_op
        stack.append(index)
        self.start[index] = perf_counter_ns()
        return index

    def exit(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._local.stack.pop()

    def begin_op(self, label: str) -> int:
        """Open the root span of one client operation."""
        self.current_op = len(self.op_labels)
        self.op_labels.append(label)
        return self.enter(self.name_id("bench.op"))

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    # -- wrapping -------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Callable[[tuple, Any], None] | None = None,
        result: Callable[[Any], Any] | None = None,
    ) -> Callable:
        """``fn`` inside a span called ``name``.

        ``count(args, returned)`` feeds :attr:`counts` after the call;
        ``result`` post-processes the return value (how a compiled
        expression gets its eval span).
        Generator functions get one span per resumption, so time between
        pulls is not charged to them.
        """
        ident = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        index = enter(ident)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            exit_(index)
                        if count is not None:
                            count(args, item)
                        yield item
                finally:
                    inner.close()

            return generator

        if count is None and result is None:

            @functools.wraps(fn)
            def plain(*args, **kwargs):
                index = enter(ident)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(index)

            return plain

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            index = enter(ident)
            try:
                returned = fn(*args, **kwargs)
            finally:
                exit_(index)
            if count is not None:
                count(args, returned)
            return returned if result is None else result(returned)

        return hooked

    def wrap_callback(self, callback: Callable) -> Callable:
        """A continuation inside a span named after where it was defined
        (``cb:<module>:<qualname>``), so a simulator event is charged to
        the layer that scheduled it."""
        target = getattr(callback, "func", callback)  # functools.partial
        name = (
            f"cb:{getattr(target, '__module__', '?')}:"
            f"{getattr(target, '__qualname__', type(target).__name__)}"
        )
        ident = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        def fired(*args, **kwargs):
            index = enter(ident)
            try:
                return callback(*args, **kwargs)
            finally:
                exit_(index)

        return fired

    # -- patching -------------------------------------------------------------

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` and remember the original for uninstall."""
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_attr(self, owner: Any, attr: str, name: str, **hooks) -> None:
        """Replace method ``owner.attr`` by its traced wrapper."""
        self.replace(owner, attr, self.wrap(owner.__dict__[attr], name, **hooks))

    def patch_class(self, cls: type, prefix: str, methods=None) -> None:
        """Wrap ``methods`` of ``cls`` (default: every public plain method
        it defines itself — overrides in subclasses stay untouched, which
        is what keeps the ``Noop*`` observability twins unwrapped)."""
        if methods is None:
            methods = [
                attr
                for attr, value in cls.__dict__.items()
                if not attr.startswith("_") and inspect.isfunction(value)
            ]
        for attr in methods:
            self.patch_attr(cls, attr, f"{prefix}.{attr.strip('_')}")

    def patch_function(self, fn: Callable, name: str, **hooks) -> None:
        """Wrap module function ``fn`` in every ``repro.*`` namespace that
        holds a reference to it (``from x import fn`` copies the binding,
        so patching only the defining module would miss most callers)."""
        wrapper = self.wrap(fn, name, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def span_count(self) -> int:
        # Spans are allocated contiguously and a start stamp is never 0.
        return int(np.count_nonzero(np.asarray(self.start, dtype=np.int64)))

    def arrays(self, limit: int | None = None) -> "SpanArrays":
        """The spans recorded so far (the first ``limit`` of them)."""
        used = self.span_count() if limit is None else limit
        return SpanArrays(
            names=list(self.names),
            name=np.asarray(self.name[:used], dtype=np.int64),
            start=np.asarray(self.start[:used], dtype=np.int64),
            end=np.asarray(self.end[:used], dtype=np.int64),
            parent=np.asarray(self.parent[:used], dtype=np.int64),
            op=np.asarray(self.op[:used], dtype=np.int64),
        )

    def dump(self, path: str, limit: int, header: dict) -> None:
        """Write the first ``limit`` spans as one JSON object: ``header``,
        the name table, and the span columns."""
        spans = self.arrays(limit)
        origin = int(spans.start.min()) if len(spans.start) else 0
        payload = {
            **header,
            "unit": "ns since the first span",
            "names": spans.names,
            "op_labels": self.op_labels[: int(spans.op.max(initial=-1)) + 1],
            "spans": {
                "name": spans.name.tolist(),
                "start": (spans.start - origin).tolist(),
                "end": (spans.end - origin).tolist(),
                "parent": spans.parent.tolist(),
                "op": spans.op.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.write("\n")


class SpanArrays:
    """The recorded spans as numpy columns, with the derived quantities
    every per-layer metric is built from."""

    def __init__(self, names, name, start, end, parent, op) -> None:
        self.names = names
        self.name, self.start, self.end = name, start, end
        self.parent, self.op = parent, op
        self.duration = end - start
        children = np.zeros(len(name), dtype=np.int64)
        nested = parent >= 0
        np.add.at(children, parent[nested], self.duration[nested])
        #: Duration minus the interval covered by direct child spans.
        self.self_ns = self.duration - children
        #: Wall covered by root spans — the denominator of every share.
        self.wall_ns = int(self.duration[~nested].sum())

    def mask(self, *prefixes: str) -> np.ndarray:
        """Spans whose name starts with any of ``prefixes``."""
        wanted = [
            index
            for index, name in enumerate(self.names)
            if name.startswith(prefixes)
        ]
        return np.isin(self.name, wanted)

    def exact(self, name: str) -> np.ndarray:
        """Spans called exactly ``name``."""
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def self_share(self, *prefixes: str) -> float:
        if self.wall_ns == 0:
            return 0.0
        return float(self.self_ns[self.mask(*prefixes)].sum()) / self.wall_ns

    def self_seconds(self, *prefixes: str) -> float:
        return float(self.self_ns[self.mask(*prefixes)].sum()) / 1e9
