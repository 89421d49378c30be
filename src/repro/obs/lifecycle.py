"""The lifecycle log: what the two recorders observed, one flat entry per fact.

A query's spans, its journal rows and its activity transitions are
written as entries of one append-only :class:`LifecycleLog`, in the
order the recorders in :mod:`repro.obs.recorder` make their calls.  The
tracer, the query journal and the activity registry each append their
own kinds of entry and build their read-side objects — spans and
timelines, journal records, activity entries — by folding the log when
something reads them, so a query nobody asks about costs a few cells of
one list.

An entry reads back as a tuple ``(trace_id, previous, kind, *fields)``:
the query (trace) it belongs to, the position of the same sink's
previous entry for that trace (-1 for none), a kind string owned by the
sink that wrote it, and that kind's fields.  Fields are atoms — ``str``,
``int``, ``float``, ``None`` — or tuples of atoms, never a live object.
A kind that stores a mapping (a span's attributes, a journal row's) puts
it last, flat: its keys, then its values (:func:`mapping_at` reads it
back).

The log keeps its entries flat too: one list of cells, each entry its
field count, trace id, link and fields in a row.  Writing an entry
allocates no object the cycle collector has to count or traverse, which
at fleet scale — most submissions held, each a handful of entries — is
most of what watching them would otherwise cost.
"""

from __future__ import annotations

from typing import Iterator


def mapping_at(entry: tuple, offset: int) -> dict:
    """The mapping ``entry`` stores flat from ``offset`` on: its keys,
    then its values."""
    tail = entry[offset:]
    half = len(tail) // 2
    return dict(zip(tail[:half], tail[half:]))


class LifecycleLog:
    """Append-only entries, stored flat in one list of cells."""

    __slots__ = ("_cells",)

    def __init__(self) -> None:
        self._cells: list = []

    def append(self, trace_id: str, *fields: object) -> None:
        """Append an entry no one-query read needs (its link is -1);
        ``fields[0]`` is its kind."""
        self._cells.extend((len(fields), trace_id, -1))
        self._cells.extend(fields)

    def chain(self) -> "Chain":
        """A writer whose entries are linked per trace id."""
        return Chain(self._cells)

    @property
    def end(self) -> int:
        """The position the next entry will be written at."""
        return len(self._cells)

    def since(self, position: int) -> Iterator[tuple]:
        """The entries from ``position`` (an earlier :attr:`end`) on, in
        append order, up to the end as it stands when iteration starts."""
        cells = self._cells
        end = len(cells)
        while position < end:
            size = cells[position]
            yield tuple(cells[position + 1 : position + 3 + size])
            position += 3 + size

    def __iter__(self) -> Iterator[tuple]:
        """Every entry, in append order."""
        return self.since(0)


class Chain:
    """One sink's entries of a log, each linked to the sink's previous
    entry for the same trace, so a one-query read walks that query's
    entries alone."""

    __slots__ = ("_cells", "heads")

    def __init__(self, cells: list) -> None:
        self._cells = cells
        #: Trace id -> position of the sink's newest entry for it: the
        #: chain heads, and the index of every id the sink has written.
        self.heads: dict[str, int] = {}

    def append(self, trace_id: str, *fields: object) -> None:
        """Append ``(trace_id, previous, *fields)``; ``fields[0]`` is the
        entry's kind."""
        cells = self._cells
        heads = self.heads
        previous = heads.get(trace_id, -1)
        heads[trace_id] = len(cells)
        cells.extend((len(fields), trace_id, previous))
        cells.extend(fields)

    def of(self, trace_id: str) -> list[tuple]:
        """The sink's entries for ``trace_id``, oldest first."""
        cells = self._cells
        chain: list[tuple] = []
        position = self.heads.get(trace_id, -1)
        while position >= 0:
            entry = tuple(cells[position + 1 : position + 3 + cells[position]])
            chain.append(entry)
            position = entry[1]
        chain.reverse()
        return chain
