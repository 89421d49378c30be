"""A bounded least-recently-used map with hit, miss and eviction counts.

Its one user is a coordinator's cache of prepared statements, keyed by
the exact SQL text and the catalog version.  An entry is a pure function
of its key, so an evicted one is recomputed to the same value.  The
counts are plain attributes for tests to read; nothing exports them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

V = TypeVar("V")

#: Entries in a statement cache: more distinct texts than any shipped
#: workload sends one deployment (the fleet replay sends 768).
STATEMENT_CACHE_ENTRIES = 1024


class LruCache(Generic[V]):
    """At most ``capacity`` entries; a hit makes its entry the newest and
    a put past capacity drops the oldest."""

    def __init__(self, capacity: int = STATEMENT_CACHE_ENTRIES) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, V] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> V | None:
        """The entry under ``key`` (counted a hit), or None (a miss)."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: V) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
