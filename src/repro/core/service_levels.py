"""Service levels and query statuses (paper §3.2 and §4.3)."""

from __future__ import annotations

import enum

from repro.errors import InvalidServiceLevelError


class ServiceLevel(enum.Enum):
    """The three service levels a query can be submitted at (§3.2).

    Each level fixes (a) whether CF acceleration may be used, (b) the
    admission rule against the VM cluster's load, and (c) the price rate.
    The level bounds *pending time only*; execution itself is identical.
    """

    IMMEDIATE = "immediate"
    RELAXED = "relaxed"
    BEST_EFFORT = "best_effort"

    @property
    def cf_enabled(self) -> bool:
        """Only immediate queries may invoke cloud functions (§3.2(1))."""
        return self is ServiceLevel.IMMEDIATE

    @property
    def price_fraction(self) -> float:
        """Price relative to the immediate level (§3.2: 100 %/20 %/10 %)."""
        return _PRICE_FRACTIONS[self._value_]

    def deadline_s(self, grace_period_s: float) -> float | None:
        """The published pending-time deadline (§3.2): immediate starts at
        once, relaxed before ``grace_period_s`` expires, best-of-effort
        carries none."""
        if self is ServiceLevel.IMMEDIATE:
            return 0.0
        if self is ServiceLevel.RELAXED:
            return grace_period_s
        return None

    @property
    def display_color(self) -> str:
        """Background colour of the query's result block in Pixels-Rover
        (§4.3 distinguishes the levels by block colour)."""
        return {
            ServiceLevel.IMMEDIATE: "#f8d7da",  # red-ish: most urgent
            ServiceLevel.RELAXED: "#fff3cd",  # amber
            ServiceLevel.BEST_EFFORT: "#d4edda",  # green: most economical
        }[self]

    @staticmethod
    def from_string(name: str) -> "ServiceLevel":
        """Parse a user-supplied level name (several spellings accepted)."""
        normalized = name.strip().lower().replace("-", "_").replace(" ", "_")
        aliases = {
            "best_of_effort": "best_effort",
            "besteffort": "best_effort",
        }
        normalized = aliases.get(normalized, normalized)
        try:
            return ServiceLevel(normalized)
        except ValueError:
            raise InvalidServiceLevelError(
                f"unknown service level {name!r}; expected one of "
                "'immediate', 'relaxed', 'best-of-effort'"
            ) from None



#: By level value: a str key hashes in C, an enum member in Python.
_PRICE_FRACTIONS = {
    ServiceLevel.IMMEDIATE.value: 1.0,
    ServiceLevel.RELAXED.value: 0.2,
    ServiceLevel.BEST_EFFORT.value: 0.1,
}

class QueryStatus(enum.Enum):
    """The four statuses a submitted query moves through (§4.3)."""

    PENDING = "pending"  # waiting to execute
    RUNNING = "running"  # executing
    FINISHED = "finished"
    FAILED = "failed"

    @property
    def is_terminal(self) -> bool:
        return self in (QueryStatus.FINISHED, QueryStatus.FAILED)
