"""Priority queues backing the LaPerm schedulers (paper Fig. 5).

An :class:`Entry` corresponds to one row of a priority queue: a device
kernel (CDP) or a thread-block group (DTBL) — i.e. PC, parameter address,
configuration and a next-TB cursor. A :class:`MultiLevelQueue` holds one
FCFS deque per priority level; dispatch always drains the highest
non-empty level first.

The on-chip SRAM that stores queue entries is finite (128 entries per SMX
for DTBL, 32 for CDP); entries pushed beyond the capacity live in the
global-memory overflow area and pay an extra fetch latency on their first
dispatch. The queue tracks this accounting when given a ``capacity``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:
    from repro.gpu.kernel import ThreadBlock


class Entry:
    """One priority-queue row: an ordered run of not-yet-dispatched TBs."""

    __slots__ = ("tbs", "cursor", "level", "overflow", "fetched")

    def __init__(self, tbs: Sequence[ThreadBlock], level: int) -> None:
        if not tbs:
            raise ValueError("an entry needs at least one thread block")
        self.tbs = list(tbs)
        self.cursor = 0
        self.level = level
        self.overflow = False  # stored in global memory, not on-chip SRAM
        self.fetched = False  # overflow entry already fetched on-chip

    @property
    def empty(self) -> bool:
        return self.cursor >= len(self.tbs)

    @property
    def remaining(self) -> int:
        return len(self.tbs) - self.cursor

    def peek(self) -> ThreadBlock:
        return self.tbs[self.cursor]

    def pop(self) -> ThreadBlock:
        tb = self.tbs[self.cursor]
        self.cursor += 1
        return tb

    def dispatch_penalty(self, overflow_penalty: int) -> int:
        """Extra dispatch latency for the first fetch of an overflow entry."""
        if self.overflow and not self.fetched:
            self.fetched = True
            return overflow_penalty
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Entry(level={self.level}, remaining={self.remaining}, overflow={self.overflow})"


class MultiLevelQueue:
    """FCFS queues for priority levels ``0..max_level`` with optional
    on-chip capacity accounting."""

    def __init__(self, max_level: int, capacity: Optional[int] = None) -> None:
        if max_level < 0:
            raise ValueError("max_level must be >= 0")
        self.max_level = max_level
        self.capacity = capacity
        self._levels: list[deque[Entry]] = [deque() for _ in range(max_level + 1)]
        self.onchip_entries = 0
        self.overflow_events = 0
        self.entry_high_water = 0
        #: number of entries across all levels, maintained incrementally so
        #: per-cycle emptiness checks in the dispatch stage are O(1); may
        #: include exhausted entries that head() has not pruned yet
        self.entries = 0
        #: invoked as ``on_overflow(entry, now)`` when a push exceeds the
        #: on-chip capacity; schedulers wire this to the telemetry bus
        self.on_overflow: Optional[Callable[[Entry, int], None]] = None

    def push(self, entry: Entry, now: int = 0) -> None:
        level = min(entry.level, self.max_level)
        if self.capacity is not None:
            if self.onchip_entries < self.capacity:
                self.onchip_entries += 1
            else:
                entry.overflow = True
                self.overflow_events += 1
                if self.on_overflow is not None:
                    self.on_overflow(entry, now)
        self._levels[level].append(entry)
        self.entries += 1
        if self.entries > self.entry_high_water:
            self.entry_high_water = self.entries

    def _retire(self, entry: Entry) -> None:
        if self.capacity is not None and not entry.overflow:
            self.onchip_entries -= 1

    def head(self) -> Optional[Entry]:
        """Entry holding the next TB to dispatch (highest level, FCFS),
        pruning exhausted entries as they are encountered."""
        if not self.entries:
            return None
        for level in range(self.max_level, -1, -1):
            queue = self._levels[level]
            while queue:
                entry = queue[0]
                if entry.cursor >= len(entry.tbs):  # exhausted: prune
                    queue.popleft()
                    self.entries -= 1
                    self._retire(entry)
                    continue
                return entry
        return None

    @property
    def empty(self) -> bool:
        return self.head() is None

    @property
    def maybe_nonempty(self) -> bool:
        """O(1) conservative check: False guarantees the queue is empty;
        True may include only exhausted entries (head() prunes)."""
        return self.entries > 0

    @property
    def total_entries(self) -> int:
        return self.entries

    @property
    def total_tbs(self) -> int:
        return sum(e.remaining for q in self._levels for e in q)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        per_level = {i: len(q) for i, q in enumerate(self._levels) if q}
        return f"MultiLevelQueue(levels={per_level}, onchip={self.onchip_entries})"
