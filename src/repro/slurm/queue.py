"""Throughput-oriented simulator data structures.

The simulator's event loop avoids the two per-event hot spots of the
straight-line reference loop (``tests/oracles/reference_sim.py``):

- :class:`EventQueue` — a binary heap of ``[time, kind, seq, job]``
  entries with an index keyed ``(kind, job)`` so a scheduled event can be
  *invalidated in place* (lazy deletion).  A preempted job's END event is
  tombstoned instead of being re-checked against an attempt counter at
  pop time; tombstones are skipped (and discarded) as they surface.
- :class:`JobPool` — a pending/running membership set backed by NumPy
  index arrays with O(1) swap-remove, replacing the O(n)
  ``list.remove`` calls of the reference loop.  Iteration order is
  *not* insertion order; callers that need deterministic ordering sort
  by an explicit key (the simulator uses a global start counter).

Both structures are dependency-free and fully deterministic: heap ties
break on the monotone push sequence, never on job attributes.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["EventQueue", "JobPool"]

#: Tombstone marker in an entry's job slot.  Real jobs are indices >= 0.
_REMOVED = -1


class EventQueue:
    """Indexed min-heap of simulation events with lazy deletion.

    Entries order by ``(time, kind, seq)``: simultaneous events drain
    kind-major (eligibility before completion before release) and, within
    a kind, in push order — ``seq`` is unique, so comparisons never reach
    the job id.  ``(kind, job)`` keys the index; re-adding a key
    tombstones the superseded entry, as does :meth:`invalidate`.
    """

    __slots__ = ("_heap", "_index", "_seq", "tombstoned")

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._index: dict[tuple[int, int], list] = {}
        self._seq = 0
        #: Events invalidated (or superseded by a re-add) so far.
        self.tombstoned = 0

    def __len__(self) -> int:
        return len(self._index)

    def push(self, time: float, kind: int, job: int) -> None:
        """Schedule ``job``'s ``kind`` event, superseding any live one."""
        key = (kind, job)
        entry = self._index.get(key)
        if entry is not None:
            entry[3] = _REMOVED
            self.tombstoned += 1
        entry = [time, kind, self._seq, job]
        self._seq += 1
        self._index[key] = entry
        heapq.heappush(self._heap, entry)

    def invalidate(self, kind: int, job: int) -> bool:
        """Tombstone a live event; returns whether one existed."""
        entry = self._index.pop((kind, job), None)
        if entry is None:
            return False
        entry[3] = _REMOVED
        self.tombstoned += 1
        return True

    def _drop_removed(self) -> None:
        heap = self._heap
        while heap and heap[0][3] == _REMOVED:
            heapq.heappop(heap)

    def empty(self) -> bool:
        self._drop_removed()
        return not self._heap

    def peek_time(self) -> float:
        """Time of the next live event (raises on an empty queue)."""
        self._drop_removed()
        if not self._heap:
            raise IndexError("peek on an empty event queue")
        return self._heap[0][0]

    def pop(self) -> tuple[float, int, int]:
        """Remove and return the next live ``(time, kind, job)``."""
        self._drop_removed()
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        time, kind, _, job = heapq.heappop(self._heap)
        del self._index[(kind, job)]
        return time, kind, job

    def drain(self, cutoff: float) -> list[tuple[float, int, int]]:
        """Pop every live event with ``time <= cutoff``, in order.

        One call per simulation batch replaces a peek/pop call pair per
        event — the heap bookkeeping runs in locals.
        """
        heap = self._heap
        index = self._index
        heappop = heapq.heappop
        out: list[tuple[float, int, int]] = []
        while heap:
            entry = heap[0]
            job = entry[3]
            if job == _REMOVED:
                heappop(heap)
                continue
            if entry[0] > cutoff:
                break
            heappop(heap)
            kind = entry[1]
            del index[(kind, job)]
            out.append((entry[0], kind, job))
        return out

    def drain_next(
        self, window: float
    ) -> tuple[float, list[tuple[float, int, int]]] | None:
        """Pop the next event batch: ``(t, events within t + window)``.

        Fuses :meth:`peek_time` and :meth:`drain` into one heap
        traversal; returns ``None`` on an empty queue.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap and heap[0][3] == _REMOVED:
            heappop(heap)
        if not heap:
            return None
        t = heap[0][0]
        cutoff = t + window
        index = self._index
        out: list[tuple[float, int, int]] = []
        while heap:
            entry = heap[0]
            job = entry[3]
            if job == _REMOVED:
                heappop(heap)
                continue
            if entry[0] > cutoff:
                break
            heappop(heap)
            kind = entry[1]
            del index[(kind, job)]
            out.append((entry[0], kind, job))
        return t, out


class JobPool:
    """Set of job indices with O(1) add/remove and array iteration.

    ``view()`` exposes the members as a NumPy slice for vectorised
    gathers.  Removal swaps the last member into the removed slot, so
    order is unspecified — sort by an explicit key where order matters.
    """

    __slots__ = ("_members", "_pos", "_size", "version")

    def __init__(self, n_jobs: int) -> None:
        self._members = np.empty(max(n_jobs, 1), dtype=np.intp)
        self._pos = np.full(max(n_jobs, 1), -1, dtype=np.intp)
        self._size = 0
        #: Bumped on every membership change; callers caching derived
        #: views (e.g. the backfill shadow schedule) key on it.
        self.version = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, job: int) -> bool:
        return self._pos[job] >= 0

    def add(self, job: int) -> None:
        if self._pos[job] >= 0:
            raise ValueError(f"job {job} already in pool")
        self._members[self._size] = job
        self._pos[job] = self._size
        self._size += 1
        self.version += 1

    def remove(self, job: int) -> None:
        p = self._pos[job]
        if p < 0:
            raise KeyError(f"job {job} not in pool")
        last = self._members[self._size - 1]
        self._members[p] = last
        self._pos[last] = p
        self._pos[job] = -1
        self._size -= 1
        self.version += 1

    def view(self) -> np.ndarray:
        """Current members (unordered); valid until the next mutation."""
        return self._members[: self._size]
