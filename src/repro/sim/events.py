"""Event queue for the discrete-event kernel.

The queue is a binary heap of ``[time, seq, callback, args, handle]``
list entries. The sequence number breaks ties so that events scheduled
first at the same timestamp run first (FIFO among simultaneous events),
which keeps runs deterministic — and because ``seq`` is unique, heap
comparisons never look past the second element, so they stay entirely in
C (no ``__lt__`` dispatch on the hot path; profiling showed the old
per-handle ``__lt__`` was called ~1.6M times per PBFT test).

Two scheduling paths:

- :meth:`EventQueue.push` returns an :class:`EventHandle` for events that
  may be cancelled (timers);
- :meth:`EventQueue.defer` allocates **no handle** for the non-cancellable
  majority (message deliveries never cancel; only timers do). Both paths
  share one sequence counter, so interleaving them cannot change the
  execution order relative to an all-``push`` run.

The two hottest scheduling sites push their entries themselves, one frame
each: ``Node.set_timer`` (a ``push`` with its handle) and ``Node.send`` on a
LAN network (a ``defer`` whose handle slot names the destination endpoint,
see :class:`~repro.sim.network.Network`). Both take the next ``seq`` exactly
as these methods do; only a cancellation is counted (``_cancelled``), so an
entry is live while it is in the heap and not cancelled.

A third lane, :meth:`EventQueue.push_priority`, exists for simulation
*control* events (snapshot-and-fork attack activation): priority events use
negative sequence numbers from their own counter, so they sort before every
same-time ordinary event and — crucially — do **not** consume the shared
``seq`` counter. A run that schedules a priority event at construction and a
run that schedules the identical event after restoring a snapshot therefore
execute every ordinary event with identical ``(time, seq)`` keys.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

#: Heap-entry field indices (entries are plain lists for C-level compares).
_TIME, _SEQ, _CALLBACK, _ARGS, _HANDLE = range(5)


class EventHandle:
    """Handle to a scheduled event; allows cancellation.

    Cancellation is lazy: the heap entry stays in place (its callback
    nulled) and is discarded when it reaches the top. This makes
    :meth:`EventQueue.cancel` O(1).

    A pending event's entry points back at its handle; whoever takes the
    entry off the heap to run it (:meth:`EventQueue.pop`, the simulator's
    inlined loop) or cancels it detaches it. That is how ``cancel`` tells a
    handle whose event is still counted live from one that already ran or
    was cancelled, and it leaves no handle <-> entry reference cycle behind:
    a cancelled timer is freed by refcount once it leaves the heap, never by
    the cyclic collector.

    A *fired* handle still pins its entry, and so the entry's callback and
    arguments, until its holder drops it. A node that keeps the handle of a
    timer that already ran (a crashed replica's skipped re-arm leaves one)
    is therefore in a cycle with it through ``Node._fire_timer``, out of
    reach of :meth:`EventQueue.clear`; ``Network.close`` breaks it.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    @property
    def time(self) -> int:
        return self._entry[_TIME]

    @property
    def seq(self) -> int:
        return self._entry[_SEQ]

    @property
    def callback(self) -> Optional[Callable[..., None]]:
        return self._entry[_CALLBACK]

    @property
    def args(self) -> tuple:
        return self._entry[_ARGS]

    @property
    def cancelled(self) -> bool:
        """True once the event was cancelled (or dropped by ``clear``)."""
        return self._entry[_CALLBACK] is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time}, seq={self.seq}, {state})"


#: Allocates an :class:`EventHandle` without running ``__init__``: the
#: timer hot path (``Node.set_timer``) sets ``_entry`` itself, one frame per
#: arm.
new_handle = object.__new__


class EventQueue:
    """A time-ordered queue of scheduled callbacks."""

    #: First sequence number of the priority lane; far enough below zero
    #: that priority events always sort before ordinary ones (whose seq
    #: counts up from 0) while staying FIFO among themselves.
    _PRIORITY_BASE = -(1 << 60)

    def __init__(self) -> None:
        self._heap: List[list] = []
        self._seq = 0
        self._priority_seq = self._PRIORITY_BASE
        #: Cancelled entries still in the heap: every other entry is live,
        #: so scheduling and running an event touch no counter.
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def __bool__(self) -> bool:
        return len(self._heap) > self._cancelled

    def push(self, time: int, callback: Callable[..., None], args: tuple = ()) -> EventHandle:
        """Schedule ``callback(*args)`` at ``time`` and return its handle."""
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        entry = [time, self._seq, callback, args, None]
        handle = EventHandle(entry)
        entry[_HANDLE] = handle
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return handle

    def defer(self, time: int, callback: Callable[..., None], args: tuple = ()) -> None:
        """Schedule a non-cancellable event; no handle is allocated.

        The hot path for message deliveries: same ordering contract as
        :meth:`push` (shared sequence counter), minus one object allocation
        per event.
        """
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        heapq.heappush(self._heap, [time, self._seq, callback, args, None])
        self._seq += 1

    def push_priority(self, time: int, callback: Callable[..., None], args: tuple = ()) -> None:
        """Schedule a control event that runs before same-time ordinary events.

        Draws from the dedicated negative-sequence counter, leaving the
        shared ``seq`` counter untouched: ordinary events keep identical
        keys whether or not a priority event was ever scheduled. Used for
        snapshot-and-fork attack activation, where the activation must be
        schedulable either at construction time or after a restore without
        perturbing the benign prefix.
        """
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        heapq.heappush(self._heap, [time, self._priority_seq, callback, args, None])
        self._priority_seq += 1

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously pushed event (idempotent; a no-op once it ran).

        Drops the entry's references early, so a cancelled event pins
        nothing while it waits to percolate out of the heap, and detaches
        the handle, which breaks the handle <-> entry cycle.
        """
        entry = handle._entry
        if entry[_HANDLE] is handle:
            entry[_CALLBACK] = None
            entry[_ARGS] = ()
            entry[_HANDLE] = None
            self._cancelled += 1

    def pop(self) -> Optional[EventHandle]:
        """Pop the earliest non-cancelled event, or ``None`` if empty.

        Returns the event's :class:`EventHandle` (creating one lazily for
        events scheduled without one).
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[_CALLBACK] is None:
                self._cancelled -= 1
                continue
            handle = entry[_HANDLE]
            entry[_HANDLE] = None  # fired: a late cancel() must not count it
            if type(handle) is not EventHandle:
                return EventHandle(entry)
            return handle
        return None

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][_CALLBACK] is None:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][_TIME] if heap else None

    def clear(self) -> None:
        """Drop all pending events.

        Every outstanding handle reads cancelled and is detached, so a later
        ``cancel(handle)`` is a no-op instead of counting into
        ``_cancelled`` an entry that is no longer in the heap (which would
        drive ``__len__`` negative and corrupt ``__bool__``). Each entry's
        callback and arguments are dropped too, so a dropped event pins
        nothing afterwards.
        """
        for entry in self._heap:
            entry[_CALLBACK] = None
            entry[_ARGS] = ()
            entry[_HANDLE] = None
        self._heap.clear()
        self._cancelled = 0


__all__ = ["EventHandle", "EventQueue"]
