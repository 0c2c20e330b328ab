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
    inlined loop) detaches it, which is how ``cancel`` tells a handle whose
    event already ran from one that is still counted live.
    """

    __slots__ = ("_entry", "cancelled")

    def __init__(self, entry: list):
        self._entry = entry
        self.cancelled = False

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

    def cancel(self) -> None:
        """Mark the event as cancelled; it will never fire."""
        self.cancelled = True
        # Drop references early so cancelled events do not pin objects alive
        # while they wait to percolate out of the heap.
        entry = self._entry
        entry[_CALLBACK] = None
        entry[_ARGS] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time}, seq={self.seq}, {state})"


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
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: int, callback: Callable[..., None], args: tuple = ()) -> EventHandle:
        """Schedule ``callback(*args)`` at ``time`` and return its handle."""
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        entry = [time, self._seq, callback, args, None]
        handle = EventHandle(entry)
        entry[_HANDLE] = handle
        self._seq += 1
        self._live += 1
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
        self._live += 1

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
        self._live += 1

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously pushed event (idempotent; a no-op once it ran)."""
        if not handle.cancelled and handle._entry[_HANDLE] is handle:
            handle.cancel()
            self._live -= 1

    def pop(self) -> Optional[EventHandle]:
        """Pop the earliest non-cancelled event, or ``None`` if empty.

        Returns the event's :class:`EventHandle` (creating one lazily for
        events scheduled through :meth:`defer`).
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[_CALLBACK] is None:
                continue
            self._live -= 1
            handle = entry[_HANDLE]
            if handle is None:
                return EventHandle(entry)
            entry[_HANDLE] = None  # fired: a late cancel() must not count it
            return handle
        return None

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][_CALLBACK] is None:
            heapq.heappop(heap)
        return heap[0][_TIME] if heap else None

    def clear(self) -> None:
        """Drop all pending events.

        Every outstanding handle is marked cancelled, so a later
        ``cancel(handle)`` is a no-op instead of decrementing the live
        count below zero (which used to corrupt ``__len__``/``__bool__``).
        """
        for entry in self._heap:
            handle = entry[_HANDLE]
            if handle is not None and not handle.cancelled:
                handle.cancel()
            else:
                entry[_CALLBACK] = None
                entry[_ARGS] = ()
        self._heap.clear()
        self._live = 0


__all__ = ["EventHandle", "EventQueue"]
