"""The discrete-event simulator.

A :class:`Simulator` owns the clock, the event queue, the RNG registry, the
metrics registry, and the tracer. Nodes and the network schedule callbacks on
it. Each AVD test scenario creates a fresh simulator (the paper re-initializes
the distributed system before every test), so a simulator is cheap to build
and carries no global state; the deployment around it is closed when its
test ends (``Network.close``), so nothing of it outlives the result.

The run loop pops each entry off the queue's raw heap (one heap traversal
and zero method calls per event) and calls its callback directly. The two
hottest producers push their entries themselves: ``Node.send`` a delivery
whose callback is the destination's handler (one frame per message sent,
one per message delivered), and ``Node.set_timer`` a timer with its handle
(one frame per arm). ``tests/_reference.py`` swaps
in a loop over the queue's public ``peek_time``/``pop`` API and sends every
message through the late-bound ``Envelope`` path, and the trace-equivalence
suite holds the two bit-identical for any seed.

A scenario's deadline is counted in events, not seconds: a deployment sets
:attr:`Simulator.event_budget` from its own shape (:func:`event_budget`),
and :meth:`Simulator.run` raises :class:`EventBudgetExceeded` once the
budget is spent with an event still due before the horizon. The count is
part of the simulator's state, so a run forked from a snapshot trips at the
same event as one from scratch, on any host and any thread.
"""

from __future__ import annotations

import heapq
import sys

# Annotation-only import: every draw goes through a named seeded stream
# from the RngRegistry (see `rng()` below); `repro lint` (DET002) bans
# module-level `random.*` calls here.
import random
from typing import Callable, Optional

from .clock import SECOND, TIME_INFINITY
from .events import EventHandle, EventQueue
from .metrics import MetricsRegistry
from .rng import RngRegistry
from .trace import Tracer

#: Events a deployment may execute per node per simulated second. Every
#: campaign workload measured peaks below 3,000 and the densest test near
#: 5,500 (EXPERIMENTS.md "Event budget"), so only a runaway reaches it.
EVENTS_PER_NODE_SECOND = 100_000


def event_budget(nodes: int, horizon_us: int) -> int:
    """The event budget of a ``nodes``-node deployment run to ``horizon_us``."""
    return EVENTS_PER_NODE_SECOND * nodes * horizon_us // SECOND


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation kernel."""


class EventBudgetExceeded(SimulationError):
    """A run spent its event budget with events still due before its horizon."""


class Simulator:
    """Event-driven simulation kernel with deterministic execution.

    Parameters
    ----------
    seed:
        Root seed for all named RNG streams.
    tracer:
        Optional tracer; a disabled one is created by default.
    """

    def __init__(self, seed: int = 0, tracer: Optional[Tracer] = None) -> None:
        self.now = 0
        self.seed = seed
        self.queue = EventQueue()
        self.rngs = RngRegistry(seed)
        self.metrics = MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.events_executed = 0
        #: Cap on ``events_executed`` over the simulator's life; None = none.
        self.event_budget: Optional[int] = None
        self._running = False
        self._stop_requested = False

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None], *args) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        return self.queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: int, callback: Callable[..., None], *args) -> EventHandle:
        """Run ``callback(*args)`` at absolute time ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        return self.queue.push(time, callback, args)

    def defer(self, delay: int, callback: Callable[..., None], *args) -> None:
        """Like :meth:`schedule` but non-cancellable: no handle is created.

        The hot path for events that never cancel (message deliveries).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        self.queue.defer(self.now + delay, callback, args)

    def schedule_priority(self, time: int, callback: Callable[..., None], *args) -> None:
        """Schedule a control event at absolute ``time``, ahead of same-time events.

        The snapshot-and-fork hook: the event sorts before every ordinary
        event at the same timestamp and does not consume the shared event
        sequence counter, so scheduling it at construction (from-scratch
        run) or right after restoring a snapshot (forked run) yields
        bit-identical execution of all ordinary events. Not cancellable.
        """
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        self.queue.push_priority(time, callback, args)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event (idempotent)."""
        self.queue.cancel(handle)

    def rng(self, name: str) -> random.Random:
        """Named deterministic RNG stream (see :mod:`repro.sim.rng`)."""
        return self.rngs.stream(name)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: int = TIME_INFINITY, max_events: Optional[int] = None) -> int:
        """Execute events in timestamp order.

        Stops when the queue drains, when the next event would be after
        ``until`` (the clock is then advanced to ``until``), when
        ``max_events`` events have run, or when :meth:`stop` is called from
        inside an event. Returns the number of events executed by this call.

        Raises :class:`EventBudgetExceeded` when :attr:`event_budget` runs
        out while an event at or before ``until`` is still pending.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until < self.now:
            raise SimulationError(f"cannot run into the past: {until} < {self.now}")
        budget = self.event_budget
        limit = max_events
        if budget is not None:
            left = max(0, budget - self.events_executed)
            if limit is None or left < limit:
                limit = left
        self._running = True
        self._stop_requested = False
        try:
            executed = self._run_loop(until, limit)
        finally:
            self._running = False
        self.events_executed += executed
        # Capped by the budget rather than the caller, and the cap was hit.
        if limit != max_events and executed == limit and not self._stop_requested:
            pending = self.queue.peek_time()
            if pending is not None and pending <= until:
                raise EventBudgetExceeded(
                    f"simulation exceeded its budget of {budget} events at t={self.now}us"
                )
        if not self.queue and self.now < until < TIME_INFINITY:
            # Queue drained before the horizon: the system is quiescent, so
            # time simply advances to the requested horizon.
            self.now = until
        return executed

    def _run_loop(self, until: int, max_events: Optional[int]) -> int:
        """The event loop: pop-first over the queue's raw heap.

        A cancelled entry is dropped as it comes off; the first one not yet
        due goes back unchanged (keys are unique, so the heap's order does
        not depend on where it lands). Per event that is one ``heappop``
        and a handful of C-level list operations, and no counter but
        ``executed``.
        """
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        limit = sys.maxsize if max_events is None else max_events
        executed = 0
        while executed < limit and not self._stop_requested:
            if not heap:
                break
            entry = heappop(heap)
            callback = entry[2]
            if callback is None:  # cancelled
                queue._cancelled -= 1
                continue
            event_time = entry[0]
            if event_time > until:
                heapq.heappush(heap, entry)
                self.now = until
                break
            entry[4] = None  # detach the handle: cancel-after-fire is a no-op
            self.now = event_time
            callback(*entry[3])
            executed += 1
        return executed

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True


__all__ = [
    "EVENTS_PER_NODE_SECOND",
    "EventBudgetExceeded",
    "SimulationError",
    "Simulator",
    "event_budget",
]
