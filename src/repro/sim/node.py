"""Base class for simulated protocol nodes.

A node owns the two hottest scheduling sites, each one frame: :meth:`Node.send`
pushes a delivery onto the event heap itself on a jittered-LAN network (see
:class:`~repro.sim.network.Network` for the early binding and the counts),
and :meth:`Node.set_timer` pushes a timer entry with its handle. Timers fire
through :meth:`Node._fire_timer`, which gates them on ``crashed``.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from math import log as _log, trunc as _trunc
from typing import Iterable, Optional

from ..injection import LibraryRuntime
from .events import EventHandle, new_handle
from .network import MessageHandler, Network
from .simulator import SimulationError, Simulator


class Node:
    """A named participant attached to a simulator and a network.

    Subclasses implement :meth:`on_message`. Library calls that should be
    interceptable by the fault-injection tool go through ``self.lib``.
    """

    def __init__(self, name: str, simulator: Simulator, network: Network) -> None:
        self.name = name
        self.simulator = simulator
        self.network = network
        self.lib = LibraryRuntime()
        self.crashed = False
        network.register(self)

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def send(self, dst: str, payload: object) -> bool:
        """Send ``payload`` to ``dst``; returns False if the send library
        call had a fault injected (the message is then not transmitted,
        modelling e.g. ECONNRESET)."""
        if self.crashed:
            return False
        # Inlined `lib.try_call("send")` — this is the hottest library call
        # site, and the common case (no plans installed) is one counter
        # bump. Plan semantics stay in LibraryRuntime.check.
        lib = self.lib
        counts = lib._counts
        number = counts.get("send", 0) + 1
        counts["send"] = number
        if lib._plans and lib.check("send", number) is not None:
            return False
        network = self.network
        lan = network._lan
        if lan is None or lan[0]:  # not a jittered LAN, or a fault stage installed
            network.send(self.name, dst, payload)
            return True
        # The fused LAN path (see `Network`): the jitter draw and an inlined
        # `queue.defer`, with the delivery bound to the handler now. The
        # draw is `LanLatency.sample`'s `int(rng.expovariate(lambd))`;
        # `trunc` is `int` for a float, minus the type call.
        _, simulator, queue, heap, rng_random, base, lambd, handlers, delivered, deliver = lan
        network.messages_sent += 1
        time = simulator.now + base + _trunc(-_log(1.0 - rng_random()) / lambd)
        handler = handlers.get(dst)
        if handler is None:
            entry = [time, queue._seq, deliver, (dst, payload, self.name), None]
        else:
            delivered[dst] += 1
            entry = [time, queue._seq, handler, (payload, self.name), dst]
        _heappush(heap, entry)
        queue._seq += 1
        return True

    def broadcast(self, dsts: Iterable[str], payload: object) -> int:
        """Send ``payload`` to each destination; returns how many sends
        succeeded."""
        sent = 0
        for dst in dsts:
            if self.send(dst, payload):
                sent += 1
        return sent

    def on_message(self, payload: object, src: str) -> None:
        """Handle a delivered message (subclasses override)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: int, callback, *args) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        # An inlined `simulator.schedule` -> `queue.push`: one frame per arm.
        simulator = self.simulator
        queue = simulator.queue
        handle = new_handle(EventHandle)
        handle._entry = entry = [
            simulator.now + delay, queue._seq, self._fire_timer, (callback, args), handle,
        ]
        _heappush(queue._heap, entry)
        queue._seq += 1
        return handle

    def _fire_timer(self, callback, args) -> None:
        if not self.crashed:
            callback(*args)

    def cancel_timer(self, handle: Optional[EventHandle]) -> None:
        """Cancel a timer set with :meth:`set_timer` (None is tolerated)."""
        if handle is not None:
            # Straight to the queue: `Simulator.cancel` is a pure delegation
            # and this is the hottest cancellation site (client retransmit
            # timers cancel on every completed request).
            self.simulator.queue.cancel(handle)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Silence the node: it stops sending and firing timers.

        The network still delivers messages to it, and counts them. A
        :class:`CrashAwareNode` drops them; a plain node's
        :meth:`on_message` sees them and must check ``crashed`` itself.
        """
        self.crashed = True

    @property
    def now(self) -> int:
        return self.simulator.now

    def trace(self, kind: str, detail=None) -> None:
        """Record a trace event attributed to this node."""
        self.simulator.tracer.record(self.simulator.now, self.name, kind, detail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


def _drop(payload: object, src: str) -> None:
    """A crashed node's delivery handler."""


class CrashAwareNode(Node):
    """Node whose message handling is automatically gated on ``crashed``.

    Subclasses implement :meth:`handle_message`, not :meth:`on_message`:
    the network calls it directly, one frame per delivery, and
    :meth:`crash` swaps in a drop.
    """

    def delivery_handler(self) -> MessageHandler:
        """What the network calls to deliver a message to this node."""
        return _drop if self.crashed else self.handle_message

    def crash(self) -> None:
        super().crash()
        self.network.refresh_handler(self.name)

    def handle_message(self, payload: object, src: str) -> None:
        raise NotImplementedError


__all__ = ["CrashAwareNode", "Node"]
