"""Simulated network: endpoints, latency models, and a fault pipeline.

The paper's architecture (Fig. 1) puts the networks partly under AVD's
control: attackers "can be assumed to exercise some sort of control over the
network". That control is modelled as a pipeline of :class:`NetworkFault`
stages each message traverses; AVD plugins install and parameterize stages.
"""

from __future__ import annotations

# Annotation-only import: latency sampling draws from the network's named
# seeded stream (`simulator.rng(f"network:{name}")`); `repro lint`
# (DET002) bans module-level `random.*` calls here.
import random
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence

from .events import _ARGS, _CALLBACK, _HANDLE
from .simulator import SimulationError, Simulator
from .trace import KindTrail, kind_capture_enabled


class Envelope:
    """A message in flight between two named endpoints."""

    __slots__ = ("src", "dst", "payload", "send_time", "extra_delay")

    def __init__(self, src: str, dst: str, payload, send_time: int) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.send_time = send_time
        #: Additional delay injected by fault stages, in microseconds.
        self.extra_delay = 0

    def clone(self) -> "Envelope":
        copy = Envelope(self.src, self.dst, self.payload, self.send_time)
        copy.extra_delay = self.extra_delay
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Envelope({self.src}->{self.dst} @{self.send_time})"


class LatencyModel(Protocol):
    """Samples one-way delivery latency for a (src, dst) pair."""

    def sample(self, src: str, dst: str, rng: random.Random) -> int: ...


class FixedLatency:
    """Constant one-way latency."""

    def __init__(self, latency_us: int) -> None:
        if latency_us < 0:
            raise ValueError("latency must be non-negative")
        self.latency_us = latency_us

    def sample(self, src: str, dst: str, rng: random.Random) -> int:
        return self.latency_us


class UniformLatency:
    """Latency drawn uniformly from ``[low_us, high_us]``."""

    def __init__(self, low_us: int, high_us: int) -> None:
        if not 0 <= low_us <= high_us:
            raise ValueError("require 0 <= low <= high")
        self.low_us = low_us
        self.high_us = high_us

    def sample(self, src: str, dst: str, rng: random.Random) -> int:
        return rng.randint(self.low_us, self.high_us)


class LanLatency:
    """LAN-like latency: a base plus exponentially distributed jitter.

    Defaults approximate the Emulab LAN the paper deployed PBFT on:
    sub-millisecond one-way delay with a light tail.
    """

    def __init__(self, base_us: int = 150, jitter_mean_us: int = 50) -> None:
        if base_us < 0 or jitter_mean_us < 0:
            raise ValueError("latency parameters must be non-negative")
        self.base_us = base_us
        self.jitter_mean_us = jitter_mean_us

    def sample(self, src: str, dst: str, rng: random.Random) -> int:
        jitter = rng.expovariate(1.0 / self.jitter_mean_us) if self.jitter_mean_us else 0.0
        return self.base_us + int(jitter)


class NetworkFault:
    """A stage in the network fault pipeline.

    ``apply`` receives an envelope and returns the envelopes to keep
    propagating: ``[envelope]`` passes it through (possibly mutated),
    ``[]`` drops it, and multiple envelopes duplicate it. A stage may also
    hold envelopes and re-emit them later through ``network.inject``.
    """

    def apply(self, envelope: Envelope, network: "Network") -> List[Envelope]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


MessageHandler = Callable[[object, str], None]


class Endpoint(Protocol):
    """Anything that can be registered on a network.

    The network delivers to ``on_message`` unless the endpoint also has a
    ``delivery_handler()`` naming what to call instead (see
    :class:`~repro.sim.node.CrashAwareNode`).
    """

    name: str

    def on_message(self, payload: object, src: str) -> None: ...


def _handler_of(endpoint: Endpoint) -> MessageHandler:
    delivery_handler = getattr(endpoint, "delivery_handler", None)
    return endpoint.on_message if delivery_handler is None else delivery_handler()


class Network:
    """Message fabric connecting named endpoints.

    Delivery latency comes from ``latency_model``; installed
    :class:`NetworkFault` stages may drop, delay, duplicate, or mutate
    messages. Per-endpoint delivery counters (``delivered_per_endpoint``)
    record where messages landed; the DHT victim-load metric does not read
    them (it counts ``VictimEndpoint.received_in_window``).

    Two send paths, schedule-identical for any seed:

    - **The fused LAN path** (:meth:`Node.send`, jittered
      :class:`LanLatency`, no fault stage installed) pushes the delivery
      onto the event heap itself. The entry calls the destination's
      handler directly, one frame per delivery: it is bound at send time
      and counted delivered then, with the destination's name in the
      entry's handle slot. Whenever a handler changes (a crash, an
      unregister) the in-flight entries bound to the old one are turned
      into late-bound ones first, and the delivery counters subtract
      entries still in flight, so every count reads as if it were taken
      at delivery.
    - **The ``Envelope`` path** (:meth:`send`; any other latency model, or
      any fault stage installed) runs the fault pipeline and schedules a
      late-bound delivery, :meth:`_deliver`, which looks the handler up
      when the message arrives. A network with a kind trail binds every
      delivery late, because the trail must see each one in delivery
      order.
    """

    def __init__(
        self,
        simulator: Simulator,
        latency_model: Optional[LatencyModel] = None,
        name: str = "net",
    ) -> None:
        self.simulator = simulator
        self.latency_model = latency_model if latency_model is not None else LanLatency()
        self.name = name
        self.rng = simulator.rng(f"network:{name}")
        self.endpoints: Dict[str, Endpoint] = {}
        #: What delivery calls per endpoint, kept in lockstep with
        #: ``endpoints``: a crash-aware node's bound ``handle_message`` (or a
        #: drop once it crashed), else the bound ``on_message``.
        self._handlers: Dict[str, MessageHandler] = {}
        self.faults: List[NetworkFault] = []
        self.messages_sent = 0
        self.messages_dropped = 0
        #: Deliveries per endpoint, counting early-bound entries still in
        #: flight (``delivered_per_endpoint`` subtracts those).
        self._delivered: Dict[str, int] = {}
        # Coverage-mode capture (sampled at construction, see
        # `repro.sim.trace`): records delivered payload kinds and their
        # 2-gram transitions. Part of the pickled state on purpose — a
        # snapshot-forked run must continue the benign prefix's trail.
        self.kind_trail: Optional[KindTrail] = (
            KindTrail() if kind_capture_enabled() else None
        )
        self._lan = self._make_lan()

    # ------------------------------------------------------------------
    # pickling (snapshot capture / fork)
    # ------------------------------------------------------------------
    #: Construction-derived attributes that must never be pickled: bound
    #: methods of other snapshot participants, and the fused send path's
    #: state (which holds the event queue's *current* heap list — a stale
    #: copy would let forked runs push onto the cached snapshot's heap).
    _DERIVED_ATTRS = ("_lan", "_handlers")

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for attr in self._DERIVED_ATTRS:
            state.pop(attr, None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Both derived attributes wait for `rebind_fast_paths`: a cyclic
        # reference may land us here while the simulator, or an endpoint
        # whose `crashed` flag picks its handler, is still mid-restore.
        self.__dict__.update(state)
        self._handlers = None  # type: ignore[assignment]
        self._lan = None

    def rebind_fast_paths(self) -> None:
        """Rebuild the delivery handlers and the fused send path after an
        unpickle.

        Called by the owning deployment's ``__setstate__`` once the whole
        object graph (simulator, queue, heap, endpoints) is restored.
        """
        self._handlers = {
            name: _handler_of(endpoint) for name, endpoint in self.endpoints.items()
        }
        self._lan = self._make_lan()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def register(self, endpoint: Endpoint) -> None:
        """Register an endpoint under its ``name`` (names must be unique).

        Re-registering a name after :meth:`unregister` (node churn,
        restart-style scenarios) preserves the endpoint's prior delivery
        count in ``delivered_per_endpoint``.
        """
        if endpoint.name in self.endpoints:
            raise SimulationError(f"duplicate endpoint name: {endpoint.name}")
        self.endpoints[endpoint.name] = endpoint
        self._handlers[endpoint.name] = _handler_of(endpoint)
        self._delivered.setdefault(endpoint.name, 0)

    def unregister(self, name: str) -> None:
        """Remove an endpoint; in-flight messages to it are dropped on arrival."""
        self.endpoints.pop(name, None)
        self._unbind(name, self._handlers.pop(name, None))

    def refresh_handler(self, name: str) -> None:
        """Re-read a registered endpoint's delivery handler (after a crash)."""
        endpoint = self.endpoints.get(name)
        if endpoint is not None:
            self._unbind(name, self._handlers[name])
            self._handlers[name] = _handler_of(endpoint)

    def _unbind(self, name: str, handler: Optional[MessageHandler]) -> None:
        """Turn the in-flight deliveries bound to ``name``'s ``handler`` into
        late-bound ones, uncounted until they arrive.

        Runs before a handler changes, so an early-bound entry always holds
        its destination's current handler. O(heap), on crashes and
        unregisters only.
        """
        if handler is None:
            return
        deliver = self._deliver
        for entry in self.simulator.queue._heap:
            if entry[_HANDLE] == name and entry[_CALLBACK] == handler:
                entry[_CALLBACK] = deliver
                entry[_ARGS] = (name,) + entry[_ARGS]
                entry[_HANDLE] = None
                self._delivered[name] -= 1

    # ------------------------------------------------------------------
    # delivery counters
    # ------------------------------------------------------------------
    @property
    def delivered_per_endpoint(self) -> Dict[str, int]:
        """Messages delivered so far to each endpoint ever registered (a copy).

        Deliveries to a crashed node count; drops to an unregistered name
        do not (they count in ``messages_dropped``).
        """
        counts = dict(self._delivered)
        handlers = self._handlers
        for entry in self.simulator.queue._heap:
            dst = entry[_HANDLE]
            if type(dst) is str and entry[_CALLBACK] == handlers.get(dst):
                counts[dst] -= 1  # early-bound, still in flight
        return counts

    @property
    def messages_delivered(self) -> int:
        """Messages delivered so far, to every endpoint."""
        return sum(self.delivered_per_endpoint.values())

    # ------------------------------------------------------------------
    # fault pipeline
    # ------------------------------------------------------------------
    def add_fault(self, fault: NetworkFault) -> None:
        self.faults.append(fault)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _make_lan(self) -> Optional[tuple]:
        """The fused LAN send path's state, as the tuple :meth:`Node.send`
        unpacks, or None when every message takes the ``Envelope`` path.

        Everything in it is construction-stable: the fault list and the
        handler map are mutated in place, never rebound, and the heap is
        cleared in place by ``EventQueue.clear``. The jitter is an inlined
        ``rng.expovariate(lambd)`` (``-log(1-u)/lambd``), so the fused and
        the ``Envelope`` path consume identical RNG streams. A network with
        a kind trail gets an empty handler map, so every send binds late.
        None for any other model (and for a jitter-free LAN).
        """
        lan = self.latency_model
        if type(lan) is not LanLatency or not lan.jitter_mean_us:
            return None
        queue = self.simulator.queue
        return (
            self.faults,
            self.simulator,
            queue,
            queue._heap,
            self.rng.random,
            lan.base_us,
            1.0 / lan.jitter_mean_us,
            self._handlers if self.kind_trail is None else {},
            self._delivered,
            self._deliver,
        )

    def send(self, src: str, dst: str, payload: object) -> None:
        """Send ``payload`` from ``src`` to ``dst`` through the fault
        pipeline (the ``Envelope`` path; nodes send through :meth:`Node.send`)."""
        self.messages_sent += 1
        envelope = Envelope(src, dst, payload, self.simulator.now)
        if self.faults:
            self._run_pipeline(envelope)
            return
        self._schedule_delivery(envelope)

    def broadcast(self, src: str, dsts: Iterable[str], payload: object) -> None:
        """Send the same payload from ``src`` to every name in ``dsts``."""
        for dst in dsts:
            self.send(src, dst, payload)

    def inject(self, envelope: Envelope) -> None:
        """Re-emit an envelope a fault stage previously held back. It
        bypasses the pipeline, so a buffering stage does not re-capture its
        own output."""
        self._schedule_delivery(envelope)

    def _run_pipeline(self, envelope: Envelope) -> None:
        batch = [envelope]
        for fault in self.faults:
            next_batch: List[Envelope] = []
            for env in batch:
                next_batch.extend(fault.apply(env, self))
            batch = next_batch
            if not batch:
                break
        dropped = 1 - len(batch)
        if dropped > 0:
            self.messages_dropped += dropped
        for env in batch:
            self._schedule_delivery(env)

    def _schedule_delivery(self, envelope: Envelope) -> None:
        # Deliveries are never cancelled, so they take the handle-free `defer`.
        latency = self.latency_model.sample(envelope.src, envelope.dst, self.rng)
        self.simulator.defer(
            latency + envelope.extra_delay,
            self._deliver, envelope.dst, envelope.payload, envelope.src,
        )

    def _deliver(self, dst: str, payload: object, src: str) -> None:
        """A late-bound delivery: look the handler up as the message arrives."""
        handler = self._handlers.get(dst)
        if handler is None:
            self.messages_dropped += 1
            return
        self._delivered[dst] += 1
        trail = self.kind_trail
        if trail is not None:
            trail.add(type(payload).__name__)
        handler(payload, src)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down the system this network connects, so that reference
        counting frees it the moment its owner lets go.

        A finished deployment is a web of reference cycles: heap entries and
        the timer handles pointing back at them, the endpoint and handler
        maps and ``_lan`` holding nodes (and ``_deliver``) that hold the
        network, fault stages bound to the network, and whatever a node keeps
        that points back at it (its view-change timer, a *fired* timer's
        handle whose entry still holds the node's ``_fire_timer``). This
        drops every pending event, every fault stage, both maps, ``_lan``
        and each endpoint's whole state, which breaks them all. Idempotent;
        neither the network nor its endpoints run again afterwards.
        """
        self.simulator.queue.clear()
        self.faults.clear()
        for endpoint in self.endpoints.values():
            vars(endpoint).clear()
        self.endpoints.clear()
        self._handlers.clear()
        self._lan = None


__all__ = [
    "Endpoint",
    "Envelope",
    "FixedLatency",
    "LanLatency",
    "LatencyModel",
    "Network",
    "NetworkFault",
    "UniformLatency",
]
