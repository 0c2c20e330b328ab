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
from heapq import heappush as _heappush
from math import log as _log
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence

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
    messages. Per-endpoint delivery counters feed victim-load metrics (used
    by the DHT redirection experiment).
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
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.delivered_per_endpoint: Dict[str, int] = {}
        # Coverage-mode capture (sampled at construction, see
        # `repro.sim.trace`): records delivered payload kinds and their
        # 2-gram transitions. Part of the pickled state on purpose — a
        # snapshot-forked run must continue the benign prefix's trail.
        self.kind_trail: Optional[KindTrail] = (
            KindTrail() if kind_capture_enabled() else None
        )
        # Fused fast path: for the jittered LanLatency model every
        # deployment uses, deliveries go straight onto the event heap with
        # the exponential draw inlined (`-log(1-u)/lambd` — exactly
        # `rng.expovariate(lambd)`, so the fused and the `Envelope` path
        # consume identical RNG streams). `Node.send` calls it directly.
        self._fast_send = self._make_fast_send()

    # ------------------------------------------------------------------
    # pickling (snapshot capture / fork)
    # ------------------------------------------------------------------
    #: Construction-derived attributes that must never be pickled: bound
    #: methods of other snapshot participants, and the fused-send closure
    #: (which captures the event queue's *current* heap list — a stale
    #: capture would let forked runs mutate the cached snapshot's heap).
    _DERIVED_ATTRS = ("_fast_send", "_handlers")

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
        self._fast_send = None

    def rebind_fast_paths(self) -> None:
        """Rebuild the delivery handlers and the queue-capturing fast path
        after an unpickle.

        Called by the owning deployment's ``__setstate__`` once the whole
        object graph (simulator, queue, heap, endpoints) is restored.
        """
        self._handlers = {
            name: _handler_of(endpoint) for name, endpoint in self.endpoints.items()
        }
        self._fast_send = self._make_fast_send()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def register(self, endpoint: Endpoint) -> None:
        """Register an endpoint under its ``name`` (names must be unique).

        Re-registering a name after :meth:`unregister` (node churn,
        restart-style scenarios) preserves the endpoint's prior delivery
        count — the DHT redirection metric reads victim load from
        ``delivered_per_endpoint`` and must not lose counts mid-run.
        """
        if endpoint.name in self.endpoints:
            raise SimulationError(f"duplicate endpoint name: {endpoint.name}")
        self.endpoints[endpoint.name] = endpoint
        self._handlers[endpoint.name] = _handler_of(endpoint)
        self.delivered_per_endpoint.setdefault(endpoint.name, 0)

    def unregister(self, name: str) -> None:
        """Remove an endpoint; in-flight messages to it are dropped on arrival."""
        self.endpoints.pop(name, None)
        self._handlers.pop(name, None)

    def refresh_handler(self, name: str) -> None:
        """Re-read a registered endpoint's delivery handler (after a crash)."""
        endpoint = self.endpoints.get(name)
        if endpoint is not None:
            self._handlers[name] = _handler_of(endpoint)

    # ------------------------------------------------------------------
    # fault pipeline
    # ------------------------------------------------------------------
    def add_fault(self, fault: NetworkFault) -> None:
        self.faults.append(fault)

    def remove_fault(self, fault: NetworkFault) -> None:
        self.faults.remove(fault)

    def clear_faults(self) -> None:
        self.faults.clear()

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _make_fast_send(self):
        """Build the fused LAN send path as a closure.

        Closure cells beat attribute loads at ~10⁶ calls per campaign, and
        everything captured is construction-stable (the queue, the RNG, the
        latency parameters, the fault list). It counts the send, and takes
        the ``Envelope`` path whenever a fault stage is installed. Returns
        None for any other model (and for a jitter-free LAN): those always
        take the ``Envelope`` path, schedule-identical.
        """
        lan = self.latency_model
        if type(lan) is not LanLatency or not lan.jitter_mean_us:
            return None
        network = self
        faults = self.faults  # mutated in place by add/remove/clear_faults
        send_envelope = self._send_envelope
        simulator = self.simulator
        rng_random = self.rng.random
        queue = simulator.queue
        heap = queue._heap  # cleared in place by EventQueue.clear, never rebound
        heappush = _heappush
        deliver = self._deliver_fast
        base = lan.base_us
        lambd = 1.0 / lan.jitter_mean_us
        log = _log

        def fast_send(src: str, dst: str, payload: object) -> None:
            if faults:
                send_envelope(src, dst, payload)
                return
            network.messages_sent += 1
            # Inlined `rng.expovariate(lambd)` jitter (identical RNG
            # stream) on top of the base latency, then an inlined
            # `queue.defer` (delivery times are never negative). Fresh
            # envelopes carry no extra delay, and nothing between send and
            # delivery observes them when no faults are installed, so none
            # is materialized.
            heappush(
                heap,
                [
                    simulator.now + base + int(-log(1.0 - rng_random()) / lambd),
                    queue._seq,
                    deliver,
                    (dst, payload, src),
                    None,
                ],
            )
            queue._seq += 1
            queue._live += 1

        return fast_send

    def send(self, src: str, dst: str, payload: object) -> None:
        """Send ``payload`` from ``src`` to ``dst`` through the pipeline."""
        (self._fast_send or self._send_envelope)(src, dst, payload)

    def _send_envelope(self, src: str, dst: str, payload: object) -> None:
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

    def inject(self, envelope: Envelope, skip_faults: bool = True) -> None:
        """Re-emit an envelope a fault stage previously held back.

        With ``skip_faults`` (the default) the envelope bypasses the pipeline
        so a buffering stage does not re-capture its own output.
        """
        if skip_faults or not self.faults:
            self._schedule_delivery(envelope)
        else:
            self._run_pipeline(envelope)

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
        self.simulator.defer(latency + envelope.extra_delay, self._deliver, envelope)

    def _deliver(self, envelope: Envelope) -> None:
        self._deliver_fast(envelope.dst, envelope.payload, envelope.src)

    def _deliver_fast(self, dst: str, payload: object, src: str) -> None:
        handler = self._handlers.get(dst)
        if handler is None:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        counts = self.delivered_per_endpoint
        counts[dst] = counts.get(dst, 0) + 1
        trail = self.kind_trail
        if trail is not None:
            trail.add(type(payload).__name__)
        handler(payload, src)


def default_lan(simulator: Simulator) -> Network:
    """A network with Emulab-LAN-like latency (convenience constructor)."""
    return Network(simulator, LanLatency())


__all__ = [
    "Endpoint",
    "Envelope",
    "FixedLatency",
    "LanLatency",
    "LatencyModel",
    "Network",
    "NetworkFault",
    "UniformLatency",
    "default_lan",
]
