"""Concrete network fault stages.

These are the network-level attack vectors the paper lists for an attacker
with *network control* (Sec. 4): packet drops, delays, duplication,
partitions, payload corruption, and message reordering. AVD plugins
instantiate them with scenario-specific parameters.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, FrozenSet, List, Optional

from .network import Envelope, Network, NetworkFault

#: Predicate selecting which envelopes a fault stage affects.
EnvelopeMatcher = Callable[[Envelope], bool]


def match_all(envelope: Envelope) -> bool:
    return True


def match_endpoints(
    src: Optional[FrozenSet[str]] = None,
    dst: Optional[FrozenSet[str]] = None,
) -> EnvelopeMatcher:
    """Matcher for envelopes whose src/dst fall in the given sets."""

    def matcher(envelope: Envelope) -> bool:
        if src is not None and envelope.src not in src:
            return False
        if dst is not None and envelope.dst not in dst:
            return False
        return True

    return matcher


class _SeededFault(NetworkFault):
    """Base for faults needing their own deterministic RNG stream.

    The stream is named by the fault's pipeline slot on its network, so
    the derived seed is identical in every process that builds the same
    scenario. (Naming it by ``id(self)`` — a memory address — made traces
    differ between the controller and pool workers.) It is bound per
    network: one instance installed on several deployments in turn draws
    each one's own stream, exactly like a fresh instance would.
    """

    def __init__(self, matcher: EnvelopeMatcher = match_all) -> None:
        self.matcher = matcher
        self._network: Optional[Network] = None
        self._rng: Optional[random.Random] = None

    def _bind(self, network: Network) -> None:
        """Start this fault's per-network state on ``network``."""
        try:
            slot = network.faults.index(self)
        except ValueError:  # applied without being installed (tests)
            slot = len(network.faults)
        self._network = network
        self._rng = network.simulator.rng(
            f"fault:{network.name}:{type(self).__name__}:{slot}"
        )

    def _stream(self, network: Network) -> random.Random:
        if network is not self._network:
            self._bind(network)
        return self._rng


class DropFault(_SeededFault):
    """Drop matched envelopes with probability ``probability``."""

    def __init__(self, probability: float, matcher: EnvelopeMatcher = match_all) -> None:
        super().__init__(matcher)
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self.dropped = 0

    def apply(self, envelope: Envelope, network: Network) -> List[Envelope]:
        if self.matcher(envelope) and self._stream(network).random() < self.probability:
            self.dropped += 1
            return []
        return [envelope]


class DelayFault(_SeededFault):
    """Add a fixed extra delay plus uniform jitter to matched envelopes."""

    def __init__(
        self,
        extra_us: int,
        jitter_us: int = 0,
        matcher: EnvelopeMatcher = match_all,
    ) -> None:
        super().__init__(matcher)
        if extra_us < 0 or jitter_us < 0:
            raise ValueError("delays must be non-negative")
        self.extra_us = extra_us
        self.jitter_us = jitter_us

    def apply(self, envelope: Envelope, network: Network) -> List[Envelope]:
        if self.matcher(envelope):
            jitter = self._stream(network).randint(0, self.jitter_us) if self.jitter_us else 0
            envelope.extra_delay += self.extra_us + jitter
        return [envelope]


class DuplicateFault(_SeededFault):
    """Duplicate matched envelopes with probability ``probability``."""

    def __init__(self, probability: float, matcher: EnvelopeMatcher = match_all) -> None:
        super().__init__(matcher)
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self.duplicated = 0

    def apply(self, envelope: Envelope, network: Network) -> List[Envelope]:
        if self.matcher(envelope) and self._stream(network).random() < self.probability:
            self.duplicated += 1
            return [envelope, envelope.clone()]
        return [envelope]


class PartitionFault(NetworkFault):
    """Drop all traffic crossing a partition between two endpoint groups.

    Active only inside ``[start_us, end_us)`` of simulated time (both
    ``None`` means always active), so AVD can schedule transient partitions.
    """

    def __init__(
        self,
        group_a: FrozenSet[str],
        group_b: FrozenSet[str],
        start_us: Optional[int] = None,
        end_us: Optional[int] = None,
    ) -> None:
        if group_a & group_b:
            raise ValueError("partition groups must be disjoint")
        self.group_a = group_a
        self.group_b = group_b
        self.start_us = start_us
        self.end_us = end_us
        self.dropped = 0

    def _active(self, now: int) -> bool:
        if self.start_us is not None and now < self.start_us:
            return False
        if self.end_us is not None and now >= self.end_us:
            return False
        return True

    def apply(self, envelope: Envelope, network: Network) -> List[Envelope]:
        if not self._active(network.simulator.now):
            return [envelope]
        crosses = (envelope.src in self.group_a and envelope.dst in self.group_b) or (
            envelope.src in self.group_b and envelope.dst in self.group_a
        )
        if crosses:
            self.dropped += 1
            return []
        return [envelope]


class CorruptFault(_SeededFault):
    """Corrupt matched payloads with probability ``probability``.

    ``corruptor`` receives ``(payload, rng)`` and returns the corrupted
    payload (it may mutate and return the same object).
    """

    def __init__(
        self,
        probability: float,
        corruptor: Callable[[object, random.Random], object],
        matcher: EnvelopeMatcher = match_all,
    ) -> None:
        super().__init__(matcher)
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self.corruptor = corruptor
        self.corrupted = 0

    def apply(self, envelope: Envelope, network: Network) -> List[Envelope]:
        if self.matcher(envelope):
            rng = self._stream(network)
            if rng.random() < self.probability:
                envelope.payload = self.corruptor(envelope.payload, rng)
                self.corrupted += 1
        return [envelope]


class ReorderFault(_SeededFault):
    """Buffer matched envelopes and release them in a permuted order.

    Envelopes accumulate per destination until ``window`` of them are held
    (or ``flush_after_us`` elapses since the first was buffered); the batch
    is then released in an order given by ``permuter`` — by default a
    deterministic shuffle. The released envelopes keep their original
    latency draw but gain ``spacing_us`` of extra delay per position, so the
    permuted order is actually observed at the receiver.
    """

    def __init__(
        self,
        window: int = 4,
        flush_after_us: int = 10_000,
        spacing_us: int = 50,
        permuter: Optional[Callable[[List[Envelope], random.Random], List[Envelope]]] = None,
        matcher: EnvelopeMatcher = match_all,
    ) -> None:
        super().__init__(matcher)
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.flush_after_us = flush_after_us
        self.spacing_us = spacing_us
        self.permuter = permuter
        self._buffers: Dict[str, List[Envelope]] = {}
        self._flush_handles: Dict[str, object] = {}
        self.reordered_batches = 0

    def _bind(self, network: Network) -> None:
        super()._bind(network)
        self._buffers = {}
        self._flush_handles = {}

    def apply(self, envelope: Envelope, network: Network) -> List[Envelope]:
        if not self.matcher(envelope):
            return [envelope]
        if network is not self._network:
            self._bind(network)
        buffer = self._buffers.setdefault(envelope.dst, [])
        buffer.append(envelope)
        if len(buffer) >= self.window:
            self._flush(envelope.dst, network)
        elif envelope.dst not in self._flush_handles:
            handle = network.simulator.schedule(
                self.flush_after_us, self._flush, envelope.dst, network
            )
            self._flush_handles[envelope.dst] = handle
        return []

    def _flush(self, dst: str, network: Network) -> None:
        handle = self._flush_handles.pop(dst, None)
        if handle is not None:
            network.simulator.cancel(handle)  # type: ignore[arg-type]
        buffer = self._buffers.pop(dst, [])
        if not buffer:
            return
        rng = self._stream(network)
        if self.permuter is not None:
            ordered = self.permuter(list(buffer), rng)
        else:
            ordered = list(buffer)
            rng.shuffle(ordered)
        if ordered != buffer:
            self.reordered_batches += 1
        for position, env in enumerate(ordered):
            env.extra_delay += position * self.spacing_us
            network.inject(env)


__all__ = [
    "CorruptFault",
    "DelayFault",
    "DropFault",
    "DuplicateFault",
    "EnvelopeMatcher",
    "PartitionFault",
    "ReorderFault",
    "match_all",
    "match_endpoints",
]
