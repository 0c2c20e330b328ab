"""DHT nodes: correct lookup behaviour and the routing-poisoning attacker.

The correct node performs iterative Kademlia lookups (alpha-way
concurrency, k-closest termination) and sends announce traffic to the
closest nodes found. The malicious node answers FIND_NODE with fabricated
contacts that all point at a victim — the redirection-DoS the paper's
introduction cites ([2]): "a malicious entity can craft a distributed hash
table that co-opts correct nodes into unwittingly performing a distributed
DoS attack on a target of the entity's choosing."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..sim import Network, Simulator
from ..sim.clock import MS, SECOND
from ..sim.node import CrashAwareNode
from .ids import ID_SPACE, node_id, xor_distance
from .messages import Announce, FindNode, FindNodeReply, WireContact
from .routing import RoutingTable


@dataclass(frozen=True)
class DhtConfig:
    """Protocol and workload constants for a DHT deployment."""

    #: Bucket size / lookup result size.
    k: int = 8
    #: Lookup concurrency.
    alpha: int = 3
    #: How often each correct node starts a lookup for a random key.
    lookup_interval_us: int = 200 * MS
    #: Per-RPC timeout before a contact is considered unresponsive.
    rpc_timeout_us: int = 100 * MS
    #: Announce messages sent to the closest nodes after a lookup.
    announces_per_lookup: int = 2
    #: Measurement window (after warmup).
    warmup_us: int = 1 * SECOND
    measurement_us: int = 4 * SECOND


class _Lookup:
    """State of one iterative lookup."""

    __slots__ = ("target", "shortlist", "queried", "in_flight", "done")

    def __init__(self, target: int) -> None:
        self.target = target
        #: node_id -> name, candidates sorted on demand.
        self.shortlist: Dict[int, str] = {}
        self.queried: Set[int] = set()
        self.in_flight = 0
        self.done = False


class DhtNode(CrashAwareNode):
    """A correct DHT participant."""

    def __init__(
        self,
        name: str,
        config: DhtConfig,
        simulator: Simulator,
        network: Network,
    ) -> None:
        super().__init__(name, simulator, network)
        self.config = config
        self.id = node_id(name)
        self.table = RoutingTable(self.id, config.k)
        self._rpc_counter = 0
        self._lookups: Dict[int, _Lookup] = {}  # rpc_id -> lookup
        self.lookups_started = 0
        self.lookups_completed = 0
        self.announces_sent = 0

    # ------------------------------------------------------------------
    # bootstrap / workload
    # ------------------------------------------------------------------
    def bootstrap(self, contacts: List[WireContact]) -> None:
        for contact_id, contact_name in contacts:
            self.table.observe(contact_id, contact_name)

    def start_workload(self, initial_delay_us: int = 0) -> None:
        self.set_timer(initial_delay_us, self._workload_tick)

    def _workload_tick(self) -> None:
        rng = self.simulator.rng(f"dht-workload:{self.name}")
        self.start_lookup(rng.randrange(ID_SPACE))
        self.set_timer(self.config.lookup_interval_us, self._workload_tick)

    # ------------------------------------------------------------------
    # iterative lookup
    # ------------------------------------------------------------------
    def start_lookup(self, target: int) -> None:
        lookup = _Lookup(target)
        for contact_id, contact_name in self.table.closest(target, self.config.k):
            lookup.shortlist[contact_id] = contact_name
        self.lookups_started += 1
        if not lookup.shortlist:
            return
        self._advance(lookup)

    def _advance(self, lookup: _Lookup) -> None:
        if lookup.done:
            return
        candidates = sorted(
            (cid for cid in lookup.shortlist if cid not in lookup.queried),
            key=lambda cid: xor_distance(cid, lookup.target),
        )
        while lookup.in_flight < self.config.alpha and candidates:
            contact_id = candidates.pop(0)
            lookup.queried.add(contact_id)
            lookup.in_flight += 1
            self._rpc_counter += 1
            rpc_id = self._rpc_counter
            self._lookups[rpc_id] = lookup
            self.send(lookup.shortlist[contact_id], FindNode(lookup.target, rpc_id, self.id))
            self.set_timer(self.config.rpc_timeout_us, self._rpc_timeout, rpc_id)
        if lookup.in_flight == 0 and not candidates:
            self._finish(lookup)

    def _rpc_timeout(self, rpc_id: int) -> None:
        lookup = self._lookups.pop(rpc_id, None)
        if lookup is None or lookup.done:
            return
        lookup.in_flight -= 1
        self._advance(lookup)

    def _finish(self, lookup: _Lookup) -> None:
        lookup.done = True
        self.lookups_completed += 1
        closest = sorted(
            lookup.shortlist.items(), key=lambda item: xor_distance(item[0], lookup.target)
        )
        for contact_id, contact_name in closest[: self.config.announces_per_lookup]:
            self.send(contact_name, Announce(lookup.target, self.id))
            self.announces_sent += 1
            self.simulator.metrics.counter("dht.announces").increment()

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def handle_message(self, payload: object, src: str) -> None:
        kind = type(payload)
        if kind is FindNode:
            self.table.observe(payload.sender_id, src)
            contacts = self.table.closest(payload.target, self.config.k)
            self.send(src, FindNodeReply(payload.rpc_id, contacts, self.id))
        elif kind is FindNodeReply:
            self._on_reply(payload, src)
        elif kind is Announce:
            self.table.observe(payload.sender_id, src)
            self.simulator.metrics.counter("dht.announces_received").increment()

    def _on_reply(self, reply: FindNodeReply, src: str) -> None:
        self.table.observe(reply.sender_id, src)
        lookup = self._lookups.pop(reply.rpc_id, None)
        if lookup is None or lookup.done:
            return
        lookup.in_flight -= 1
        for contact_id, contact_name in reply.contacts:
            if contact_id != self.id and contact_id not in lookup.shortlist:
                if len(lookup.shortlist) < self.config.k * 4:
                    lookup.shortlist[contact_id] = contact_name
        self._advance(lookup)


class MaliciousDhtNode(DhtNode):
    """Poisons FIND_NODE replies so lookups converge on the victim.

    For a poisoned reply, the attacker fabricates ``fanout`` contact entries
    whose ids are the closest possible to the queried target (target XOR
    1..fanout) and whose network name is the victim's. Correct nodes then
    query — and ultimately announce to — the victim.

    Built dormant (``poison_rate=0``): it answers FIND_NODE like a correct
    node until :meth:`activate` arms it.
    """

    def __init__(
        self,
        name: str,
        config: DhtConfig,
        simulator: Simulator,
        network: Network,
        victim: str,
    ) -> None:
        super().__init__(name, config, simulator, network)
        self.victim = victim
        self.poison_rate = 0.0
        self.fanout = 1
        self.poisoned_replies = 0
        self.messages_spent = 0

    def activate(self, poison_rate: float, fanout: int) -> None:
        """Set the poisoning parameters (the only way to arm the attacker).

        A dormant attacker still draws from its poison RNG stream on every
        FIND_NODE, so the benign prefix is trace-identical regardless of the
        parameters installed here.
        """
        if not 0.0 <= poison_rate <= 1.0:
            raise ValueError("poison_rate must be in [0, 1]")
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.poison_rate = poison_rate
        self.fanout = fanout

    def handle_message(self, payload: object, src: str) -> None:
        if type(payload) is FindNode:
            rng = self.simulator.rng(f"dht-poison:{self.name}")
            if rng.random() < self.poison_rate:
                forged = [
                    (payload.target ^ offset, self.victim)
                    for offset in range(1, self.fanout + 1)
                ]
                self.send(src, FindNodeReply(payload.rpc_id, forged, self.id))
                self.poisoned_replies += 1
                self.messages_spent += 1
                return
        super().handle_message(payload, src)


class VictimEndpoint(CrashAwareNode):
    """The DoS target: counts (and drops) everything it receives.

    It can live outside the DHT entirely — the attack works "even outside
    the BitTorrent pool" — so it answers nothing.
    """

    def __init__(self, name: str, simulator: Simulator, network: Network) -> None:
        super().__init__(name, simulator, network)
        self.received = 0
        self.received_in_window = 0
        self.window_from = 0
        self.window_to: Optional[int] = None

    def handle_message(self, payload: object, src: str) -> None:
        self.received += 1
        if self.now >= self.window_from and (self.window_to is None or self.now < self.window_to):
            self.received_in_window += 1


__all__ = ["DhtConfig", "DhtNode", "MaliciousDhtNode", "VictimEndpoint"]
