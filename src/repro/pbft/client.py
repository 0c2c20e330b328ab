"""PBFT clients: correct closed-loop clients and malicious variants.

A client issues one request at a time (closed loop): send to the believed
primary, wait for f+1 matching replies, then issue the next request. On a
retransmission timeout the client re-MACs the request (fresh ``generateMAC``
calls — this is why the corruption bitmask cycles across transmissions) and
broadcasts it to *all* replicas, with exponential backoff.

A malicious client (nonzero MAC mask) follows exactly the same protocol;
only its :class:`~repro.crypto.mac.MacGenerator` is corrupted. That is the
paper's experiment: the fault injector lives in the client's MAC layer, and
AVD chooses which of the 12 call positions to corrupt.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..crypto import KeyStore, MacGenerator
from ..sim import Network, Simulator
from ..sim.node import CrashAwareNode
from .behaviors import CORRECT_CLIENT, ClientBehavior, mask_corruption_policy
from .config import PbftConfig, replica_name
from .messages import Reply, Request, fast_request_digest


class Client(CrashAwareNode):
    """A PBFT client: built correct, turned malicious by :meth:`apply_behavior`."""

    def __init__(
        self,
        name: str,
        config: PbftConfig,
        simulator: Simulator,
        network: Network,
        key_root: int,
        start_delay_us: int = 0,
    ) -> None:
        super().__init__(name, simulator, network)
        self.config = config
        self.behavior = CORRECT_CLIENT
        self.keystore = KeyStore(key_root, name)
        self.mac = MacGenerator(self.keystore)
        self.replica_names = tuple(replica_name(i) for i in range(config.n_replicas))

        self.view_hint = 0
        self.timestamp = 0
        self.outstanding: Optional[Request] = None
        self.sent_at = 0
        self.transmissions = 0
        self._reply_votes: Dict[object, set] = {}
        self._retransmit_handle = None
        self._timeout_us = config.client_retransmit_us
        # Hoisted config values for the per-request hot path.
        self._retransmit_floor = config.client_retransmit_us
        self._retransmit_cap = config.client_retransmit_max_us
        self._reply_quorum = config.reply_quorum
        self._n_replicas = config.n_replicas
        #: EWMA of observed end-to-end latency; the retransmission timeout
        #: adapts to it (real PBFT clients do the same), which prevents
        #: retransmission spirals when the service saturates at high client
        #: counts.
        self._ewma_latency_us = 0.0

        # -- measurement ------------------------------------------------------
        #: Completions are recorded only inside [measure_from, measure_to).
        self.measure_from = 0
        self.measure_to = None
        #: Start of the tail sub-window (steady-state measurement).
        self.tail_from = None
        self.completed_total = 0
        self.completed_measured = 0
        self.completed_tail = 0
        self.latency_sum_us = 0
        self.latencies = simulator.metrics.latency(f"client.{name}.latency")
        self.completions = simulator.metrics.interval_series("pbft.completions")

        self.set_timer(start_delay_us, self._issue_next)

    # ------------------------------------------------------------------
    # attack activation
    # ------------------------------------------------------------------
    def apply_behavior(self, behavior: ClientBehavior) -> None:
        """Switch to ``behavior`` (the only way a client turns malicious).

        The MAC corruption policy takes effect on the next ``generateMAC``
        call; ``broadcast_always`` on the next issued request. An
        outstanding request keeps its already-generated authenticator until
        the client re-MACs it — identical in forked and from-scratch runs,
        since both apply the behaviour in the same activation event.
        """
        self.behavior = behavior
        self.mac.corruption_policy = mask_corruption_policy(behavior.mac_mask)

    # ------------------------------------------------------------------
    # request issue / retransmission
    # ------------------------------------------------------------------
    def _issue_next(self) -> None:
        if self.crashed:
            return
        self.timestamp += 1
        operation = ("op", self.name, self.timestamp)
        # The authenticator always covers all replicas (the primary embeds it
        # in the pre-prepare), so every transmission costs n generateMAC calls.
        request = Request(
            self.name, self.timestamp, operation, None,
            digest=fast_request_digest(self.name, self.timestamp),
        )
        request.authenticator = self.mac.authenticator(self.replica_names, request.digest)
        self.outstanding = request
        self.sent_at = self.simulator.now
        self.transmissions = 1
        self._reply_votes.clear()
        timeout = int(4 * self._ewma_latency_us)
        if timeout < self._retransmit_floor:
            timeout = self._retransmit_floor
        if timeout > self._retransmit_cap:
            timeout = self._retransmit_cap
        self._timeout_us = timeout
        if self.behavior.broadcast_always:
            self.broadcast(self.replica_names, request)
        else:
            self.send(self.replica_names[self.view_hint % self._n_replicas], request)
        self._arm_retransmit()

    def _arm_retransmit(self) -> None:
        self.cancel_timer(self._retransmit_handle)
        self._retransmit_handle = self.set_timer(self._timeout_us, self._retransmit)

    def _retransmit(self) -> None:
        self._retransmit_handle = None
        if self.outstanding is None:
            return
        request = self.outstanding
        # Re-MAC: fresh generateMAC calls advance the corruption-mask cursor.
        request.authenticator = self.mac.authenticator(self.replica_names, request.digest)
        self.transmissions += 1
        self.simulator.metrics.counter("pbft.client_retransmissions").increment()
        self.broadcast(self.replica_names, request)
        self._timeout_us = min(self._timeout_us * 2, self._retransmit_cap)
        self._arm_retransmit()

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------
    def handle_message(self, payload: object, src: str) -> None:
        if type(payload) is not Reply:
            return
        reply: Reply = payload
        if reply.view > self.view_hint:
            self.view_hint = reply.view
        if self.outstanding is None or reply.timestamp != self.outstanding.timestamp:
            return
        voters = self._reply_votes.get(reply.result)
        if voters is None:
            voters = self._reply_votes[reply.result] = set()
        voters.add(reply.replica)
        if len(voters) >= self._reply_quorum:
            self._complete()

    def _complete(self) -> None:
        now = self.simulator.now
        latency = now - self.sent_at
        if self._ewma_latency_us:
            self._ewma_latency_us += 0.125 * (latency - self._ewma_latency_us)
        else:
            self._ewma_latency_us = float(latency)
        self.outstanding = None
        self.cancel_timer(self._retransmit_handle)
        self._retransmit_handle = None
        self.completed_total += 1
        if now >= self.measure_from and (self.measure_to is None or now < self.measure_to):
            self.completed_measured += 1
            self.latency_sum_us += latency
            self.latencies.record(latency)
            self.completions.record(now)
            if self.tail_from is not None and now >= self.tail_from:
                self.completed_tail += 1
        self._issue_next()


__all__ = ["Client"]
