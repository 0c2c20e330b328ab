"""DHT deployment builder and the redirection-DoS measurement."""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sim import LanLatency, Network, Simulator
from ..sim.clock import SECOND
from ..sim.simulator import event_budget
from .ids import node_id
from .node import DhtConfig, DhtNode, MaliciousDhtNode, VictimEndpoint


@dataclass(frozen=True)
class DhtAttack:
    """The poisoning parameters a DHT scenario installs at activation."""

    poison_rate: float = 1.0
    fanout: int = 8


@dataclass(frozen=True)
class DhtRunResult:
    """What one DHT test run measured."""

    #: Messages the victim received inside the measurement window.
    victim_messages: int
    #: Victim load in messages/second.
    victim_load_mps: float
    #: Messages the attacker(s) spent (poisoned replies sent).
    attacker_messages: int
    #: Lookups completed by correct nodes in the whole run.
    lookups_completed: int
    #: Amplification: victim messages per attacker message (0 if no attack).
    amplification: float
    window_s: float = 0.0
    #: Raw named counters; coverage mode folds in the network's delivered
    #: message-kind trail under ``net.msg.*``/``net.seq.*`` keys.
    counters: Dict[str, int] = field(default_factory=dict)


class DhtDeployment:
    """N correct nodes, M routing-poisoning attackers, one victim.

    The attackers are always built *dormant* (they answer FIND_NODE like
    correct nodes while still drawing from their poison RNG stream);
    :meth:`install_attack` arms them by a single priority event at
    ``attack_start_us``. The benign prefix is therefore a pure function of
    (config, populations, seed), which is what the snapshot-and-fork executor
    captures; at ``attack_start_us=0`` the attack is in force from the start.
    The simulator's event budget is the run's deadline, as for PBFT.
    """

    def __init__(
        self,
        config: DhtConfig,
        n_correct: int,
        n_malicious: int = 0,
        seed: int = 0,
        bootstrap_degree: int = 4,
        attack_start_us: int = 0,
    ) -> None:
        if n_correct < 2:
            raise ValueError("need at least two correct nodes")
        self.config = config
        self.simulator = Simulator(seed=seed)
        self.network = Network(self.simulator, LanLatency(base_us=2_000, jitter_mean_us=1_000))
        self.victim = VictimEndpoint("victim", self.simulator, self.network)

        self.correct_nodes: List[DhtNode] = [
            DhtNode(f"dht-{i}", config, self.simulator, self.network)
            for i in range(n_correct)
        ]
        self.malicious_nodes: List[MaliciousDhtNode] = [
            MaliciousDhtNode(
                f"dht-evil-{i}", config, self.simulator, self.network, victim="victim"
            )
            for i in range(n_malicious)
        ]

        # Bootstrap: every node learns a few random peers; attackers are as
        # discoverable as anyone else (they joined the swarm normally).
        everyone = self.correct_nodes + self.malicious_nodes
        rng = self.simulator.rng("dht-bootstrap")
        for node in everyone:
            peers = [peer for peer in everyone if peer is not node]
            rng.shuffle(peers)
            node.bootstrap([(peer.id, peer.name) for peer in peers[:bootstrap_degree]])

        stagger = max(config.lookup_interval_us // max(len(everyone), 1), 1)
        for index, node in enumerate(self.correct_nodes):
            node.start_workload(initial_delay_us=index * stagger)
        self.simulator.event_budget = event_budget(
            len(self.network.endpoints), config.warmup_us + config.measurement_us
        )

        self._attack: Optional[DhtAttack] = None
        self._attack_start_us = attack_start_us

    # ------------------------------------------------------------------
    # pickling (snapshot capture / fork)
    # ------------------------------------------------------------------
    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.network.rebind_fast_paths()

    # ------------------------------------------------------------------
    # attack activation
    # ------------------------------------------------------------------
    def install_attack(self, attack: DhtAttack) -> None:
        """Arm ``attack`` by one priority event at ``attack_start_us``
        (fresh or forked deployment alike)."""
        if self._attack is not None:
            raise ValueError("an attack is already installed")
        self._attack = attack
        self.simulator.schedule_priority(self._attack_start_us, self._activate_attack)

    def _activate_attack(self) -> None:
        attack = self._attack
        for node in self.malicious_nodes:
            node.activate(attack.poison_rate, attack.fanout)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def prepare_window(self) -> Tuple[int, int]:
        """Set the victim's measurement window (idempotent)."""
        window_from = self.config.warmup_us
        window_to = self.config.warmup_us + self.config.measurement_us
        self.victim.window_from = window_from
        self.victim.window_to = window_to
        return window_from, window_to

    def run(self) -> DhtRunResult:
        config = self.config
        _, window_to = self.prepare_window()
        self.simulator.run(until=window_to)

        window_s = config.measurement_us / SECOND
        attacker_messages = sum(node.messages_spent for node in self.malicious_nodes)
        victim_messages = self.victim.received_in_window
        trail = self.network.kind_trail
        counters: Dict[str, int] = trail.merged() if trail is not None else {}
        return DhtRunResult(
            victim_messages=victim_messages,
            victim_load_mps=victim_messages / window_s if window_s else 0.0,
            attacker_messages=attacker_messages,
            lookups_completed=sum(n.lookups_completed for n in self.correct_nodes),
            amplification=(victim_messages / attacker_messages) if attacker_messages else 0.0,
            window_s=window_s,
            counters=counters,
        )

    def run_prefix(self, until: int) -> None:
        """Run the benign prefix up to time ``until`` (snapshot capture).

        The prefix must end before the attack activates, which needs
        ``attack_start_us >= 1``.
        """
        if until >= self._attack_start_us:
            raise ValueError("a prefix must end before the attack activates")
        self.prepare_window()
        self.simulator.run(until=until)

    def close(self) -> None:
        """End the deployment's life, as :meth:`PbftDeployment.close
        <repro.pbft.cluster.PbftDeployment.close>` does. Idempotent."""
        self.network.close()


def run_dht_deployment(
    config: Optional[DhtConfig] = None,
    n_correct: int = 40,
    attack: Optional[DhtAttack] = None,
    n_malicious: int = 0,
    seed: int = 0,
) -> DhtRunResult:
    """Build one DHT scenario, arm ``attack`` (if any) at t=0, and measure it."""
    deployment = DhtDeployment(
        config if config is not None else DhtConfig(), n_correct, n_malicious, seed
    )
    if attack is not None:
        deployment.install_attack(attack)
    with closing(deployment):
        return deployment.run()


__all__ = ["DhtAttack", "DhtDeployment", "DhtRunResult", "run_dht_deployment"]
