"""PBFT deployment builder and measurement harness.

A :class:`PbftDeployment` assembles one benign system-under-test — 3f+1
replicas, N correct clients, M malicious-designate clients, a network — on a
fresh simulator, arms an optional :class:`~repro.pbft.attack.PbftAttack`,
runs it for warmup + measurement, and summarizes what the *correct clients*
observed. That summary is AVD's impact measurement (paper Sec. 3).
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sim.rng import derive_seed
from ..sim import LanLatency, LatencyModel, Network, SECOND, Simulator
from ..sim.simulator import event_budget
from .attack import PbftAttack
from .client import Client
from .config import PbftConfig, client_name, malicious_client_name
from .replica import Replica


@dataclass(frozen=True)
class PbftRunResult:
    """What one test run measured (correct-client perspective)."""

    #: Requests completed by correct clients inside the measurement window.
    completed_requests: int
    #: Length of the measurement window, in seconds of simulated time.
    window_s: float
    #: Average end-to-end latency of completed correct-client requests (s).
    mean_latency_s: float
    #: 99th-percentile latency (s).
    p99_latency_s: float
    #: Number of correct clients.
    correct_clients: int
    #: View changes started, summed over replicas.
    view_changes: int
    #: NEW-VIEW installations, summed over replicas.
    new_views: int
    #: Replicas that crashed during the run.
    crashed_replicas: int
    #: Correct-client retransmissions during the whole run.
    retransmissions: int
    #: Requests rejected for bad MACs, summed over replicas.
    bad_mac_rejections: int
    #: Correct-client throughput over the tail (last 25%) of the window —
    #: the steady state the attack leaves the system in. A crashed system
    #: shows ~0 here even when the window average is still high.
    tail_throughput_rps: float = 0.0
    #: Throughput over time: requests/s per 100 ms bucket (whole run).
    throughput_series: Tuple[float, ...] = ()
    #: Raw named counters from the simulator, for deeper analysis.
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Average correct-client throughput (requests/second)."""
        if self.window_s <= 0:
            return 0.0
        return self.completed_requests / self.window_s


class PbftDeployment:
    """One fully assembled PBFT system under test.

    The deployment is always built benign: 3f+1 correct replicas, the
    correct clients, and ``n_malicious_clients`` designates that run as
    correct clients until an attack arms them. :meth:`install_attack` is
    the only way to make anything malicious. The simulator's event budget
    (:func:`~repro.sim.simulator.event_budget`) is the run's deadline.

    Parameters
    ----------
    config:
        Protocol constants (see :class:`PbftConfig`).
    n_correct_clients:
        Number of correct, unmodified clients.
    n_malicious_clients:
        Number of malicious-designate clients.
    seed:
        Root seed; every run with the same parameters and seed is identical.
    latency_model:
        Network substrate configuration.
    attack_start_us:
        When an installed attack activates. The activation is a single
        priority event; at ``0`` it runs before every ordinary event, so the
        attack is in force for the whole run.
    """

    def __init__(
        self,
        config: PbftConfig,
        n_correct_clients: int,
        n_malicious_clients: int = 0,
        seed: int = 0,
        latency_model: Optional[LatencyModel] = None,
        attack_start_us: int = 0,
    ) -> None:
        if n_correct_clients < 1:
            raise ValueError("need at least one correct client to measure impact")
        self.config = config
        self.seed = seed
        self.simulator = Simulator(seed=seed)
        self.network = Network(
            self.simulator, latency_model if latency_model is not None else LanLatency()
        )

        key_root = derive_seed(seed, "pbft-keys")
        stagger_rng = self.simulator.rng("client-stagger")
        stagger_span = max(config.batch_interval_us * 4, 1)

        self.replicas: List[Replica] = [
            Replica(index, config, self.simulator, self.network, key_root)
            for index in range(config.n_replicas)
        ]
        self.correct_clients: List[Client] = [
            Client(
                client_name(index),
                config,
                self.simulator,
                self.network,
                key_root,
                start_delay_us=stagger_rng.randint(0, stagger_span),
            )
            for index in range(n_correct_clients)
        ]
        self.malicious_clients: List[Client] = [
            Client(
                malicious_client_name(index),
                config,
                self.simulator,
                self.network,
                key_root,
                start_delay_us=stagger_rng.randint(0, stagger_span),
            )
            for index in range(n_malicious_clients)
        ]
        self.simulator.event_budget = event_budget(
            len(self.network.endpoints), config.warmup_us + config.measurement_us
        )

        #: The activation event is a *priority* event (it never consumes the
        #: shared event sequence counter), so a deployment without an attack
        #: — the snapshot-capture prefix — runs a bit-identical benign prefix.
        self._attack: Optional[PbftAttack] = None
        self._attack_start_us = attack_start_us

    # ------------------------------------------------------------------
    # pickling (snapshot capture / fork)
    # ------------------------------------------------------------------
    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # The network's fused send path captures the event queue's heap by
        # reference; rebuild it now that the whole graph is restored.
        self.network.rebind_fast_paths()

    # ------------------------------------------------------------------
    # attack activation
    # ------------------------------------------------------------------
    def install_attack(self, attack: PbftAttack) -> None:
        """Arm ``attack`` by one priority event at ``attack_start_us``.

        Works the same on a fresh deployment and on one forked from a
        snapshot of its benign prefix, so both runs execute identically.
        """
        if self._attack is not None:
            raise ValueError("an attack is already installed")
        self._attack = attack
        self.simulator.schedule_priority(self._attack_start_us, self._activate_attack)

    def _activate_attack(self) -> None:
        """Apply the attack bundle (runs as the priority activation event)."""
        attack = self._attack
        for client in self.malicious_clients:
            client.apply_behavior(attack.client_behavior)
        for index in sorted(attack.replica_behaviors):
            self.replicas[index].apply_behavior(attack.replica_behaviors[index])
        for fault in attack.network_faults:
            self.network.add_fault(fault)
        for node_name, plans in attack.injection_plans.items():
            node = self.network.endpoints.get(node_name)
            if node is None:
                continue
            for plan in plans:
                node.lib.install_relative(plan)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def prepare_measurement(self) -> Tuple[int, int]:
        """Set every client's measurement window (idempotent)."""
        config = self.config
        measure_from = config.warmup_us
        measure_to = config.warmup_us + config.measurement_us
        tail_from = measure_to - (measure_to - measure_from) // 4
        for client in self.correct_clients:
            client.measure_from = measure_from
            client.measure_to = measure_to
            client.tail_from = tail_from
        for client in self.malicious_clients:
            # Malicious clients never contribute to the impact metric.
            client.measure_from = measure_to
            client.measure_to = measure_to
        return measure_from, measure_to

    def run(self) -> PbftRunResult:
        """Run warmup + measurement and summarize the correct-client view.

        Safe to call on a forked deployment: the windows are re-derived from
        the config (idempotent) and the simulator simply continues from the
        restored clock.
        """
        measure_from, measure_to = self.prepare_measurement()
        self.simulator.run(until=measure_to)
        return self._collect(measure_from, measure_to)

    def close(self) -> None:
        """End the deployment's life: break its reference cycles
        (:meth:`Network.close <repro.sim.network.Network.close>`), so it is
        freed by refcount, not by the cyclic collector. Idempotent.

        Called wherever a deployment's life ends, never by :meth:`run`: the
        deployment stays inspectable until its owner closes it.
        """
        self.network.close()

    def run_prefix(self, until: int) -> None:
        """Run the benign prefix up to (and including) time ``until``.

        The snapshot-capture path: windows are prepared exactly as
        :meth:`run` would, and the simulation stops just before the attack
        activation point so the captured state is attack-independent (which
        needs ``attack_start_us >= 1``).
        """
        if until >= self._attack_start_us:
            raise ValueError("a prefix must end before the attack activates")
        self.prepare_measurement()
        self.simulator.run(until=until)

    def _collect(self, measure_from: int, measure_to: int) -> PbftRunResult:
        completed = sum(client.completed_measured for client in self.correct_clients)
        latency_sum = sum(client.latency_sum_us for client in self.correct_clients)
        mean_latency_s = (latency_sum / completed / SECOND) if completed else 0.0

        all_samples: List[int] = []
        for client in self.correct_clients:
            all_samples.extend(client.latencies.samples)
        p99 = 0.0
        if all_samples:
            all_samples.sort()
            index = min(len(all_samples) - 1, max(0, int(0.99 * len(all_samples)) - 1))
            p99 = all_samples[index] / SECOND

        metrics = self.simulator.metrics
        series = metrics.series.get("pbft.completions")
        throughput_series: Tuple[float, ...] = ()
        if series is not None:
            throughput_series = tuple(series.rate_series())

        tail_from = measure_to - (measure_to - measure_from) // 4
        tail_completed = sum(
            client.completed_tail for client in self.correct_clients
        )
        tail_s = (measure_to - tail_from) / SECOND
        tail_throughput = tail_completed / tail_s if tail_s > 0 else 0.0

        return PbftRunResult(
            completed_requests=completed,
            tail_throughput_rps=tail_throughput,
            window_s=(measure_to - measure_from) / SECOND,
            mean_latency_s=mean_latency_s,
            p99_latency_s=p99,
            correct_clients=len(self.correct_clients),
            view_changes=sum(replica.view_changes_started for replica in self.replicas),
            new_views=sum(replica.new_views_installed for replica in self.replicas),
            crashed_replicas=sum(1 for replica in self.replicas if replica.crashed),
            retransmissions=metrics.counter_value("pbft.client_retransmissions"),
            bad_mac_rejections=sum(r.requests_rejected_bad_mac for r in self.replicas),
            throughput_series=throughput_series,
            counters=self._counters_with_trail(metrics),
        )

    def _counters_with_trail(self, metrics) -> Dict[str, int]:
        """Raw simulator counters, plus coverage-mode delivery counts.

        When coverage capture is on (see :mod:`repro.sim.trace`) the
        network's kind trail is folded in under ``net.msg.*``/``net.seq.*``
        keys, in sorted order, so downstream signature extraction sees a
        deterministic mapping.
        """
        counters = {name: c.value for name, c in metrics.counters.items()}
        trail = self.network.kind_trail
        if trail is not None:
            counters.update(trail.merged())
        return counters


def run_deployment(
    config: PbftConfig,
    n_correct_clients: int,
    attack: Optional[PbftAttack] = None,
    n_malicious_clients: int = 0,
    seed: int = 0,
    latency_model: Optional[LatencyModel] = None,
) -> PbftRunResult:
    """Build a deployment, arm ``attack`` (if any) at t=0, and measure one run."""
    deployment = PbftDeployment(
        config, n_correct_clients, n_malicious_clients, seed, latency_model
    )
    if attack is not None:
        deployment.install_attack(attack)
    with closing(deployment):
        return deployment.run()


__all__ = ["PbftDeployment", "PbftRunResult", "run_deployment"]
