"""DHT target adapter: AVD searching for the redirection DoS.

Demonstrates AVD's generality beyond PBFT (the paper's architecture is
target-agnostic). The impact metric is the *amplified load* a small number
of malicious nodes can steer at a victim, normalized with a saturating
transform so it lands in [0, 1].
"""

from __future__ import annotations

from contextlib import closing
from typing import Dict, Optional, Sequence, Tuple

from ..core import coverage
from ..core.hyperspace import ChoiceDimension, Dimension, Hyperspace, IntRangeDimension
from ..core.plugin import ToolPlugin
from ..core.power import AccessLevel, ControlLevel
from ..core.snapshot import ForkableSpec
from ..dht import DhtAttack, DhtConfig, DhtDeployment, DhtRunResult

POISON_RATE_DIMENSION = "poison_rate_pct"
POISON_FANOUT_DIMENSION = "poison_fanout"
DHT_MALICIOUS_DIMENSION = "n_malicious_nodes"

#: Fixed seed for the benign (attacker-free) calibration run.
DHT_BASELINE_SEED = 0xD47BA5E


class RoutingPoisonPlugin(ToolPlugin):
    """Controls the routing-poisoning behaviour of malicious DHT nodes."""

    name = "routing_poison"
    # Crafting poisoned routing replies requires knowing the protocol
    # (documentation) and controlling participant nodes (clients, in DHT
    # terms every participant is a client-grade peer).
    required_access = AccessLevel.DOCUMENTATION
    required_control = ControlLevel.CLIENT

    def __init__(self, max_fanout: int = 16, malicious_choices: Sequence[int] = (1, 2)) -> None:
        self._dimensions = [
            IntRangeDimension(POISON_RATE_DIMENSION, 0, 100, 10),
            IntRangeDimension(POISON_FANOUT_DIMENSION, 1, max_fanout),
            ChoiceDimension(DHT_MALICIOUS_DIMENSION, list(malicious_choices)),
        ]

    def dimensions(self) -> Sequence[Dimension]:
        return list(self._dimensions)

    def configure(self, params: Dict[str, object], spec: "DhtScenarioSpec") -> None:
        spec.poison_rate = int(params[POISON_RATE_DIMENSION]) / 100.0
        spec.fanout = int(params[POISON_FANOUT_DIMENSION])
        spec.n_malicious = int(params[DHT_MALICIOUS_DIMENSION])


class DhtScenarioSpec(ForkableSpec):
    """Deployment parameters for one DHT test."""

    kind = "dht"

    def __init__(self, config: DhtConfig, n_correct: int) -> None:
        self.config = config
        self.n_correct = n_correct
        self.n_malicious = 1
        self.poison_rate = 0.0
        self.fanout = 1
        #: Activation point (percentage of the measurement window elapsed
        #: before poisoning switches on); ``None`` = at t=0, before every
        #: ordinary event. See :class:`PbftScenarioSpec`.
        self.attack_start_pct: Optional[int] = None

    def shape(self) -> Tuple[int, int]:
        return (self.n_correct, self.n_malicious)

    def deployment(self, seed: int, attack_start_us: int) -> DhtDeployment:
        return DhtDeployment(
            self.config, self.n_correct, self.n_malicious, seed, attack_start_us=attack_start_us
        )

    def attack(self) -> DhtAttack:
        return DhtAttack(poison_rate=self.poison_rate, fanout=self.fanout)


class DhtTarget:
    """System-under-test adapter for the DHT redirection scenario."""

    #: Victim load (messages/s) at which impact saturates to ~0.5; chosen
    #: around the load one fully-poisoning node inflicts on a 40-node swarm.
    HALF_IMPACT_LOAD = 500.0

    def __init__(
        self,
        plugins: Sequence[ToolPlugin],
        config: Optional[DhtConfig] = None,
        n_correct: int = 40,
    ) -> None:
        if not plugins:
            raise ValueError("the DHT target needs at least one tool plugin")
        self.plugins = list(plugins)
        self.config = config if config is not None else DhtConfig()
        self.n_correct = n_correct
        self.hyperspace = Hyperspace(self.dimensions())
        self._baseline: Optional[DhtRunResult] = None

    def dimensions(self) -> Sequence:
        """The dimension list composed from every plugin, in plugin order."""
        dimensions = []
        for plugin in self.plugins:
            dimensions.extend(plugin.dimensions())
        return dimensions

    def baseline(self) -> DhtRunResult:
        """The benign measurement: the swarm with no attackers (cached).

        The impact metric is absolute (a saturating transform of victim
        load), so the baseline only calibrates *reporting* — it is what the
        victim's background load looks like when nobody is poisoning.
        """
        if self._baseline is None:
            deployment = DhtDeployment(
                self.config, self.n_correct, n_malicious=0, seed=DHT_BASELINE_SEED
            )
            with closing(deployment):
                self._baseline = deployment.run()
        return self._baseline

    def telemetry_summary(self, measurement: DhtRunResult) -> Dict[str, object]:
        """Headline figures embedded into ``ScenarioExecuted`` events."""
        return {
            "victim_load_mps": measurement.victim_load_mps,
            "amplification": measurement.amplification,
            "lookups_completed": measurement.lookups_completed,
        }

    def coverage_features(
        self, measurement: DhtRunResult, params: Dict[str, object]
    ) -> Tuple[str, ...]:
        """Behaviour features for the DHT redirection scenario.

        Amplification is bucketed at quarter-resolution (sub-1x regimes
        matter: a scenario that merely *wastes* attacker messages behaves
        differently from one that amplifies), loads and lookup completions
        at power-of-two resolution, plus the delivery trail when coverage
        capture is on.
        """
        m = measurement
        features = [
            f"amp:{coverage.log2_bucket(int(float(m.amplification) * 4))}",
            f"victim:{coverage.log2_bucket(m.victim_messages)}",
            f"spent:{coverage.log2_bucket(m.attacker_messages)}",
            f"lookups:{coverage.log2_bucket(m.lookups_completed)}",
        ]
        features.extend(coverage.protocol_counter_features(getattr(m, "counters", {}) or {}))
        return tuple(features)

    def _spec(self, params: Dict[str, object]) -> DhtScenarioSpec:
        spec = DhtScenarioSpec(self.config, self.n_correct)
        for plugin in self.plugins:
            plugin.configure(params, spec)
        return spec

    def execute(self, params: Dict[str, object], seed: int) -> DhtRunResult:
        return self._spec(params).run(seed)

    def seed_scope(self, params: Dict[str, object]) -> Optional[str]:
        """Seed-equivalence class for timed scenarios (see the executor)."""
        return self._spec(params).seed_scope()

    def impact_of(self, measurement: DhtRunResult, params: Dict[str, object]) -> float:
        load = measurement.victim_load_mps
        return load / (load + self.HALF_IMPACT_LOAD)


__all__ = [
    "DHT_BASELINE_SEED",
    "DHT_MALICIOUS_DIMENSION",
    "DhtScenarioSpec",
    "DhtTarget",
    "POISON_FANOUT_DIMENSION",
    "POISON_RATE_DIMENSION",
    "RoutingPoisonPlugin",
]
