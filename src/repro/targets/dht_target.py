"""DHT target adapter: AVD searching for the redirection DoS.

Demonstrates AVD's generality beyond PBFT (the paper's architecture is
target-agnostic). The impact metric is the *amplified load* a small number
of malicious nodes can steer at a victim, normalized with a saturating
transform so it lands in [0, 1].
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core import coverage, snapshot
from ..core.executor import scope_seed
from ..core.hyperspace import ChoiceDimension, Dimension, Hyperspace, IntRangeDimension
from ..core.plugin import ToolPlugin
from ..core.power import AccessLevel, ControlLevel
from ..dht import DhtAttack, DhtConfig, DhtDeployment, DhtRunResult
from ..sim.trace import kind_capture_enabled

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


class DhtScenarioSpec:
    """Deployment parameters for one DHT test."""

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

    def build(self, seed: int) -> DhtDeployment:
        """A dormant-attacker deployment (forked from its prefix snapshot when
        timed and forking is on) with :meth:`attack` installed."""
        if self.seed_scope() is not None and snapshot.enabled():
            snap = snapshot.cache().get_or_capture(
                self.snapshot_key(seed), lambda: self.build_prefix(seed)
            )
            deployment = snap.fork()
        else:
            deployment = DhtDeployment(
                self.config,
                self.n_correct,
                self.n_malicious,
                seed,
                attack_start_us=self.attack_start_us(),
            )
        deployment.install_attack(self.attack())
        return deployment

    def attack_start_us(self) -> int:
        """Absolute activation time (0 for an untimed scenario)."""
        if self.attack_start_pct is None:
            return 0
        config = self.config
        return max(1, config.warmup_us + config.measurement_us * self.attack_start_pct // 100)

    def attack(self) -> DhtAttack:
        return DhtAttack(poison_rate=self.poison_rate, fanout=self.fanout)

    # ------------------------------------------------------------------
    # timed (snapshot-and-fork) scenarios
    # ------------------------------------------------------------------
    def seed_scope(self) -> Optional[str]:
        """Seed-equivalence class of the benign prefix (``None`` if untimed);
        the one spelling shared by the executor and ``warm_caches``."""
        if self.attack_start_pct is None:
            return None
        return f"dht-prefix:{self.n_correct}:{self.n_malicious}:{self.attack_start_pct}"

    def snapshot_key(self, seed: int) -> Tuple:
        """Everything the benign prefix depends on — and nothing else.

        The coverage-capture flag is included for the same reason as in
        :meth:`PbftScenarioSpec.snapshot_key`: the prefix's kind trail only
        exists when capture was on at construction time.
        """
        return (
            "dht",
            self.config,
            self.n_correct,
            self.n_malicious,
            self.attack_start_pct,
            seed,
            kind_capture_enabled(),
        )

    def build_prefix(self, seed: int) -> DhtDeployment:
        """Build the dormant-attacker deployment, run to the injection point."""
        start_us = self.attack_start_us()
        deployment = DhtDeployment(
            self.config, self.n_correct, self.n_malicious, seed, attack_start_us=start_us
        )
        deployment.run_prefix(start_us - 1)
        return deployment


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
        dimensions = []
        for plugin in self.plugins:
            dimensions.extend(plugin.dimensions())
        self.hyperspace = Hyperspace(dimensions)
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
        for name, value in sorted((getattr(m, "counters", {}) or {}).items()):
            if not isinstance(value, (int, float)):
                continue
            if name.startswith("net.seq.") or name.startswith("net.msg."):
                # Presence of a delivery edge, not its tally (see the PBFT
                # extractor): per-edge counts make every run look novel.
                features.append(f"edge:{name[4:]}")
            else:
                features.append(f"ctr:{name}:{coverage.log2_bucket(value)}")
        return tuple(features)

    def _spec(self, params: Dict[str, object]) -> DhtScenarioSpec:
        spec = DhtScenarioSpec(self.config, self.n_correct)
        for plugin in self.plugins:
            plugin.configure(params, spec)
        return spec

    def execute(self, params: Dict[str, object], seed: int) -> DhtRunResult:
        return self._spec(params).build(seed).run()

    def seed_scope(self, params: Dict[str, object]) -> Optional[str]:
        """Seed-equivalence class for timed scenarios (see the executor)."""
        return self._spec(params).seed_scope()

    def warm_caches(self, campaign_seed: Optional[int] = None) -> int:
        """Capture every reachable benign prefix into the snapshot cache.

        Up to the cache's capacity; entries left by another campaign do not
        count against it (the LRU evicts them).
        """
        if campaign_seed is None or not snapshot.enabled():
            return 0

        def _values(name: str, default: int) -> List[int]:
            dimension = self.hyperspace.by_name.get(name)
            if dimension is None:
                return [default]
            return [
                value
                for value in (
                    dimension.value_at(position) for position in range(dimension.size)
                )
                if isinstance(value, int)
            ]

        pcts = _values("attack_start_pct", -1)
        if pcts == [-1]:
            return 0
        reachable = [
            (pct, n_malicious)
            for pct in pcts
            for n_malicious in _values(DHT_MALICIOUS_DIMENSION, 1)
        ]
        cache = snapshot.cache()
        warmed = 0
        for pct, n_malicious in reachable[: cache.max_entries]:
            spec = DhtScenarioSpec(self.config, self.n_correct)
            spec.n_malicious = n_malicious
            spec.attack_start_pct = pct
            seed = scope_seed(campaign_seed, spec.seed_scope())
            key = spec.snapshot_key(seed)
            if key not in cache:
                cache.get_or_capture(key, lambda: spec.build_prefix(seed))
                warmed += 1
        return warmed

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
