"""The PBFT target adapter: scenario parameters -> deployment -> impact.

The target owns a :class:`PbftScenarioSpec` assembly pipeline: every tool
plugin folds its parameters into the spec, the spec builds a fresh
deployment, and the run result is scored against a benign baseline at the
same client count. The impact metric follows the paper (Sec. 3/6): damage
to the average throughput observed by the correct clients — measured on the
window *tail* so that end states (a crashed system) count fully.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..injection import FaultPlan
from ..pbft import (
    ClientBehavior,
    PbftAttack,
    PbftConfig,
    PbftDeployment,
    PbftRunResult,
    ReplicaBehavior,
)
from ..sim import NetworkFault
from ..core import coverage
from ..core.hyperspace import Hyperspace
from ..core.plugin import ToolPlugin
from ..core.snapshot import ForkableSpec


@dataclass
class PbftScenarioSpec(ForkableSpec):
    """Everything needed to instantiate one PBFT test scenario.

    Plugins write fields; :meth:`build` assembles the deployment. Fields are
    deliberately flat so plugins stay order-independent.
    """

    kind = "pbft"

    config: PbftConfig
    n_correct_clients: int = 10
    n_malicious_clients: int = 1
    #: MAC corruption bitmask for every malicious client (plain binary).
    mac_mask: int = 0
    #: Malicious clients broadcast every transmission (colluder behaviour).
    malicious_broadcast: bool = False
    #: Replica behaviours by index (slow primary, synthesis, ...).
    replica_behaviors: Dict[int, ReplicaBehavior] = field(default_factory=dict)
    #: Network fault stages to install.
    network_faults: List[NetworkFault] = field(default_factory=list)
    #: Library fault plans by node name.
    injection_plans: Dict[str, List[FaultPlan]] = field(default_factory=dict)
    #: Attack activation point, as a percentage of the measurement window
    #: elapsed before the attack switches on; ``None`` = at t=0, before
    #: every ordinary event. Timed scenarios share a benign prefix across
    #: attack parameters, which the snapshot cache exploits; fault plans are
    #: installed *relative* to the activation point.
    attack_start_pct: Optional[int] = None

    #: Spelled here as well as inherited, so per-class instrumentation
    #: (``benchmark/trace.py``) can wrap ``PbftScenarioSpec.build`` itself.
    build = ForkableSpec.build

    def shape(self) -> Tuple[int, int]:
        return (self.n_correct_clients, self.n_malicious_clients)

    def deployment(self, seed: int, attack_start_us: int) -> PbftDeployment:
        return PbftDeployment(
            self.config,
            self.n_correct_clients,
            self.n_malicious_clients,
            seed,
            attack_start_us=attack_start_us,
        )

    def attack(self) -> PbftAttack:
        return PbftAttack(
            _malicious_behavior(self.mac_mask, self.malicious_broadcast),
            dict(self.replica_behaviors),
            tuple(self.network_faults),
            {name: tuple(plans) for name, plans in self.injection_plans.items()},
        )


class PbftTarget:
    """System-under-test adapter for the AVD controller."""

    def __init__(
        self,
        plugins: Sequence[ToolPlugin],
        config: Optional[PbftConfig] = None,
        hyperspace: Optional[Hyperspace] = None,
    ) -> None:
        if not plugins:
            raise ValueError("the PBFT target needs at least one tool plugin")
        self.plugins = list(plugins)
        self.config = config if config is not None else PbftConfig.campaign_scale()
        if hyperspace is None:
            hyperspace = Hyperspace(self.dimensions())
        self.hyperspace = hyperspace
        #: Benign run result by client count (lazy cache).
        self._baselines: Dict[int, PbftRunResult] = {}
        self.tests_run = 0

    # ------------------------------------------------------------------
    # Target interface (full tier — see repro.core.target)
    # ------------------------------------------------------------------
    def dimensions(self) -> List:
        """The dimension list composed from every plugin, in plugin order."""
        dimensions = []
        for plugin in self.plugins:
            dimensions.extend(plugin.dimensions())
        return dimensions

    def telemetry_summary(self, measurement: PbftRunResult) -> Dict[str, object]:
        """Headline figures embedded into ``ScenarioExecuted`` events."""
        return {
            "throughput_rps": measurement.throughput_rps,
            "tail_throughput_rps": measurement.tail_throughput_rps,
            "view_changes": measurement.view_changes,
            "crashed_replicas": measurement.crashed_replicas,
            "bad_mac_rejections": measurement.bad_mac_rejections,
        }

    def coverage_features(
        self, measurement: PbftRunResult, params: Dict[str, object]
    ) -> Tuple[str, ...]:
        """The behaviour features a coverage signature is derived from.

        Pure function of the measurement (which is itself a pure function
        of ``(seed, scenario)``): the view-change/quorum shape, bucketed
        protocol counters (timer fires, rejections, crashes — plus the
        ``net.msg.*``/``net.seq.*`` delivery trail when coverage capture
        is on), and the 2-grams of the quantized throughput timeline.
        Works on live :class:`PbftRunResult` objects and on persisted
        measurement views alike.
        """
        m = measurement
        # Quorum counts are bucketed like every other tally: raw counts
        # would mint a fresh "novel" signature for every view-change total,
        # rewarding the noisy view-change-storm basin with endless novelty
        # instead of pushing exploration toward genuinely new behaviour.
        features = [
            "quorum:"
            f"{coverage.log2_bucket(m.view_changes)}:"
            f"{coverage.log2_bucket(m.new_views)}:"
            f"{int(m.crashed_replicas)}",
            f"badmac:{coverage.log2_bucket(m.bad_mac_rejections)}",
            f"rtx:{coverage.log2_bucket(m.retransmissions)}",
            f"done:{coverage.log2_bucket(m.completed_requests)}",
        ]
        features.extend(coverage.protocol_counter_features(m.counters))
        features.extend(coverage.series_ngrams(m.throughput_series))
        return tuple(features)

    def _spec(self, params: Dict[str, object]) -> PbftScenarioSpec:
        spec = PbftScenarioSpec(config=self.config)
        for plugin in self.plugins:
            plugin.configure(params, spec)
        return spec

    def execute(self, params: Dict[str, object], seed: int) -> PbftRunResult:
        spec = self._spec(params)
        self.tests_run += 1
        return spec.run(seed)

    def seed_scope(self, params: Dict[str, object]) -> Optional[str]:
        """Seed-equivalence class for timed scenarios (see the executor).

        Scenarios that differ only in attack parameters share one benign
        prefix; giving them one seed (a pure function of the prefix shape)
        is what lets the snapshot cache serve them all from a single
        capture. Untimed scenarios return ``None`` and keep their private
        per-scenario seeds.
        """
        return self._spec(params).seed_scope()

    def impact_of(self, measurement: PbftRunResult, params: Dict[str, object]) -> float:
        """Damage to the correct clients' throughput, in [0, 1].

        Both the window *average* and the window *tail* are compared against
        the benign baseline at the same client count, and the larger damage
        wins: the average captures sustained degradation (stalls, view-change
        storms), the tail captures terminal collapse (a crashed system whose
        early window still looked healthy).
        """
        baseline = self.baseline(measurement.correct_clients)
        damages = []
        if baseline.throughput_rps > 0:
            damages.append(1.0 - measurement.throughput_rps / baseline.throughput_rps)
        if baseline.tail_throughput_rps > 0:
            damages.append(
                1.0 - measurement.tail_throughput_rps / baseline.tail_throughput_rps
            )
        if not damages:
            return 0.0
        return min(max(max(damages), 0.0), 1.0)

    # ------------------------------------------------------------------
    # baseline calibration
    # ------------------------------------------------------------------
    def baseline(self, n_correct_clients: int) -> PbftRunResult:
        """The benign measurement at this client count (cached).

        The result is cached on the instance and in a process-wide cache
        keyed by ``(config, client count)``:
        every target with the same config would rerun the *identical*
        benign deployment (the baseline seed is a fixed function of the
        client count), and :class:`PbftRunResult` is frozen, so sharing the
        measurement is safe.
        """
        cached = self._baselines.get(n_correct_clients)
        if cached is None:
            key = (self.config, n_correct_clients)
            cached = _BASELINE_CACHE.get(key)
            if cached is None:
                cached = self._run_baseline(n_correct_clients)
                _BASELINE_CACHE[key] = cached
            self._baselines[n_correct_clients] = cached
        return cached

    def _run_baseline(self, n_correct_clients: int) -> PbftRunResult:
        deployment = PbftDeployment(
            self.config, n_correct_clients, seed=derive_baseline_seed(n_correct_clients)
        )
        with closing(deployment):
            return deployment.run()

    def baseline_throughput(self, n_correct_clients: int) -> float:
        """Benign average throughput at this client count (cached)."""
        return self.baseline(n_correct_clients).throughput_rps

    def warm_caches(self, campaign_seed: Optional[int] = None) -> int:
        """Precompute the benign baselines; returns how many were computed.

        Called before the target is pickled for workers and at every worker
        session's start (and usable directly before a serial campaign): the
        hyperspace's ``n_correct_clients`` dimension enumerates every client
        count a scenario can request, so warming them up front means no
        worker ever pays for a benign calibration run mid-campaign. Counts
        already cached (for example shipped inside the pickled target) are
        skipped. ``campaign_seed`` is accepted and ignored: prefix
        snapshots are captured on first use, inside the scenarios.
        """
        warmed = 0
        dimension = self.hyperspace.by_name.get("n_correct_clients")
        if dimension is not None:
            for position in range(dimension.size):
                count = dimension.value_at(position)
                if not isinstance(count, int) or count < 1:
                    continue
                if count not in self._baselines:
                    before = len(_BASELINE_CACHE)
                    self.baseline(count)
                    warmed += len(_BASELINE_CACHE) - before
        return warmed


#: Process-wide benign baseline cache: (config, client count) -> result.
#: Safe to share because the baseline deployment is a pure function of the
#: key (its seed is derived from the client count) and the result is frozen.
_BASELINE_CACHE: Dict[Tuple[PbftConfig, int], PbftRunResult] = {}


@lru_cache(maxsize=None)
def _malicious_behavior(mac_mask: int, broadcast_always: bool) -> ClientBehavior:
    """Shared frozen behaviour instance per (mask, broadcast) combination."""
    return ClientBehavior(mac_mask=mac_mask, broadcast_always=broadcast_always)


def derive_baseline_seed(n_correct_clients: int) -> int:
    """Fixed, client-count-specific seed for baseline calibration runs."""
    return 0xBA5E << 8 | (n_correct_clients & 0xFF)


__all__ = ["PbftScenarioSpec", "PbftTarget", "derive_baseline_seed"]
