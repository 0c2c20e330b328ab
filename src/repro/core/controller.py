"""The Test Controller: the paper's Algorithm 1.

The controller keeps:

- ``Pi``   — the set of top-impact executed scenarios,
- ``Psi``  — the queue of scenarios pending execution,
- ``Omega``— the history of previously executed scenario keys,
- ``mu``   — the maximum observed impact so far,

and generates new scenarios by sampling a parent from Pi by impact,
sampling a plugin by historical fitness gain, computing
``mutateDistance = 1 - parent.impact / mu`` and asking the plugin to mutate
the parent. The exploration is seeded with random scenarios (the "random
shots" phase of the battleships analogy in Sec. 3).

The controller is an :class:`~repro.core.campaign.ExplorationStrategy`
like every baseline; it adds only the coverage toggle around a run.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..sim.trace import set_kind_capture
from ..telemetry.events import (
    CoverageObserved,
    FailureClassified,
    ImpactAbsorbed,
    MutationApplied,
    ParentSelected,
    PluginSampled,
    key_dict,
)
from . import coverage as coverage_mod
from .campaign import ExplorationStrategy
from .coverage import CoverageMap
from .executor import Target
from .failures import Quarantine, ScenarioFailure
from .hyperspace import CoordsKey
from .plugin import ToolPlugin
from .sampling import PluginSampler, TopSet, weighted_choice
from .scenario import ScenarioResult, TestScenario
from .spec import CampaignSpec
from .target import verify_target

#: Cap on the novelty corpus: scenarios that exhibited a never-seen
#: behaviour are kept as extra parent candidates (beyond Pi) up to this
#: many, oldest evicted first.
NOVEL_CORPUS_CAP = 16

#: Attempts at generating a not-yet-explored scenario per iteration (a
#: random draw gets four times as many).
DEDUP_RETRIES = 8


@dataclass(frozen=True)
class ControllerConfig:
    """Tunables of the meta-heuristic (ablation switches included)."""

    #: Capacity of the top-impact set Pi.
    top_set_size: int = 10
    #: Random scenarios executed before mutation starts (battleships
    #: "random shots" phase).
    seed_tests: int = 8
    #: Probability of injecting a fresh random scenario between mutations,
    #: keeping some exploration pressure for the whole campaign.
    random_restart_rate: float = 0.1
    #: Ablation X1: if set, use this fixed mutateDistance instead of the
    #: adaptive ``1 - impact/mu``.
    fixed_mutate_distance: Optional[float] = None
    #: Ablation X2: sample plugins uniformly instead of by fitness gain.
    uniform_plugin_choice: bool = False
    #: Coverage-novelty blend for parent selection: 0 = the paper's pure
    #: impact-weighted sampling (legacy RNG behaviour, bit-for-bit), 1 =
    #: pure novelty. Any positive value turns on coverage capture and
    #: signature tracking (see :mod:`repro.core.coverage`).
    novelty_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.top_set_size < 1:
            raise ValueError("top_set_size must be >= 1")
        if self.seed_tests < 1:
            raise ValueError("seed_tests must be >= 1")
        if not 0.0 <= self.random_restart_rate <= 1.0:
            raise ValueError("random_restart_rate must be in [0, 1]")
        if self.fixed_mutate_distance is not None and not (
            0.0 <= self.fixed_mutate_distance <= 1.0
        ):
            raise ValueError("fixed_mutate_distance must be in [0, 1]")
        if not 0.0 <= self.novelty_weight <= 1.0:
            raise ValueError("novelty_weight must be in [0, 1]")


class TestController(ExplorationStrategy):
    """Feedback-driven scenario generation + execution (Algorithm 1)."""

    name = "avd"

    def __init__(
        self,
        target: Target,
        plugins: Sequence[ToolPlugin],
        seed: int = 0,
        config: ControllerConfig = ControllerConfig(),
    ) -> None:
        if not plugins:
            raise ValueError("the controller needs at least one tool plugin")
        super().__init__(target, plugins, seed)
        self._plugin_by_name = {plugin.name: plugin for plugin in plugins}
        if len(self._plugin_by_name) != len(plugins):
            raise ValueError("duplicate plugin names")
        self.config = config
        verify_target(target)  # fail fast, naming the missing members
        #: Scenario keys banned after terminal failures, with reasons.
        self.quarantine = Quarantine()

        self.top_set = TopSet(capacity=config.top_set_size)  # Pi
        self.pending: Deque[TestScenario] = deque()  # Psi
        #: Companion set of Psi's keys so dedup is O(1), not O(|Psi|).
        self._pending_keys: Set[CoordsKey] = set()
        self.history: Set[CoordsKey] = set()  # Omega
        self.max_impact = 0.0  # mu
        self.plugin_sampler = PluginSampler(
            list(self._plugin_by_name), uniform=config.uniform_plugin_choice
        )
        #: parent impact by child key, for fitness-gain accounting.
        self._parent_impact: Dict[CoordsKey, float] = {}

        #: Novelty blend for this campaign (checkpoints persist it).
        self.novelty_weight: float = config.novelty_weight
        #: The campaign-global seen-behaviour map (coverage signatures).
        self.coverage = CoverageMap()
        #: Coverage signature per executed scenario key.
        self._signatures: Dict[CoordsKey, str] = {}
        #: Feature tuple per parent candidate (Pi and the novelty corpus),
        #: for live novelty re-scoring during parent selection.
        self._features: Dict[CoordsKey, Tuple[str, ...]] = {}
        #: Bounded corpus of scenarios that exhibited never-seen behaviour
        #: (extra parent candidates beyond Pi; insertion-ordered).
        self._novel_corpus: Dict[CoordsKey, ScenarioResult] = {}

    @property
    def coverage_capture(self) -> bool:
        return self.novelty_weight > 0.0

    def settings(self) -> Dict[str, Any]:
        return {"config": dataclasses.asdict(self.config)}

    @classmethod
    def from_settings(cls, target, plugins, seed, settings):
        config = settings.get("config", {})
        known = {f.name for f in dataclasses.fields(ControllerConfig)}
        unknown = sorted(set(config) - known)
        if unknown:
            raise ValueError(
                "checkpoint config carries settings this version does not have: "
                + ", ".join(unknown)
            )
        settings = dict(settings, config=ControllerConfig(**config))
        return super().from_settings(target, plugins, seed, settings)

    # ------------------------------------------------------------------
    # scenario generation (Algorithm 1)
    # ------------------------------------------------------------------
    def generate(self) -> Optional[TestScenario]:
        """Generate one new scenario into Psi; returns it (or None).

        Falls back to a random scenario whenever mutation cannot produce an
        unexplored point (or per the random-restart rate).
        """
        explore_randomly = (
            len(self.results) < self.config.seed_tests
            or not self.top_set.entries
            or self.rng.random() < self.config.random_restart_rate
        )
        if not explore_randomly:
            scenario = self._generate_mutation()
            if scenario is not None:
                self._enqueue(scenario)
                return scenario
        scenario = self._generate_random()
        if scenario is not None:
            self._enqueue(scenario)
        return scenario

    def _enqueue(self, scenario: TestScenario) -> None:
        self.pending.append(self._generated(scenario))
        self._pending_keys.add(scenario.key)

    def _dequeue(self) -> TestScenario:
        scenario = self.pending.popleft()
        self._pending_keys.discard(scenario.key)
        return scenario

    def _sample_parent(self) -> Optional[ScenarioResult]:
        """Line 1 of Algorithm 1, optionally blended with coverage novelty.

        With ``novelty_weight == 0`` this is *exactly* the paper's
        impact-weighted sampling over Pi — same code path, same RNG draws,
        so legacy trajectories stay bit-identical. With a positive weight
        the candidate pool is Pi plus the novelty corpus, and each
        candidate's weight blends its impact (floored, as before) with the
        *current* novelty of its behaviour class — scenarios whose
        behaviour has since become common fade as parents even if their
        impact ranks them high.
        """
        weight = self.novelty_weight
        if weight <= 0.0:
            return self.top_set.sample_by_impact(self.rng)
        candidates = list(self.top_set.entries)
        pi_keys = {entry.key for entry in candidates}
        candidates.extend(
            result for key, result in self._novel_corpus.items() if key not in pi_keys
        )
        if not candidates:
            return None
        weights = [
            (1.0 - weight) * (entry.impact + 0.02)
            + weight * self.coverage.feature_novelty(self._features[entry.key])
            for entry in candidates
        ]
        return weighted_choice(candidates, weights, self.rng)

    def _generate_mutation(self) -> Optional[TestScenario]:
        for _ in range(DEDUP_RETRIES):
            parent = self._sample_parent()  # line 1
            if parent is None:
                return None
            plugin_name = self.plugin_sampler.sample(self.rng)  # line 2
            plugin = self._plugin_by_name[plugin_name]
            if self.config.fixed_mutate_distance is not None:
                distance = self.config.fixed_mutate_distance
            elif self.max_impact <= 0.0:
                distance = 1.0
            else:  # line 3
                distance = 1.0 - parent.impact / self.max_impact
            child_coords = plugin.mutate(  # line 4
                parent.scenario.coords, distance, self.rng, self.target.hyperspace
            )
            scenario = TestScenario(
                coords=child_coords,
                parent_key=parent.key,
                plugin=plugin_name,
                mutate_distance=distance,
                origin="mutation",
            )
            if self._is_new(scenario.key):  # line 5
                self._parent_impact[scenario.key] = parent.impact
                if self.telemetry.active:
                    # Only the accepted attempt is published (dedup retries
                    # would otherwise flood the stream with dead ends).
                    self._publish_mutation(parent, plugin_name, scenario)
                return scenario
        return None

    def _publish_mutation(
        self, parent: ScenarioResult, plugin_name: str, scenario: TestScenario
    ) -> None:
        stats = self.plugin_sampler.stats[plugin_name]
        parent_coords = parent.scenario.coords
        changed = sorted(
            name
            for name, position in scenario.coords.items()
            if parent_coords.get(name) != position
        )
        self.telemetry.publish(
            ParentSelected(
                parent_key=key_dict(parent.key),
                parent_impact=parent.impact,
                mu=self.max_impact,
                top_set_size=len(self.top_set),
            )
        )
        self.telemetry.publish(
            PluginSampled(
                plugin=plugin_name,
                weight=stats.weight,
                selections=stats.selections,
                total_gain=stats.total_gain,
            )
        )
        self.telemetry.publish(
            MutationApplied(
                plugin=plugin_name,
                parent_key=key_dict(parent.key),
                child_key=key_dict(scenario.key),
                mutate_distance=scenario.mutate_distance,
                changed=changed,
            )
        )

    def _generate_random(self) -> Optional[TestScenario]:
        for _ in range(DEDUP_RETRIES * 4):
            coords = self.target.hyperspace.random_coords(self.rng)
            scenario = TestScenario(coords=coords, origin="random")
            if self._is_new(scenario.key):
                return scenario
        return None

    def _is_new(self, key: CoordsKey) -> bool:
        return key not in self.history and key not in self._pending_keys

    # ------------------------------------------------------------------
    # execution (the worker)
    # ------------------------------------------------------------------
    def _absorb(self, result: ScenarioResult) -> None:
        self.history.add(result.key)
        self.results.append(result)
        if isinstance(result, ScenarioFailure):
            # A failure is data, not a parent: it enters Omega and the
            # quarantine, never Pi. The plugin that generated a crasher
            # still pays for it in its fitness-gain stats (zero gain).
            self.quarantine.record(
                result.key, kind=result.kind, error=result.error, attempts=result.attempts
            )
            if self.telemetry.active:
                self.telemetry.publish(
                    FailureClassified(
                        test_index=result.test_index,
                        key=key_dict(result.key),
                        kind=result.kind,
                        error=result.error,
                        attempts=result.attempts,
                    )
                )
        else:
            self.top_set.offer(result)
            if result.impact > self.max_impact:
                self.max_impact = result.impact
            if self.telemetry.active:
                best = self.top_set.best
                self.telemetry.publish(
                    ImpactAbsorbed(
                        test_index=result.test_index,
                        key=key_dict(result.key),
                        impact=result.impact,
                        mu=self.max_impact,
                        best_key=key_dict(best.key) if best is not None else None,
                    )
                )
            if self.novelty_weight > 0.0:
                self._observe_coverage(result)
        if result.scenario.plugin is not None:
            parent_impact = self._parent_impact.pop(result.key, 0.0)
            self.plugin_sampler.record(result.scenario.plugin, parent_impact, result.impact)

    def _observe_coverage(self, result: ScenarioResult) -> None:
        """Fold one measurement into the seen-behaviour map.

        Runs in the parent process only (results cross the worker boundary
        as measurements), in absorption order — so the map's first-seen
        ordering, the novelty scores, and the published ``CoverageObserved``
        events are identical for every worker count.
        """
        features = coverage_mod.extract_features(
            self.target, result.measurement, result.params
        )
        signature = coverage_mod.signature_of(features)
        novel, novelty = self.coverage.observe(signature, features)
        self._signatures[result.key] = signature
        self._features[result.key] = features
        if novel:
            self._novel_corpus[result.key] = result
            while len(self._novel_corpus) > NOVEL_CORPUS_CAP:
                self._novel_corpus.pop(next(iter(self._novel_corpus)))
        # A result becomes a parent candidate now or never, so tuples of
        # keys outside Pi and the corpus can never be read again.
        live = {entry.key for entry in self.top_set.entries}.union(self._novel_corpus)
        self._features = {key: kept for key, kept in self._features.items() if key in live}
        if self.telemetry.active:
            self.telemetry.publish(
                CoverageObserved(
                    test_index=result.test_index,
                    key=key_dict(result.key),
                    signature=signature,
                    novel=novel,
                    seen_total=len(self.coverage),
                    novelty=novelty,
                )
            )

    def run(self, spec: CampaignSpec) -> List[ScenarioResult]:
        """:meth:`ExplorationStrategy.run`, with coverage capture on for a
        campaign that reads it (``novelty_weight > 0``)."""
        # Coverage capture is sampled at deployment construction, so the
        # toggle only needs to cover this run; the previous value is
        # restored on the way out so co-resident campaigns are unaffected.
        capture_before = set_kind_capture(self.coverage_capture)
        try:
            return super().run(spec)
        finally:
            set_kind_capture(capture_before)

    def next_batch(self, room: int) -> List[TestScenario]:
        """Fill Psi up to ``room`` scenarios and dequeue them (fewer once
        the hyperspace is exhausted)."""
        while len(self.pending) < room:
            if self.generate() is None:
                break  # hyperspace exhausted
        return [self._dequeue() for _ in range(min(room, len(self.pending)))]

    def absorb(self, results: List[ScenarioResult]) -> None:
        for result in results:
            self._absorb(result)

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    @property
    def best(self) -> Optional[ScenarioResult]:
        return self.top_set.best


__all__ = ["ControllerConfig", "TestController"]
