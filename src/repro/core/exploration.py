"""Exploration strategies: AVD's fitness-guided search and its baselines.

Figure 2 compares AVD's fitness-guided exploration against random
exploration; Figure 3 uses exhaustive exploration of a subspace. A genetic
algorithm baseline is included as an extra point of comparison (the paper
cites GA-based meta-heuristics [Inkumsah & Xie] as kin of its approach).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import List, Optional, Sequence

from .controller import ControllerConfig, TestController
from .executor import ScenarioExecutor, Target
from .hyperspace import Hyperspace, coords_key
from .parallel import ParallelScenarioExecutor, resolve_workers
from .plugin import ToolPlugin
from .scenario import ScenarioResult, TestScenario
from .spec import CampaignSpec


class ExplorationStrategy:
    """Common interface: run ``budget`` tests, return ordered results.

    ``workers``/``batch_size`` request concurrent scenario execution.
    Strategies whose next test depends on the previous result (annealing,
    generational GAs between generations) are inherently sequential and
    ignore them; for the strategies that do parallelize, the result
    trajectory is independent of ``workers`` (see
    :mod:`repro.core.parallel`).
    """

    name = "strategy"
    #: Strategies with resumable state override this (see AVD).
    supports_checkpoints = False
    #: Strategies whose ``run`` accepts a :class:`CampaignSpec` directly.
    supports_spec = False
    #: Strategies that publish campaign telemetry events (see AVD).
    supports_telemetry = False

    def run(
        self,
        budget: int,
        workers: Optional[int] = 1,
        batch_size: Optional[int] = None,
    ) -> List[ScenarioResult]:
        raise NotImplementedError


class AvdExploration(ExplorationStrategy):
    """The paper's feedback-driven exploration (Algorithm 1)."""

    name = "avd"
    #: The controller's state is checkpointable and resumable.
    supports_checkpoints = True
    supports_spec = True
    #: The controller publishes the full telemetry event stream.
    supports_telemetry = True

    def __init__(
        self,
        target: Target,
        plugins: Sequence[ToolPlugin],
        seed: int = 0,
        config: ControllerConfig = ControllerConfig(),
    ) -> None:
        self.controller = TestController(target, plugins, seed=seed, config=config)

    def run(self, spec: CampaignSpec) -> List[ScenarioResult]:
        return self.controller.run(spec)


class HybridExploration(AvdExploration):
    """Impact + coverage-novelty exploration (greybox-style feedback).

    The same controller as :class:`AvdExploration`, but parent selection
    blends the paper's impact fitness with the novelty of each scenario's
    coverage signature (see :mod:`repro.core.coverage`): scenarios that
    exhibited behaviours nobody else has — rare message interleavings,
    unusual quorum shapes — stay eligible as mutation parents even while
    their impact is still low. ``novelty_weight=0`` degenerates to plain
    AVD, bit-for-bit.
    """

    name = "hybrid"

    #: Default impact/novelty blend when neither the constructor nor the
    #: spec overrides it. Impact-dominant: novelty widens the parent pool,
    #: it does not replace the paper's fitness signal.
    DEFAULT_NOVELTY_WEIGHT = 0.4

    def __init__(
        self,
        target: Target,
        plugins: Sequence[ToolPlugin],
        seed: int = 0,
        config: ControllerConfig = ControllerConfig(),
        novelty_weight: Optional[float] = None,
    ) -> None:
        if novelty_weight is None and config.novelty_weight == 0.0:
            novelty_weight = self.DEFAULT_NOVELTY_WEIGHT
        if novelty_weight is not None:
            config = replace(config, novelty_weight=novelty_weight)
        super().__init__(target, plugins, seed=seed, config=config)


class RandomExploration(ExplorationStrategy):
    """Uniform random sampling of the hyperspace (Figure 2's baseline).

    Scenario generation never looks at results, so the sampled trajectory
    is identical for every ``workers``/``batch_size`` combination.
    """

    name = "random"

    def __init__(self, target: Target, seed: int = 0) -> None:
        self.target = target
        self.seed = seed
        self.rng = random.Random(seed)
        self.results: List[ScenarioResult] = []
        self._seen = set()

    def run(
        self,
        budget: int,
        workers: Optional[int] = 1,
        batch_size: Optional[int] = None,
    ) -> List[ScenarioResult]:
        workers = resolve_workers(workers)
        if batch_size is None:
            batch_size = 2 * workers
        with ParallelScenarioExecutor(
            self.target, campaign_seed=self.seed, workers=workers
        ) as pool:
            while len(self.results) < budget:
                batch: List[TestScenario] = []
                while len(batch) < min(batch_size, budget - len(self.results)):
                    scenario = self._fresh_random()
                    if scenario is None:
                        break
                    self._seen.add(scenario.key)
                    batch.append(scenario)
                if not batch:
                    break
                self.results.extend(
                    pool.execute_batch(batch, start_index=len(self.results))
                )
        return self.results

    def _fresh_random(self) -> Optional[TestScenario]:
        for _ in range(64):
            coords = self.target.hyperspace.random_coords(self.rng)
            if coords_key(coords) not in self._seen:
                return TestScenario(coords=coords, origin="random")
        return None


class ExhaustiveExploration(ExplorationStrategy):
    """Grid sweep of a (restricted) hyperspace — used for Figure 3."""

    name = "exhaustive"

    def __init__(
        self,
        target: Target,
        seed: int = 0,
        hyperspace: Optional[Hyperspace] = None,
    ) -> None:
        self.target = target
        self.campaign_seed = seed
        self.hyperspace = hyperspace if hyperspace is not None else target.hyperspace
        self.results: List[ScenarioResult] = []

    def run(
        self,
        budget: Optional[int] = None,
        workers: Optional[int] = 1,
        batch_size: Optional[int] = None,
    ) -> List[ScenarioResult]:
        workers = resolve_workers(workers)
        # The grid is predetermined, so sweeping it is embarrassingly
        # parallel; batches preserve row-major result order.
        if batch_size is None:
            batch_size = 4 * workers
        grid = self.hyperspace.iter_grid()
        with ParallelScenarioExecutor(
            self.target, campaign_seed=self.campaign_seed, workers=workers
        ) as pool:
            while budget is None or len(self.results) < budget:
                room = batch_size
                if budget is not None:
                    room = min(room, budget - len(self.results))
                batch = [
                    TestScenario(coords=coords, origin="exhaustive")
                    for coords in itertools.islice(grid, room)
                ]
                if not batch:
                    break
                self.results.extend(
                    pool.execute_batch(batch, start_index=len(self.results))
                )
        return self.results


class GeneticExploration(ExplorationStrategy):
    """A simple generational GA baseline (elitism + crossover + mutation)."""

    name = "genetic"

    def __init__(
        self,
        target: Target,
        plugins: Sequence[ToolPlugin],
        seed: int = 0,
        population_size: int = 12,
        elite: int = 3,
        mutation_rate: float = 0.3,
    ) -> None:
        if population_size < 2 or not 1 <= elite < population_size:
            raise ValueError("bad GA parameters")
        self.target = target
        self.plugins = list(plugins)
        self.rng = random.Random(seed)
        self.executor = ScenarioExecutor(target, campaign_seed=seed)
        self.population_size = population_size
        self.elite = elite
        self.mutation_rate = mutation_rate
        self.results: List[ScenarioResult] = []
        self._seen = set()

    def run(
        self,
        budget: int,
        workers: Optional[int] = 1,
        batch_size: Optional[int] = None,
    ) -> List[ScenarioResult]:
        # Generations depend on each other; execution stays sequential.
        population: List[ScenarioResult] = []
        while len(self.results) < budget:
            if not population:
                generation = [self._random_scenario() for _ in range(self.population_size)]
            else:
                generation = self._breed(population)
            evaluated: List[ScenarioResult] = []
            for scenario in generation:
                if scenario is None or len(self.results) >= budget:
                    continue
                result = self.executor.execute(scenario, test_index=len(self.results))
                self._seen.add(result.key)
                self.results.append(result)
                evaluated.append(result)
            pool = population + evaluated
            pool.sort(key=lambda r: r.impact, reverse=True)
            population = pool[: self.population_size]
            if not evaluated:
                break
        return self.results

    def _breed(self, population: List[ScenarioResult]) -> List[Optional[TestScenario]]:
        children: List[Optional[TestScenario]] = []
        parents = population[: max(self.elite, 2)]
        while len(children) < self.population_size:
            mother = self.rng.choice(parents)
            father = self.rng.choice(population)
            coords = {
                name: (mother if self.rng.random() < 0.5 else father).scenario.coords[name]
                for name in self.target.hyperspace.by_name
            }
            if self.rng.random() < self.mutation_rate and self.plugins:
                plugin = self.rng.choice(self.plugins)
                coords = plugin.mutate(coords, 0.2, self.rng, self.target.hyperspace)
            key = coords_key(coords)
            if key in self._seen:
                children.append(self._random_scenario())
            else:
                children.append(TestScenario(coords=coords, origin="mutation"))
        return children

    def _random_scenario(self) -> Optional[TestScenario]:
        for _ in range(64):
            coords = self.target.hyperspace.random_coords(self.rng)
            if coords_key(coords) not in self._seen:
                return TestScenario(coords=coords, origin="random")
        return None


class AnnealingExploration(ExplorationStrategy):
    """Simulated annealing over the hyperspace (another classic baseline).

    A single walker mutates its current scenario through a random plugin;
    worse children are accepted with probability exp(delta / T), and the
    temperature cools geometrically. Included as a second meta-heuristic
    point of comparison (the McMinn survey the paper cites covers both).
    """

    name = "annealing"

    def __init__(
        self,
        target: Target,
        plugins: Sequence[ToolPlugin],
        seed: int = 0,
        initial_temperature: float = 0.4,
        cooling: float = 0.95,
    ) -> None:
        if not plugins:
            raise ValueError("annealing needs at least one plugin")
        if not 0.0 < cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        self.target = target
        self.plugins = list(plugins)
        self.rng = random.Random(seed)
        self.executor = ScenarioExecutor(target, campaign_seed=seed)
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.results: List[ScenarioResult] = []
        self._seen = set()

    def run(
        self,
        budget: int,
        workers: Optional[int] = 1,
        batch_size: Optional[int] = None,
    ) -> List[ScenarioResult]:
        # A single walker: each step needs the previous step's impact.
        import math

        current = self._evaluate(self._random_scenario())
        if current is None:
            return self.results
        temperature = self.initial_temperature
        while len(self.results) < budget:
            plugin = self.rng.choice(self.plugins)
            distance = min(1.0, temperature / self.initial_temperature)
            coords = plugin.mutate(
                current.scenario.coords, distance, self.rng, self.target.hyperspace
            )
            if coords_key(coords) in self._seen:
                candidate = self._evaluate(self._random_scenario())
            else:
                candidate = self._evaluate(
                    TestScenario(coords=coords, plugin=plugin.name, origin="mutation")
                )
            if candidate is None:
                break
            delta = candidate.impact - current.impact
            if delta >= 0 or self.rng.random() < math.exp(delta / max(temperature, 1e-6)):
                current = candidate
            temperature *= self.cooling
        return self.results

    def _evaluate(self, scenario: Optional[TestScenario]) -> Optional[ScenarioResult]:
        if scenario is None:
            return None
        result = self.executor.execute(scenario, test_index=len(self.results))
        self._seen.add(result.key)
        self.results.append(result)
        return result

    def _random_scenario(self) -> Optional[TestScenario]:
        for _ in range(64):
            coords = self.target.hyperspace.random_coords(self.rng)
            if coords_key(coords) not in self._seen:
                return TestScenario(coords=coords, origin="random")
        return None


__all__ = [
    "AnnealingExploration",
    "AvdExploration",
    "ExhaustiveExploration",
    "ExplorationStrategy",
    "GeneticExploration",
    "HybridExploration",
    "RandomExploration",
]
