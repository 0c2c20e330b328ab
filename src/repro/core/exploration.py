"""Exploration strategies: AVD's fitness-guided search and its baselines.

Figure 2 compares AVD's fitness-guided exploration against random
exploration; Figure 3 uses exhaustive exploration of a subspace. A genetic
algorithm baseline is included as an extra point of comparison (the paper
cites GA-based meta-heuristics [Inkumsah & Xie] as kin of its approach).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import replace
from typing import List, Optional, Sequence, Set

from .controller import ControllerConfig, TestController
from .executor import Target
from .hyperspace import CoordsKey, Hyperspace, coords_key
from .parallel import ParallelScenarioExecutor
from .plugin import ToolPlugin
from .scenario import ScenarioResult, TestScenario
from .spec import CampaignSpec


def fresh_random_scenario(
    hyperspace: Hyperspace, rng: random.Random, seen: Set[CoordsKey]
) -> Optional[TestScenario]:
    """A uniformly drawn scenario whose key is not in ``seen`` (64 tries)."""
    for _ in range(64):
        coords = hyperspace.random_coords(rng)
        if coords_key(coords) not in seen:
            return TestScenario(coords=coords, origin="random")
    return None


class ExplorationStrategy:
    """Common interface: run a :class:`CampaignSpec`, return ordered results.

    ``spec.workers``/``hosts``/``batch_size`` request concurrent scenario
    execution. A strategy uses what its feedback loop allows: annealing
    needs each result before the next test (batches of one), the GA runs
    one batch per generation. The result trajectory is independent of
    where scenarios run (see :mod:`repro.core.parallel`), and every
    strategy shares that module's failure contract: a crashing scenario is
    a zero-impact ``ScenarioFailure`` result, never an exception.
    """

    name = "strategy"

    def run(self, spec: CampaignSpec) -> List[ScenarioResult]:
        raise NotImplementedError

    def _refuse_campaign_state(self, spec: CampaignSpec) -> None:
        """Called first by strategies with no resumable state and no bus."""
        if spec.checkpoint_path is not None:
            raise ValueError(
                f"strategy {self.name!r} does not support checkpointing "
                "(only 'avd' campaigns are resumable)"
            )
        if spec.telemetry is not None:
            raise ValueError(
                f"strategy {self.name!r} does not publish telemetry "
                "(only 'avd' campaigns carry the event bus)"
            )


class AvdExploration(ExplorationStrategy):
    """The paper's feedback-driven exploration (Algorithm 1)."""

    name = "avd"

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
    #: config sets one. Impact-dominant: novelty widens the parent pool,
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


class _OpenLoopExploration(ExplorationStrategy):
    """Strategies whose next scenario never depends on a result.

    Generation is open-loop, so the trajectory is identical for every
    ``workers``/``hosts``/``batch_size`` combination and batches only
    bound how much is in flight; results keep generation order.
    """

    def __init__(self, target: Target, seed: int) -> None:
        self.target = target
        self.seed = seed
        self.results: List[ScenarioResult] = []

    def _next_scenario(self) -> Optional[TestScenario]:
        """The next scenario to execute, or None when there is none left."""
        raise NotImplementedError

    def run(self, spec: CampaignSpec) -> List[ScenarioResult]:
        self._refuse_campaign_state(spec)
        with ParallelScenarioExecutor(
            self.target, campaign_seed=self.seed, workers=spec.workers, hosts=spec.hosts
        ) as pool:
            batch_size = spec.batch_size or pool.default_batch_size
            while len(self.results) < spec.budget:
                room = min(batch_size, spec.budget - len(self.results))
                batch = list(itertools.islice(iter(self._next_scenario, None), room))
                if not batch:
                    break
                self.results.extend(
                    pool.execute_batch_isolated(batch, start_index=len(self.results))
                )
        return self.results


class RandomExploration(_OpenLoopExploration):
    """Uniform random sampling of the hyperspace (Figure 2's baseline)."""

    name = "random"

    def __init__(self, target: Target, seed: int = 0) -> None:
        super().__init__(target, seed)
        self.rng = random.Random(seed)
        self._seen: Set[CoordsKey] = set()

    def _next_scenario(self) -> Optional[TestScenario]:
        scenario = fresh_random_scenario(self.target.hyperspace, self.rng, self._seen)
        if scenario is not None:
            self._seen.add(scenario.key)
        return scenario


class ExhaustiveExploration(_OpenLoopExploration):
    """Row-major grid sweep of a (restricted) hyperspace — used for Figure 3.

    ``budget=hyperspace.size`` sweeps the whole grid.
    """

    name = "exhaustive"

    def __init__(
        self,
        target: Target,
        seed: int = 0,
        hyperspace: Optional[Hyperspace] = None,
    ) -> None:
        super().__init__(target, seed)
        self.hyperspace = hyperspace if hyperspace is not None else target.hyperspace
        self._grid = (
            TestScenario(coords=coords, origin="exhaustive")
            for coords in self.hyperspace.iter_grid()
        )

    def _next_scenario(self) -> Optional[TestScenario]:
        return next(self._grid, None)


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
        self.seed = seed
        self.rng = random.Random(seed)
        self.population_size = population_size
        self.elite = elite
        self.mutation_rate = mutation_rate
        self.results: List[ScenarioResult] = []
        self._seen = set()

    def run(self, spec: CampaignSpec) -> List[ScenarioResult]:
        # Generations depend on each other; a generation is one batch.
        self._refuse_campaign_state(spec)
        budget = spec.budget
        population: List[ScenarioResult] = []
        with ParallelScenarioExecutor(
            self.target, campaign_seed=self.seed, workers=spec.workers, hosts=spec.hosts
        ) as pool:
            while len(self.results) < budget:
                if not population:
                    generation = [self._random_scenario() for _ in range(self.population_size)]
                else:
                    generation = self._breed(population)
                batch = [scenario for scenario in generation if scenario is not None]
                evaluated = pool.execute_batch_isolated(
                    batch[: budget - len(self.results)], start_index=len(self.results)
                )
                if not evaluated:
                    break
                self._seen.update(result.key for result in evaluated)
                self.results.extend(evaluated)
                # A failure is data, not a parent (as in the controller's Pi).
                ranked = population + [result for result in evaluated if not result.failed]
                ranked.sort(key=lambda r: r.impact, reverse=True)
                population = ranked[: self.population_size]
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
        return fresh_random_scenario(self.target.hyperspace, self.rng, self._seen)


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
        # No workers: a single walker needs each step's impact before the
        # next, and a batch of one never leaves this process anyway.
        self.pool = ParallelScenarioExecutor(target, campaign_seed=seed)
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.results: List[ScenarioResult] = []
        self._seen = set()

    def run(self, spec: CampaignSpec) -> List[ScenarioResult]:
        # A single walker: each step needs the previous step's impact.
        self._refuse_campaign_state(spec)
        budget = spec.budget
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
        (result,) = self.pool.execute_batch_isolated([scenario], start_index=len(self.results))
        self._seen.add(result.key)
        self.results.append(result)
        return result

    def _random_scenario(self) -> Optional[TestScenario]:
        return fresh_random_scenario(self.target.hyperspace, self.rng, self._seen)


__all__ = [
    "AnnealingExploration",
    "AvdExploration",
    "ExhaustiveExploration",
    "ExplorationStrategy",
    "GeneticExploration",
    "HybridExploration",
    "RandomExploration",
]
