"""Exploration strategies: AVD's fitness-guided search and its baselines.

Figure 2 compares AVD's fitness-guided exploration against random
exploration; Figure 3 uses exhaustive exploration of a subspace. A genetic
algorithm baseline is included as an extra point of comparison (the paper
cites GA-based meta-heuristics [Inkumsah & Xie] as kin of its approach).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from .campaign import ExplorationStrategy
from .controller import ControllerConfig, TestController
from .executor import Target
from .hyperspace import Hyperspace, coords_key
from .plugin import ToolPlugin
from .scenario import ScenarioResult, TestScenario

#: The paper's feedback-driven exploration (Algorithm 1) is the Test
#: Controller itself.
AvdExploration = TestController


class HybridExploration(TestController):
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

    #: The default config's impact/novelty blend. Impact-dominant: novelty
    #: widens the parent pool, it does not replace the paper's fitness
    #: signal.
    DEFAULT_NOVELTY_WEIGHT = 0.4

    def __init__(
        self,
        target: Target,
        plugins: Sequence[ToolPlugin],
        seed: int = 0,
        config: ControllerConfig = ControllerConfig(novelty_weight=DEFAULT_NOVELTY_WEIGHT),
        novelty_weight: Optional[float] = None,
    ) -> None:
        if novelty_weight is not None:
            config = replace(config, novelty_weight=novelty_weight)
        super().__init__(target, plugins, seed=seed, config=config)


class _OpenLoopExploration(ExplorationStrategy):
    """Strategies whose next scenario never depends on a result.

    Generation is open-loop, so the trajectory is identical for every
    ``workers``/``hosts``/``batch_size`` combination and batches only
    bound how much is in flight; results keep generation order.
    """

    def _next_scenario(self) -> Optional[TestScenario]:
        """The next scenario to execute, or None when there is none left."""
        raise NotImplementedError

    def next_batch(self, room: int) -> List[TestScenario]:
        return [
            self._generated(scenario)
            for scenario in itertools.islice(iter(self._next_scenario, None), room)
        ]


class RandomExploration(_OpenLoopExploration):
    """Uniform random sampling of the hyperspace (Figure 2's baseline)."""

    name = "random"

    def _next_scenario(self) -> Optional[TestScenario]:
        scenario = self._random_scenario()
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
        plugins: Sequence[ToolPlugin] = (),
        seed: int = 0,
        hyperspace: Optional[Hyperspace] = None,
    ) -> None:
        super().__init__(target, plugins, seed)
        self.hyperspace = hyperspace if hyperspace is not None else target.hyperspace
        self._grid = (
            TestScenario(coords=coords, origin="exhaustive")
            for coords in self.hyperspace.iter_grid()
        )

    def settings(self) -> Dict[str, Any]:
        if self.hyperspace is not self.target.hyperspace:
            # Coordinates are positions: a restored sweep of the target's
            # grid would replay this one's without a mismatch, then go on
            # sweeping the wrong grid.
            raise ValueError("a sweep of a restricted hyperspace cannot be checkpointed")
        return {}

    def _next_scenario(self) -> Optional[TestScenario]:
        return next(self._grid, None)


class GeneticExploration(ExplorationStrategy):
    """A simple generational GA baseline (elitism + crossover + mutation).

    Generations depend on each other: a generation is one batch.
    """

    name = "genetic"
    #: Probability that a child is also mutated, through a random plugin.
    MUTATION_RATE = 0.3

    def __init__(
        self,
        target: Target,
        plugins: Sequence[ToolPlugin],
        seed: int = 0,
        population_size: int = 12,
        elite: int = 3,
    ) -> None:
        if population_size < 2 or not 1 <= elite < population_size:
            raise ValueError("bad GA parameters")
        super().__init__(target, plugins, seed)
        self.population_size = self.fixed_batch_size = population_size
        self.elite = elite
        #: The current generation's best, ranked by impact (empty: random).
        self._population: List[ScenarioResult] = []

    def settings(self) -> Dict[str, Any]:
        return {"population_size": self.population_size, "elite": self.elite}

    def next_batch(self, room: int) -> List[TestScenario]:
        if not self._population:
            generation = [
                self._propose(self._random_scenario()) for _ in range(self.population_size)
            ]
        else:
            generation = self._breed(self._population)
        proposed = [scenario for scenario in generation if scenario is not None]
        return [self._generated(scenario) for scenario in proposed[:room]]

    def _propose(self, scenario: Optional[TestScenario]) -> Optional[TestScenario]:
        """Record a proposal in ``_seen`` as it is made, so no key repeats
        within a generation either."""
        if scenario is not None:
            self._seen.add(scenario.key)
        return scenario

    def absorb(self, evaluated: List[ScenarioResult]) -> None:
        self.results.extend(evaluated)
        # A failure is data, not a parent (as in the controller's Pi).
        ranked = self._population + [result for result in evaluated if not result.failed]
        ranked.sort(key=lambda r: r.impact, reverse=True)
        self._population = ranked[: self.population_size]

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
            if self.rng.random() < self.MUTATION_RATE and self.plugins:
                plugin = self.rng.choice(self.plugins)
                coords = plugin.mutate(coords, 0.2, self.rng, self.target.hyperspace)
            if coords_key(coords) in self._seen:
                child = self._random_scenario()
            else:
                child = TestScenario(coords=coords, parent_key=mother.key, origin="mutation")
            children.append(self._propose(child))
        return children


class AnnealingExploration(ExplorationStrategy):
    """Simulated annealing over the hyperspace (another classic baseline).

    A single walker mutates its current scenario through a random plugin;
    worse children are accepted with probability exp(delta / T), and the
    temperature cools geometrically. Each step needs the previous step's
    impact, so a batch is one step. Included as a second meta-heuristic
    point of comparison (the McMinn survey the paper cites covers both).
    """

    name = "annealing"
    fixed_batch_size = 1
    #: The walker's starting temperature.
    INITIAL_TEMPERATURE = 0.4

    def __init__(
        self,
        target: Target,
        plugins: Sequence[ToolPlugin],
        seed: int = 0,
        cooling: float = 0.95,
    ) -> None:
        if not plugins:
            raise ValueError("annealing needs at least one plugin")
        if not 0.0 < cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        super().__init__(target, plugins, seed)
        self.cooling = cooling
        #: The walker's position (None until the first, random, step).
        self._current: Optional[ScenarioResult] = None
        self._temperature = self.INITIAL_TEMPERATURE

    def settings(self) -> Dict[str, Any]:
        return {"cooling": self.cooling}

    def next_batch(self, room: int) -> List[TestScenario]:
        if self._current is None:
            scenario = self._random_scenario()
        else:
            plugin = self.rng.choice(self.plugins)
            distance = min(1.0, self._temperature / self.INITIAL_TEMPERATURE)
            coords = plugin.mutate(
                self._current.scenario.coords, distance, self.rng, self.target.hyperspace
            )
            if coords_key(coords) in self._seen:
                scenario = self._random_scenario()
            else:
                scenario = TestScenario(
                    coords=coords,
                    parent_key=self._current.key,
                    plugin=plugin.name,
                    mutate_distance=distance,
                    origin="mutation",
                )
        return [self._generated(scenario)] if scenario is not None else []

    def absorb(self, evaluated: List[ScenarioResult]) -> None:
        (candidate,) = evaluated
        self._seen.add(candidate.key)
        self.results.append(candidate)
        if self._current is None:
            self._current = candidate
            return
        delta = candidate.impact - self._current.impact
        if delta >= 0 or self.rng.random() < math.exp(delta / max(self._temperature, 1e-6)):
            self._current = candidate
        self._temperature *= self.cooling


#: Strategy name -> class: what ``--strategy`` offers, a checkpoint header
#: names and restore rebuilds.
STRATEGIES = {
    strategy.name: strategy
    for strategy in (
        AvdExploration,
        HybridExploration,
        RandomExploration,
        ExhaustiveExploration,
        GeneticExploration,
        AnnealingExploration,
    )
}


__all__ = [
    "AnnealingExploration",
    "AvdExploration",
    "ExhaustiveExploration",
    "ExplorationStrategy",
    "GeneticExploration",
    "HybridExploration",
    "RandomExploration",
    "STRATEGIES",
]
