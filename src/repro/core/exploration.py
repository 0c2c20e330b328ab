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
from .parallel import campaign_executor, run_batches
from .plugin import ToolPlugin
from .scenario import ScenarioResult, TestScenario
from .spec import CampaignSpec


class ExplorationStrategy:
    """Common interface: run a :class:`CampaignSpec`, return ordered results.

    Every strategy runs the one campaign loop on the one executor built
    from the spec (see :mod:`repro.core.parallel`), supplying only its next
    batch and what it learns from the results. Annealing needs each result
    before the next test (batches of one), the GA runs one batch per
    generation; both refuse any other ``batch_size``. The trajectory is
    independent of where scenarios run, and a crashing scenario is a
    zero-impact ``ScenarioFailure`` result, never an exception.
    """

    name = "strategy"

    def __init__(self, target: Target, seed: int = 0) -> None:
        self.target = target
        self.seed = seed
        self.rng = random.Random(seed)
        self.results: List[ScenarioResult] = []
        #: Keys already drawn or executed, as each strategy defines it.
        self._seen: Set[CoordsKey] = set()

    def run(self, spec: CampaignSpec) -> List[ScenarioResult]:
        raise NotImplementedError

    def _random_scenario(self) -> Optional[TestScenario]:
        """A uniformly drawn scenario whose key is not in ``_seen`` (64 tries)."""
        for _ in range(64):
            coords = self.target.hyperspace.random_coords(self.rng)
            if coords_key(coords) not in self._seen:
                return TestScenario(coords=coords, origin="random")
        return None

    def _refuse_campaign_state(self, spec: CampaignSpec, batch_size: Optional[int]) -> None:
        """Refuse what a strategy with no resumable state, no bus and (if
        given) a fixed ``batch_size`` cannot honour."""
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
        if batch_size is not None and spec.batch_size not in (None, batch_size):
            raise ValueError(
                f"strategy {self.name!r} runs batches of {batch_size}, not {spec.batch_size}"
            )

    def _drive(self, spec, next_batch, absorb, batch_size=None) -> List[ScenarioResult]:
        self._refuse_campaign_state(spec, batch_size)
        with campaign_executor(self.target, self.seed, spec) as pool:
            run_batches(
                pool, self.results, spec.budget,
                batch_size or spec.batch_size or pool.default_batch_size,
                next_batch, absorb,
            )
        return self.results


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

    def _next_scenario(self) -> Optional[TestScenario]:
        """The next scenario to execute, or None when there is none left."""
        raise NotImplementedError

    def _next_batch(self, room: int) -> List[TestScenario]:
        return list(itertools.islice(iter(self._next_scenario, None), room))

    def run(self, spec: CampaignSpec) -> List[ScenarioResult]:
        return self._drive(spec, self._next_batch, self.results.extend)


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
        super().__init__(target, seed)
        self.plugins = list(plugins)
        self.population_size = population_size
        self.elite = elite
        self.mutation_rate = mutation_rate
        #: The current generation's best, ranked by impact (empty: random).
        self._population: List[ScenarioResult] = []

    def run(self, spec: CampaignSpec) -> List[ScenarioResult]:
        # Generations depend on each other; a generation is one batch.
        return self._drive(spec, self._next_generation, self._absorb, self.population_size)

    def _next_generation(self, room: int) -> List[TestScenario]:
        if not self._population:
            generation = [
                self._propose(self._random_scenario()) for _ in range(self.population_size)
            ]
        else:
            generation = self._breed(self._population)
        return [scenario for scenario in generation if scenario is not None][:room]

    def _propose(self, scenario: Optional[TestScenario]) -> Optional[TestScenario]:
        """Record a proposal in ``_seen`` as it is made, so no key repeats
        within a generation either."""
        if scenario is not None:
            self._seen.add(scenario.key)
        return scenario

    def _absorb(self, evaluated: List[ScenarioResult]) -> None:
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
            if self.rng.random() < self.mutation_rate and self.plugins:
                plugin = self.rng.choice(self.plugins)
                coords = plugin.mutate(coords, 0.2, self.rng, self.target.hyperspace)
            if coords_key(coords) in self._seen:
                child = self._random_scenario()
            else:
                child = TestScenario(coords=coords, origin="mutation")
            children.append(self._propose(child))
        return children


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
        super().__init__(target, seed)
        self.plugins = list(plugins)
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        #: The walker's position (None until the first, random, step).
        self._current: Optional[ScenarioResult] = None
        self._temperature = initial_temperature

    def run(self, spec: CampaignSpec) -> List[ScenarioResult]:
        # A single walker: each step needs the previous step's impact.
        return self._drive(spec, self._next_step, self._absorb, batch_size=1)

    def _next_step(self, room: int) -> List[TestScenario]:
        if self._current is None:
            scenario = self._random_scenario()
        else:
            plugin = self.rng.choice(self.plugins)
            distance = min(1.0, self._temperature / self.initial_temperature)
            coords = plugin.mutate(
                self._current.scenario.coords, distance, self.rng, self.target.hyperspace
            )
            if coords_key(coords) in self._seen:
                scenario = self._random_scenario()
            else:
                scenario = TestScenario(coords=coords, plugin=plugin.name, origin="mutation")
        return [scenario] if scenario is not None else []

    def _absorb(self, evaluated: List[ScenarioResult]) -> None:
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


__all__ = [
    "AnnealingExploration",
    "AvdExploration",
    "ExhaustiveExploration",
    "ExplorationStrategy",
    "GeneticExploration",
    "HybridExploration",
    "RandomExploration",
]
