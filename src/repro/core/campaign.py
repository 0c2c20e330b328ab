"""Campaign orchestration and result aggregation.

A *campaign* runs one exploration strategy for a test budget and keeps the
ordered results; aggregation helpers produce the curves the paper plots
(Figure 2: per-test average latency and throughput for AVD vs random) and
convergence statistics (tests until an impact threshold — the paper's
"few tens of iterations" claim and the Sec. 4 difficulty estimate).

:class:`ExplorationStrategy` is the one search contract: how a campaign
runs, publishes, checkpoints and resumes is written here once, for every
strategy.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..telemetry.bus import TelemetryBus
from ..telemetry.events import CheckpointWritten, ScenarioGenerated, key_dict
from . import snapshot
from .executor import Target
from .hyperspace import CoordsKey, coords_key
from .parallel import campaign_executor, run_batches
from .plugin import ToolPlugin
from .scenario import ScenarioResult, TestScenario
from .spec import CampaignSpec


class ExplorationStrategy:
    """Common interface: run a :class:`CampaignSpec`, return ordered results.

    A strategy is built from ``(target, plugins, seed)`` plus the settings
    :meth:`settings` names, and supplies :meth:`next_batch` and
    :meth:`absorb`; everything else is this class's. Every strategy runs
    the one campaign loop on the one executor built from the spec (see
    :mod:`repro.core.parallel`), publishes on the spec's bus, checkpoints
    and resumes. Annealing needs each result before the next test
    (batches of one), the GA runs one batch per generation; both refuse
    any other ``batch_size``. The trajectory is independent of where
    scenarios run, and a crashing scenario is a zero-impact
    ``ScenarioFailure`` result, never an exception.
    """

    name = "strategy"
    #: The batch size a strategy's search needs (None: the spec's).
    fixed_batch_size: Optional[int] = None
    #: Whether deployments capture message kinds (coverage) this campaign.
    coverage_capture = False
    #: Scenarios generated but not yet executed (the controller's Psi).
    pending: Sequence[TestScenario] = ()

    def __init__(
        self, target: Target, plugins: Sequence[ToolPlugin] = (), seed: int = 0
    ) -> None:
        self.target = target
        self.plugins = list(plugins)
        self.seed = seed
        self.rng = random.Random(seed)
        self.results: List[ScenarioResult] = []
        #: Keys already drawn or executed, as each strategy defines it.
        self._seen: Set[CoordsKey] = set()
        #: The campaign event bus (inert until a sink is attached; a
        #: CampaignSpec's bus replaces it at run time).
        self.telemetry = TelemetryBus()
        #: Sequence cursor restored from a checkpoint: the bus is
        #: fast-forwarded past it so a resumed stream never reuses numbers.
        self._telemetry_seq_floor = 0
        #: Opaque caller context (e.g. CLI target/tool flags) embedded in
        #: every checkpoint so ``repro resume`` can rebuild the campaign.
        self.checkpoint_context: Dict[str, object] = {}
        self._last_checkpoint_at: int = 0
        self._run_params: Dict[str, object] = {}
        #: ``(run params, results so far, telemetry cursor)`` per checkpoint
        #: record written or replayed, and the file this run appends them
        #: to (None until the run's first write has rewritten it whole).
        self._checkpoint_log: List[Tuple[Dict[str, object], int, int]] = []
        self._checkpoint_file: Optional[str] = None

    def next_batch(self, room: int) -> List[TestScenario]:
        """At most ``room`` scenarios to execute next (none ends the campaign)."""
        raise NotImplementedError

    def absorb(self, results: List[ScenarioResult]) -> None:
        """Learn from a batch's results and append them to :attr:`results`
        (a strategy that learns nothing only appends)."""
        self.results.extend(results)

    def settings(self) -> Dict[str, Any]:
        """Constructor keywords besides target, plugins and seed, as JSON
        values: a checkpoint records them and restore passes them back.
        Raises ``ValueError`` for a strategy no checkpoint can describe."""
        return {}

    @classmethod
    def from_settings(
        cls, target: Target, plugins: Sequence[ToolPlugin], seed: int, settings: Dict[str, Any]
    ) -> "ExplorationStrategy":
        """The strategy a checkpoint header describes, before replay."""
        unknown = sorted(set(settings) - set(inspect.signature(cls).parameters))
        if unknown:
            raise ValueError(
                f"checkpoint settings {', '.join(unknown)} are not strategy {cls.name!r}'s"
            )
        return cls(target, plugins, seed=seed, **settings)

    def _generated(self, scenario: TestScenario) -> TestScenario:
        """Publish ``scenario`` as proposed (``ScenarioGenerated``); return it."""
        if self.telemetry.active:
            parent = scenario.parent_key
            self.telemetry.publish(
                ScenarioGenerated(
                    key=key_dict(scenario.key),
                    origin=scenario.origin,
                    coords=dict(scenario.coords),
                    plugin=scenario.plugin,
                    parent_key=key_dict(parent) if parent is not None else None,
                    mutate_distance=scenario.mutate_distance,
                )
            )
        return scenario

    def _random_scenario(self) -> Optional[TestScenario]:
        """A uniformly drawn scenario whose key is not in ``_seen`` (64 tries)."""
        for _ in range(64):
            coords = self.target.hyperspace.random_coords(self.rng)
            if coords_key(coords) not in self._seen:
                return TestScenario(coords=coords, origin="random")
        return None

    def run(self, spec: CampaignSpec) -> List[ScenarioResult]:
        """Run a campaign described by a :class:`CampaignSpec`.

        The loop is :func:`~repro.core.parallel.run_batches`: this strategy
        generates each batch (:meth:`next_batch`) and absorbs its results
        (:meth:`absorb`). With ``batch_size=1`` AVD is the paper's strictly
        sequential Algorithm 1 loop; larger batches trade a little guidance
        staleness — siblings are generated before their predecessors'
        impacts are known — for parallel execution. Where and how
        scenarios execute (``workers``, ``hosts``, ``batch_size``,
        ``scenario_timeout``, ``max_attempts``) is the spec's (see
        :class:`~repro.core.spec.CampaignSpec`). Besides:

        - ``checkpoint_path`` makes the run crash-safe across process
          death: a checkpoint record is written at least every
          ``checkpoint_every`` executed scenarios, and once more when the
          budget completes (the run's first write rewrites the file
          atomically, later ones append); a strategy restored from it
          (``restore_controller`` / ``repro resume``) continues the
          campaign bit-identically to an uninterrupted run.
        - ``telemetry`` attaches a :class:`~repro.telemetry.TelemetryBus`:
          every proposal and execution (and, for AVD, every absorption
          step) is published as a typed event, from the parent process
          only, so the stream for a fixed ``(seed, batch_size)`` is
          byte-identical regardless of worker count.
        - ``budget`` is the campaign total: a restored strategy that has
          already executed ``n`` scenarios runs ``budget - n`` more.

        Determinism: the exploration trajectory is a pure function of
        ``(seed, batch_size)`` — the worker count only changes wall-clock
        time, never the results (see ``tests/core/test_parallel.py``).
        """
        fixed = self.fixed_batch_size
        if fixed is not None and spec.batch_size not in (None, fixed):
            raise ValueError(
                f"strategy {self.name!r} runs batches of {fixed}, not {spec.batch_size}"
            )
        if spec.telemetry is not None:
            self.telemetry = spec.telemetry
        if self.telemetry.seq < self._telemetry_seq_floor:
            # Resume: never reuse sequence numbers the checkpointed stream
            # already assigned (the JSONL sink appends past them).
            self.telemetry.seq = self._telemetry_seq_floor
        self._last_checkpoint_at = len(self.results)
        self._checkpoint_file = None

        def absorb(results: List[ScenarioResult]) -> None:
            self.absorb(results)
            if spec.checkpoint_path is not None and (
                len(self.results) - self._last_checkpoint_at >= spec.checkpoint_every
            ):
                self._write_checkpoint(spec.checkpoint_path)

        with campaign_executor(
            self.target, self.seed, spec, self.telemetry, self.coverage_capture
        ) as pool:
            batch_size = fixed or spec.batch_size or pool.default_batch_size
            # The spec's execution fields, resolved: resume runs this spec.
            self._run_params = dict(
                budget=spec.budget, workers=pool.workers, batch_size=batch_size,
                checkpoint_every=spec.checkpoint_every, hosts=list(pool.hosts),
                scenario_timeout=spec.scenario_timeout, max_attempts=spec.max_attempts,
            )
            run_batches(pool, self.results, spec.budget, batch_size, self.next_batch, absorb)
        if spec.checkpoint_path is not None:
            self._write_checkpoint(spec.checkpoint_path)  # final state, resume-safe
        return self.results

    def _write_checkpoint(self, path: str) -> None:
        from .persistence import save_checkpoint  # lazy: avoids import cycle

        if self.telemetry.active:
            # Published *before* saving so the checkpointed telemetry
            # cursor covers this event too: a resumed stream continues at
            # the exact sequence number after it.
            self.telemetry.publish(
                CheckpointWritten(
                    path=str(path),
                    results=len(self.results),
                    pending=len(self.pending),
                )
            )
        save_checkpoint(self, path)
        self._last_checkpoint_at = len(self.results)


@dataclass
class CampaignResult:
    """Ordered results of one exploration campaign."""

    strategy: str
    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def best(self) -> Optional[ScenarioResult]:
        if not self.results:
            return None
        return max(self.results, key=lambda r: r.impact)

    def impacts(self) -> List[float]:
        return [result.impact for result in self.results]

    def best_so_far(self) -> List[float]:
        curve: List[float] = []
        best = 0.0
        for result in self.results:
            best = max(best, result.impact)
            curve.append(best)
        return curve

    def tests_to_reach(self, impact_threshold: float) -> Optional[int]:
        """1-based index of the first test reaching the threshold."""
        for index, result in enumerate(self.results, start=1):
            if result.impact >= impact_threshold:
                return index
        return None

    def failures(self) -> List[ScenarioResult]:
        """The scenarios that failed (see :mod:`repro.core.failures`)."""
        return [result for result in self.results if result.failed]

    def measurement_series(self, attribute: str, default: float = 0.0) -> List[float]:
        """Per-test series of a measurement attribute (e.g. throughput).

        This is what Figure 2 plots: the throughput/latency each executed
        test *induced*, in execution order.
        """
        series: List[float] = []
        for result in self.results:
            series.append(float(getattr(result.measurement, attribute, default)))
        return series

    def smoothed(self, series: Sequence[float], window: int = 10) -> List[float]:
        """Trailing moving average, for readable figure output."""
        if window < 1:
            raise ValueError("window must be >= 1")
        out: List[float] = []
        acc = 0.0
        for index, value in enumerate(series):
            acc += value
            if index >= window:
                acc -= series[index - window]
            out.append(acc / min(index + 1, window))
        return out


def run_campaign(strategy: ExplorationStrategy, spec: CampaignSpec) -> CampaignResult:
    """Run a strategy to its spec'd budget and wrap the results.

    This is the one front door: every strategy's ``run`` takes the spec and
    nothing else, and runs its scenarios where and as the spec says
    (``workers``/``hosts``, the backstop, the retry budget, checkpoints,
    the event bus). AVD, random and exhaustive batch at ``batch_size``, the
    GA one generation and annealing one step at a time; the result
    trajectory depends only on ``(seed, batch_size)``, never on where the
    scenarios ran.
    """
    try:
        results = strategy.run(spec)
    finally:
        # The strategy has closed its executor by now; say what the
        # snapshot cache did for (or to) this campaign.
        snapshot.cache().log_summary()
    return CampaignResult(strategy=strategy.name, results=list(results))


def compare_campaigns(
    campaigns: Sequence[CampaignResult], impact_threshold: float = 0.8
) -> Dict[str, Dict[str, object]]:
    """Side-by-side summary used by the benchmark harness."""
    summary: Dict[str, Dict[str, object]] = {}
    for campaign in campaigns:
        best = campaign.best
        summary[campaign.strategy] = {
            "tests": len(campaign.results),
            "best_impact": best.impact if best else 0.0,
            "best_params": dict(best.params) if best else {},
            "tests_to_threshold": campaign.tests_to_reach(impact_threshold),
            "mean_impact": (
                sum(campaign.impacts()) / len(campaign.results) if campaign.results else 0.0
            ),
            "failures": len(campaign.failures()),
        }
    return summary


__all__ = ["CampaignResult", "ExplorationStrategy", "compare_campaigns", "run_campaign"]
