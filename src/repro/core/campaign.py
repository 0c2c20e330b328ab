"""Campaign orchestration and result aggregation.

A *campaign* runs one exploration strategy for a test budget and keeps the
ordered results; aggregation helpers produce the curves the paper plots
(Figure 2: per-test average latency and throughput for AVD vs random) and
convergence statistics (tests until an impact threshold — the paper's
"few tens of iterations" claim and the Sec. 4 difficulty estimate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from . import snapshot
from .exploration import ExplorationStrategy
from .scenario import ScenarioResult
from .spec import CampaignSpec


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
    (``workers``/``hosts``, the backstop, the retry budget). AVD, random and
    exhaustive batch at ``batch_size``, the GA one generation and annealing
    one step at a time; the result trajectory depends only on ``(seed,
    batch_size)``, never on where the scenarios ran. ``checkpoint_path``
    (periodic resumable state) and ``telemetry`` (the campaign event bus)
    need a strategy that carries that state — currently AVD; the others
    refuse them with ``ValueError``.
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


__all__ = ["CampaignResult", "compare_campaigns", "run_campaign"]
