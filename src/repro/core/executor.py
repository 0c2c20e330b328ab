"""Scenario execution: target adapters and the test worker.

Sec. 3: "A worker thread dequeues scenarios from Psi, instantiates the test
configuration (using the plugins), executes the test and computes the
impact." Tests are independent; the target re-initializes the distributed
system for every test (a fresh simulator per run), so execution order never
contaminates measurements.

Two execution entry points:

- :meth:`ScenarioExecutor.execute_isolated` is the campaign contract, the
  only one the execution fabric calls: target exceptions, impact-contract
  violations, and event-budget overruns are classified (see
  :mod:`repro.core.failures`) and converted into zero-impact
  :class:`ScenarioFailure` results. Each is a pure function of the
  scenario, so there is one attempt and no retry.
- :meth:`ScenarioExecutor.execute` is the raw re-execution oracle: any
  target exception propagates. No campaign runs through it; the
  benchmark's re-execution check and the tests compare against it.

An executor has no bus: ``ScenarioExecuted`` is published in one place,
``ParallelScenarioExecutor._publish_batch``, in the controller's process.
"""

from __future__ import annotations

import logging
import math
from typing import Dict, Optional

from ..sim.rng import derive_seed
from ..sim.simulator import EventBudgetExceeded
from ..telemetry.bus import TelemetryBus
from ..telemetry.events import ScenarioExecuted, key_dict
from . import snapshot as snapshot_mod
from .failures import (
    HARNESS_BUG,
    FailureSignal,
    ScenarioFailure,
    TARGET_FAULT,
    TIMEOUT,
    describe_exception,
)
from .scenario import ScenarioResult, TestScenario
from .target import Target, verify_target

#: Operator-facing diagnostics (stderr). Nothing logged here ever enters
#: results, checkpoints or the canonical telemetry stream.
_LOG = logging.getLogger(__name__)


class ScenarioExecutor:
    """Executes scenarios against a target, deterministically per scenario.

    Each scenario's simulation seed derives from the campaign seed and the
    scenario's coordinates, so re-running an already-explored point (which
    the Omega dedup set prevents anyway) would reproduce the same result —
    and a scenario re-driven after its worker was lost re-executes the
    identical test.
    """

    def __init__(self, target: Target, campaign_seed: int = 0) -> None:
        verify_target(target)  # fail fast, naming the missing members
        self.target = target
        self.campaign_seed = campaign_seed
        self.executed = 0
        #: Terminal scenario failures produced through the isolated path.
        self.failures = 0

    def scenario_seed(self, scenario: TestScenario, params: Dict[str, object]) -> int:
        """The simulation seed for one scenario.

        By default every scenario gets a private seed derived from its
        coordinates. A target may expose ``seed_scope(params)`` to place a
        scenario in a *seed-equivalence class* (a string that is a pure
        function of a subset of the parameters): all scenarios in a class
        share one seed, which is what lets snapshot-and-fork execution
        serve them from a single captured benign prefix. Returning ``None``
        keeps the per-scenario default. Either way the seed is a pure
        function of ``(campaign_seed, scenario)`` — determinism holds.
        """
        seed_scope = getattr(self.target, "seed_scope", None)
        if callable(seed_scope):
            scope = seed_scope(params)
            if scope is not None:
                return _scope_seed(self.campaign_seed, scope)
        return derive_seed(self.campaign_seed, f"scenario:{scenario.key}")

    def execute(self, scenario: TestScenario, test_index: int) -> ScenarioResult:
        params = self.target.hyperspace.params(scenario.coords)
        seed = self.scenario_seed(scenario, params)
        measurement = self.target.execute(params, seed)
        return self._finish(scenario, test_index, params, measurement)

    def _finish(
        self,
        scenario: TestScenario,
        test_index: int,
        params: Dict[str, object],
        measurement: object,
    ) -> ScenarioResult:
        impact = self.target.impact_of(measurement, params)
        if math.isnan(impact):
            raise ValueError(
                f"target returned NaN impact for scenario {scenario.key} "
                "(impact must be a number in [0, 1])"
            )
        if not 0.0 <= impact <= 1.0:
            raise ValueError(f"target returned impact outside [0, 1]: {impact}")
        self.executed += 1
        return ScenarioResult(
            scenario=scenario,
            impact=impact,
            test_index=test_index,
            measurement=measurement,
            params=params,
        )

    # ------------------------------------------------------------------
    # crash-safe execution
    # ------------------------------------------------------------------
    def _attempt(self, scenario: TestScenario, test_index: int) -> ScenarioResult:
        """One classified execution.

        Raises :class:`FailureSignal` carrying the failure kind;
        ``KeyboardInterrupt``/``SystemExit`` always propagate so a campaign
        stays interruptible.
        """
        params = self.target.hyperspace.params(scenario.coords)
        seed = self.scenario_seed(scenario, params)
        try:
            measurement = self.target.execute(params, seed)
        except EventBudgetExceeded as exc:
            raise FailureSignal(TIMEOUT, str(exc)) from exc
        except FailureSignal:
            raise
        except snapshot_mod.SnapshotError as exc:
            # A prefix that will not capture or a snapshot that will not
            # restore is a harness defect, never the target's fault: say so
            # and fall back to from-scratch execution, which is defined to
            # produce the identical measurement. Failures of the fallback
            # itself are classified like any first attempt.
            try:
                measurement = self._snapshot_fallback(scenario, test_index, params, seed, exc)
            except EventBudgetExceeded as fallback_exc:
                raise FailureSignal(TIMEOUT, str(fallback_exc)) from fallback_exc
            except Exception as fallback_exc:
                raise FailureSignal(TARGET_FAULT, describe_exception(fallback_exc)) from fallback_exc
        except Exception as exc:
            raise FailureSignal(TARGET_FAULT, describe_exception(exc)) from exc
        try:
            return self._finish(scenario, test_index, params, measurement)
        except Exception as exc:
            raise FailureSignal(HARNESS_BUG, describe_exception(exc)) from exc

    def _snapshot_fallback(
        self,
        scenario: TestScenario,
        test_index: int,
        params: Dict[str, object],
        seed: int,
        exc: Exception,
    ) -> object:
        """Warn about a capture or restore failure and re-execute from scratch.

        Fork-equivalence (proved by tests/snapshot/) guarantees the
        fallback measurement is the one the fork would have produced, so
        nothing enters the results or the telemetry stream.
        """
        _LOG.warning(
            "snapshot %s failed for test %d (%s); re-executing from scratch: %s",
            "restore" if isinstance(exc, snapshot_mod.SnapshotRestoreError) else "capture",
            test_index,
            scenario.key,
            describe_exception(exc),
        )
        with snapshot_mod.disabled():
            return self.target.execute(params, seed)

    def execute_isolated(self, scenario: TestScenario, test_index: int) -> ScenarioResult:
        """Execute with fault isolation: never raises on a failing scenario.

        One attempt: every failure classified here — including a spent
        event budget — is a pure function of ``(campaign_seed, scenario)``,
        so running it again would fail the same way. It comes back as a
        zero-impact :class:`ScenarioFailure` (``attempts == 1``) for the
        caller to record and quarantine.
        """
        try:
            return self._attempt(scenario, test_index)
        except FailureSignal as failure:
            self.failures += 1
            return ScenarioFailure(
                scenario=scenario,
                impact=0.0,
                test_index=test_index,
                measurement=None,
                params=self.target.hyperspace.params(scenario.coords),
                kind=failure.kind,
                error=failure.error,
            )


def _scope_seed(campaign_seed: int, scope: str) -> int:
    """The one seed every scenario of seed-equivalence class ``scope`` runs on.

    A prefix is captured by the first scenario of its class that runs, so
    the prefix's seed and the scenarios' seed are this one value by
    construction.
    """
    return derive_seed(campaign_seed, f"scenario-scope:{scope}")


def batch_sched(size: int, slot: int) -> Dict[str, int]:
    """The scheduler counters attached to one ``ScenarioExecuted`` event.

    A pure function of the batch *structure* — how many scenarios were
    dispatched together (``size``) and where this one sat (``slot``) —
    never of worker count, completion order, or clocks, so telemetry
    streams stay byte-identical across worker counts and backends.
    ``depth`` is how many submissions were still queued behind this one
    when it was dispatched; a serial execution is a batch of one.
    ``repro explain`` folds these into the scheduler-efficiency rollup.
    """
    return {"depth": size - 1 - slot, "size": size, "slot": slot}


def warm_target(target: object) -> None:
    """Run a target's optional ``warm_caches()`` hook.

    Warming (baseline calibration, say) is an optimization, so a hook that
    raises is logged rather than allowed to break worker startup; the
    caches then fill inside scenarios. Called wherever a target lands
    before its first scenario: the parent, before pickling it, and every
    worker session's setup.
    """
    warm = getattr(target, "warm_caches", None)
    if not callable(warm):
        return
    try:
        warm()
    except Exception as exc:
        _LOG.warning(
            "warm_caches failed (%s); caches will fill inside scenarios",
            describe_exception(exc),
        )


def publish_executed(
    telemetry: Optional[TelemetryBus],
    target: Target,
    result: ScenarioResult,
    sched: Optional[Dict[str, int]] = None,
) -> None:
    """Publish one terminal result as a ``ScenarioExecuted`` event.

    Called by the execution fabric only, which publishes whole batches in
    submission order from the parent process — the re-sequencing that
    keeps the event stream worker-count-independent. The target's optional
    ``telemetry_summary(measurement)`` hook supplies the event's headline
    figures; a misbehaving hook is dropped rather than allowed to fail the
    campaign. ``sched`` carries the batch-shape scheduler counters
    (:func:`batch_sched`).
    """
    if telemetry is None or not telemetry.active:
        return
    summary = None
    if not result.failed:
        summarize = getattr(target, "telemetry_summary", None)
        if callable(summarize):
            try:
                summary = summarize(result.measurement)
            except Exception:
                summary = None
    telemetry.publish(
        ScenarioExecuted(
            test_index=result.test_index,
            key=key_dict(result.key),
            impact=result.impact,
            failed=result.failed,
            summary=summary,
            sched=dict(sched) if sched is not None else None,
        )
    )


__all__ = [
    "ScenarioExecutor",
    "Target",
    "batch_sched",
    "publish_executed",
    "warm_target",
]
