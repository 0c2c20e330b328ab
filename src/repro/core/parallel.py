"""Parallel campaign execution: the policy layer of the execution fabric.

Sec. 3 of the paper describes the execution side of AVD as a worker model:
"a worker thread dequeues scenarios from Psi, instantiates the test
configuration, executes the test and computes the impact". Tests are
independent — the target re-initializes the distributed system for every
test — so nothing in the algorithm requires them to run one at a time.

:class:`ParallelScenarioExecutor` executes *batches* of scenarios and owns
every decision about them: batching, submission-order results, telemetry
publication, and per-suspect retry
(:meth:`~ParallelScenarioExecutor.execute_batch_isolated`, the one batch
entry point every strategy calls). Where
a scenario runs is mechanism (:mod:`repro.core.backends`): a
:class:`~repro.core.backends.Channel` per worker, all speaking one protocol
to one worker loop (:mod:`repro.core.worker`), pulled by one
:class:`~repro.core.backends.WorkStealingScheduler`. Which workers is not
configured, it follows from the two things a caller already says: ``hosts``
given, one dialled ``repro worker`` session per host; else ``workers > 1``,
that many spawned child processes; else none. The default batch
(``2 * max(workers, len(hosts))`` with workers, else 1) follows the same
rule, so asking for workers or hosts is enough to use them.

Where a batch runs follows from the executor alone, never from the batch:

- **Local.** An executor with no workers (``workers=1`` and no hosts)
  runs every batch on its own :class:`~repro.core.executor.ScenarioExecutor`,
  on the calling thread. With ``batch_size=1`` this *is* the paper's serial
  loop. Local execution is deliberately not modelled as one more channel:
  a channel's failure path is to reset its worker and re-drive the
  scenario elsewhere, and the controller's own process cannot be reset.
- **Workers.** An executor with workers runs every batch, a batch of one
  included, as one ``WorkStealingScheduler.run`` over the live channels.
  No scenario of a worker campaign ever runs in the controller's process.

:func:`run_batches` is the one campaign loop: every strategy supplies only
its next batch and what to do with the batch's results, and
:func:`campaign_executor` is the one place an executor is built for a
campaign, from its :class:`~repro.core.spec.CampaignSpec`.

Two properties make either placement safe for the meta-heuristic's
measurements:

1. every scenario's simulation seed derives from ``(campaign_seed,
   scenario.key)`` (see :func:`repro.sim.rng.derive_seed`), so a scenario's
   measurement is a pure function of the scenario, not of scheduling or
   placement;
2. results are returned in **submission order**, never completion order, so
   callers absorb them into Pi/Omega/mu exactly as a serial worker would.

Together these give the determinism guarantee the test harnesses in
``tests/core/test_parallel.py`` and ``tests/core/test_backends.py``
enforce: for a fixed ``(seed, batch_size)`` the exploration trajectory is
bit-identical regardless of worker count *and* of where the workers are.

Placement errors. The target travels to every worker as one pickled blob
in the session hello. A target that cannot be pickled, or endpoints none of
which opens, raise :exc:`WorkerStartError` before any scenario of the batch
runs: at the first batch that needs workers, or at a re-open after a reset.
Nothing falls back to the controller's process. Endpoints that refuse
while others open are named in one warning; the rest run the batch.

Crash safety. Workers run every scenario through their executor's
*isolated* path, so target faults, harness bugs, and event-budget
overruns come back as zero-impact
:class:`~repro.core.failures.ScenarioFailure` values instead of
exceptions. Failures the worker cannot report — a worker dying, a
connection tearing, a worker stuck past the wall-clock backstop
(``timeout`` seconds on the channel) — surface as lost result slots. The
channels are then reset (children killed, sessions dropped; reopened on
next use) and the lost scenarios re-driven one at a time, so the culprit
is identified exactly: it burns its own retry budget (fresh workers per
attempt, exponential backoff between) and is quarantined as
``worker-crash``/``timeout`` without ever executing in the controller's
process, while innocent batch-mates complete normally.
"""

from __future__ import annotations

import logging
import os
import pickle
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..telemetry.bus import TelemetryBus
from .backends import (
    Channel,
    ChannelError,
    ChannelTimeout,
    WorkStealingScheduler,
)
from .executor import (
    ScenarioExecutor,
    Target,
    batch_sched,
    publish_executed,
    warm_target,
)
from .failures import (
    ScenarioFailure,
    TIMEOUT,
    WORKER_CRASH,
    backoff_delay,
    describe_exception,
)
from .scenario import ScenarioResult, TestScenario
from .spec import CampaignSpec

#: Operator-facing diagnostics (stderr). Nothing logged here ever enters
#: results, checkpoints or the canonical telemetry stream.
_LOG = logging.getLogger(__name__)

#: One unit of work: a scenario and its campaign-wide test index.
Task = Tuple[TestScenario, int]


class WorkerStartError(RuntimeError):
    """No worker could be started, so a batch that needs them cannot run."""


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request.

    ``None`` or ``0`` means "one worker per available CPU"; anything else
    must be a positive integer.
    """
    if workers is None or workers == 0:
        try:
            available = len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without affinity masks
            available = os.cpu_count() or 1
        return max(1, available)
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), got {workers}")
    return workers


class ParallelScenarioExecutor:
    """Executes scenario batches against a target, locally or on workers.

    Workers are engaged lazily on the first batch and reused for the
    executor's lifetime; use the instance as a context manager (or call
    :meth:`close`) to release them.
    """

    #: Always False: nothing falls back to in-process execution. Kept only
    #: for ``benchmark/trace.py``, which reads it on every close.
    fallback_serial = False

    def __init__(
        self,
        target: Target,
        campaign_seed: int = 0,
        workers: Optional[int] = 1,
        timeout: Optional[float] = None,
        max_attempts: int = 3,
        sleep: Callable[[float], None] = time.sleep,
        telemetry: Optional[TelemetryBus] = None,
        coverage_capture: bool = False,
        hosts: Sequence[str] = (),
    ) -> None:
        if timeout is not None and not timeout > 0:
            raise ValueError("timeout must be positive (or None for no backstop)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.target = target
        #: Propagated to every worker in the hello (and assumed already
        #: set in *this* process by the caller) so deployments on both
        #: sides of the worker boundary capture identically.
        self.coverage_capture = coverage_capture
        #: Campaign telemetry bus. ``ScenarioExecuted`` events are
        #: published *here*, in the parent process, after each batch's
        #: results are collected in submission order — never inside the
        #: workers — so the stream is identical for every worker count.
        self.telemetry = telemetry if telemetry is not None else TelemetryBus()
        self.campaign_seed = campaign_seed
        self.workers = resolve_workers(workers)
        #: Wall-clock backstop, in seconds, on one scenario in flight on a
        #: worker channel (None = wait forever). In-process execution has
        #: none: a scenario's own deadline is its simulation's event budget.
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.hosts = tuple(hosts)
        #: Scenarios executed through this instance (wherever they ran).
        self.executed = 0
        #: Times the channels were torn down after a crash or a hang.
        self.pool_rebuilds = 0
        self._sleep = sleep
        self._local = ScenarioExecutor(target, campaign_seed=campaign_seed)
        #: One label per worker to open: host endpoints, else child names.
        #: Empty means every batch runs locally.
        self._endpoints: Tuple[str, ...] = self.hosts
        if not self.hosts and self.workers > 1:
            self._endpoints = tuple(f"repro-worker-{n}" for n in range(self.workers))
        #: Batch size for callers that were not given one: two scenarios
        #: per worker, so none idles while a batch drains, else 1 (the
        #: paper's serial loop).
        self.default_batch_size = (
            2 * max(self.workers, len(self.hosts)) if self._endpoints else 1
        )
        self._channels: List[Channel] = []
        #: The session hello, built (target pickled) at the first open.
        self._hello: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ParallelScenarioExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """End every worker session and reap local workers (idempotent)."""
        for channel in self._channels:
            channel.goodbye()
        self._channels = []

    def _reset_channels(self) -> None:
        """Hard-drop every session after a loss; the next batch reopens."""
        for channel in self._channels:
            channel.close()
        self._channels = []
        self.pool_rebuilds += 1

    def _live_channels(self) -> List[Channel]:
        """The open channels, reopened if every one was lost."""
        self._channels = [channel for channel in self._channels if channel.alive]
        if not self._channels:
            self._channels = self._open_channels()
        return self._channels

    def _open_channels(self) -> List[Channel]:
        if self._hello is None:
            # Warm the target's own caches (its baselines) once in the
            # parent so the pickled blob carries them into every worker,
            # whose warm hook then finds nothing left to do. The snapshot
            # cache does not travel in the blob: each worker captures the
            # prefixes of the scenarios it runs, on first use.
            warm_target(self.target)
            try:
                target_blob = pickle.dumps(self.target)
            except Exception as exc:
                raise WorkerStartError(f"target does not pickle ({describe_exception(exc)})")
            self._hello = {
                "target_blob": target_blob,
                "campaign_seed": self.campaign_seed,
                "coverage_capture": self.coverage_capture,
            }
        channels: List[Channel] = []
        refused: List[str] = []
        for endpoint in self._endpoints:
            try:
                if self.hosts:
                    channel = Channel.dial(endpoint, self._hello)
                else:
                    channel = Channel.spawn(endpoint, self._hello, siblings=channels)
            except (ChannelError, OSError) as exc:
                refused.append(f"{endpoint} ({describe_exception(exc)})")
                continue
            channels.append(channel)
        if not channels:
            raise WorkerStartError("no worker answered: " + ", ".join(refused))
        if refused:
            _LOG.warning("running on %d of %d workers; refused: %s",
                         len(channels), len(self._endpoints), ", ".join(refused))
        return channels

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute_batch_isolated(
        self, scenarios: Sequence[TestScenario], start_index: int
    ) -> List[ScenarioResult]:
        """Execute ``scenarios``; results come back in submission order.

        ``start_index`` is the campaign-wide index of the first scenario;
        scenario ``i`` of the batch gets ``test_index = start_index + i``,
        exactly as if a serial worker had drained the queue. Failures are
        results, not raises: a scenario that fails comes back as a
        ``ScenarioFailure``, and one whose worker died or hung is retried
        on fresh workers (one at a time, so the culprit quarantines alone)
        before becoming one.
        """
        tasks: List[Task] = [
            (scenario, start_index + offset) for offset, scenario in enumerate(scenarios)
        ]
        if not tasks:
            return []
        if not self._endpoints:
            results = [self._local.execute_isolated(*task) for task in tasks]
        else:
            results, lost = WorkStealingScheduler(self._live_channels()).run(
                tasks, lambda channel, task: channel.call(*task, self.timeout)
            )
            if lost:
                self._reset_channels()
                for index in lost:
                    results[index] = self._redrive(*tasks[index])
        self.executed += len(results)
        return self._publish_batch(results)

    def _publish_batch(self, results: List[ScenarioResult]) -> List[ScenarioResult]:
        """Publish ``ScenarioExecuted`` for a batch, in submission order.

        This is the telemetry re-sequencing point: workers may *complete*
        in any order, but results are collected in submission order above,
        and only then — in the parent process — do their events hit the
        bus. This is the only place a ``ScenarioExecuted`` is published
        (executors carry no bus), so no event is ever published twice or
        out of order. The attached ``sched`` counters
        are a pure function of the batch structure (see
        :func:`batch_sched`), never of worker count or completion order.
        """
        if self.telemetry.active:
            size = len(results)
            for slot, result in enumerate(results):
                publish_executed(
                    self.telemetry, self.target, result, sched=batch_sched(size, slot)
                )
        return results

    def _redrive(self, scenario: TestScenario, test_index: int) -> ScenarioResult:
        """Drive one suspect scenario through worker sessions of its own.

        Each attempt gets fresh workers; a scenario that keeps killing or
        hanging them exhausts its retry budget and is returned as a
        ``worker-crash``/``timeout`` failure without ever running inside
        the controller's own process (no worker to re-open raises).
        """
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                self._sleep(backoff_delay(attempt - 1))
            channel = self._live_channels()[0]
            try:
                return channel.call(scenario, test_index, self.timeout)
            except ChannelTimeout as exc:
                kind, error = TIMEOUT, str(exc)
            except ChannelError as exc:
                kind, error = WORKER_CRASH, str(exc)
            self._reset_channels()
        return ScenarioFailure(
            scenario=scenario,
            impact=0.0,
            test_index=test_index,
            measurement=None,
            params=self.target.hyperspace.params(scenario.coords),
            kind=kind,
            error=error,
            attempts=self.max_attempts,
        )


@contextmanager
def campaign_executor(
    target: Target, campaign_seed: int, spec: CampaignSpec,
    telemetry: TelemetryBus, coverage_capture: bool,
) -> Iterator[ParallelScenarioExecutor]:
    """The one place a campaign's executor is built: from its spec, so every
    strategy honours ``workers``, ``hosts``, the backstop and the retry
    budget alike, and closed however the campaign ends."""
    with ParallelScenarioExecutor(
        target, campaign_seed=campaign_seed, workers=spec.workers, hosts=spec.hosts,
        timeout=spec.scenario_timeout, max_attempts=spec.max_attempts,
        telemetry=telemetry, coverage_capture=coverage_capture,
    ) as pool:
        yield pool


def run_batches(
    pool: Any, results: List[ScenarioResult], budget: int, batch_size: int,
    next_batch: Callable[[int], List[TestScenario]],
    absorb: Callable[[List[ScenarioResult]], None],
) -> None:
    """The campaign loop: until ``results`` holds ``budget``, execute
    ``next_batch(room)`` (at most ``room <= batch_size`` scenarios; none
    ends the campaign) on ``pool`` and hand the results to ``absorb``, which
    appends them to ``results``. ``pool`` is a
    :class:`ParallelScenarioExecutor`, or checkpoint replay's stand-in."""
    while len(results) < budget:
        batch = next_batch(min(batch_size, budget - len(results)))
        if not batch:
            break
        absorb(pool.execute_batch_isolated(batch, start_index=len(results)))


__all__ = [
    "ParallelScenarioExecutor", "WorkerStartError", "batch_sched", "campaign_executor",
    "resolve_workers", "run_batches",
]
