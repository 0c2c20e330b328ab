"""Parallel campaign execution: the policy layer of the execution fabric.

Sec. 3 of the paper describes the execution side of AVD as a worker model:
"a worker thread dequeues scenarios from Psi, instantiates the test
configuration, executes the test and computes the impact". Tests are
independent — the target re-initializes the distributed system for every
test — so nothing in the algorithm requires them to run one at a time.

:class:`ParallelScenarioExecutor` executes *batches* of scenarios and owns
every decision about them: batching, submission-order results, telemetry
publication, degradation to local execution, and per-suspect retry
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

A batch takes one of two routes:

- **Local.** A batch of at most one scenario, an executor with no workers
  (``workers=1`` and no hosts), or one that has degraded: the scenarios
  run on this object's own
  :class:`~repro.core.executor.ScenarioExecutor`, on the calling thread.
  With ``batch_size=1`` this *is* the paper's serial loop. Local execution
  is deliberately not modelled as one more channel: a channel's failure
  path is to reset its worker and re-drive the scenario elsewhere, and the
  controller's own process cannot be reset.
- **Workers.** Anything else is one ``WorkStealingScheduler.run`` over the
  live channels.

Two properties make either route safe for the meta-heuristic's
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

Degradation. The target travels to every worker as one pickled blob in the
session hello. A target that cannot be pickled and a set of hosts none of
which answers end the same way: the executor stops using workers for
good, records why in :attr:`~ParallelScenarioExecutor.fallback_reason`,
logs one warning, and runs everything locally — same results, serial
wall-clock. Only workers that never started end there; one lost
mid-campaign never does (next paragraph).

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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
    RetryPolicy,
    ScenarioFailure,
    TIMEOUT,
    WORKER_CRASH,
    describe_exception,
)
from .scenario import ScenarioResult, TestScenario

#: Operator-facing diagnostics (stderr). Nothing logged here ever enters
#: results, checkpoints or the canonical telemetry stream.
_LOG = logging.getLogger(__name__)

#: One unit of work: a scenario and its campaign-wide test index.
Task = Tuple[TestScenario, int]


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

    Workers are engaged lazily on the first multi-scenario batch and
    reused for the executor's lifetime; use the instance as a context
    manager (or call :meth:`close`) to release them.
    """

    def __init__(
        self,
        target: Target,
        campaign_seed: int = 0,
        workers: Optional[int] = 1,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        telemetry: Optional[TelemetryBus] = None,
        coverage_capture: bool = False,
        hosts: Sequence[str] = (),
    ) -> None:
        if timeout is not None and not timeout > 0:
            raise ValueError("timeout must be positive (or None for no backstop)")
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
        self.retry = retry if retry is not None else RetryPolicy()
        self.hosts = tuple(hosts)
        #: Scenarios executed through this instance (either route).
        self.executed = 0
        #: Times the channels were torn down after a crash or a hang.
        self.pool_rebuilds = 0
        #: True once workers were abandoned; execution then stays local
        #: for the lifetime. ``fallback_reason`` says why.
        self.fallback_serial = False
        self.fallback_reason: Optional[str] = None
        self._sleep = sleep
        self._local = ScenarioExecutor(target, campaign_seed=campaign_seed)
        #: One label per worker to open: host endpoints, else child names.
        #: Empty means every batch runs locally.
        self._endpoints: Tuple[str, ...] = self.hosts
        if not self.hosts and self.workers > 1:
            self._endpoints = tuple(f"repro-worker-{n}" for n in range(self.workers))
        #: Batch size for callers that were not given one. Never 1 when
        #: there are workers: a batch of one always runs locally, which
        #: would leave them idle without a word.
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

    def _degrade(self, reason: str) -> None:
        """Stop using workers for good, and say so once."""
        self.fallback_serial = True
        self.fallback_reason = reason
        _LOG.warning("workers degraded to in-process execution: %s", reason)
        self.close()

    def _live_channels(self) -> List[Channel]:
        """The channels a batch may use; empty means run it locally."""
        if self.fallback_serial or not self._endpoints:
            return []
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
                self._degrade(f"target does not pickle ({describe_exception(exc)})")
                return []
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
            self._degrade("no reachable worker hosts: " + ", ".join(refused))
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
        channels = self._live_channels() if len(tasks) > 1 else []
        if not channels:
            results = [self._local.execute_isolated(*task) for task in tasks]
        else:
            results, lost = WorkStealingScheduler(channels).run(
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
        the controller's own process.
        """
        attempts = 0
        kind, error = WORKER_CRASH, "worker died mid-scenario"
        while attempts < self.retry.max_attempts:
            attempts += 1
            channels = self._live_channels()
            if not channels:
                # Workers permanently unavailable: last resort is in-process.
                return self._local.execute_isolated(scenario, test_index)
            try:
                return channels[0].call(scenario, test_index, self.timeout)
            except ChannelTimeout as exc:
                kind, error = TIMEOUT, str(exc)
            except ChannelError as exc:
                kind, error = WORKER_CRASH, str(exc)
            self._reset_channels()
            if attempts < self.retry.max_attempts:
                delay = self.retry.delay(attempts)
                if delay > 0:
                    self._sleep(delay)
        self._local.failures += 1
        return ScenarioFailure(
            scenario=scenario,
            impact=0.0,
            test_index=test_index,
            measurement=None,
            params=self.target.hyperspace.params(scenario.coords),
            kind=kind,
            error=error,
            attempts=attempts,
        )


__all__ = ["ParallelScenarioExecutor", "batch_sched", "resolve_workers"]
