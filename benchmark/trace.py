"""Outside-in instrumentation: the work meter and the ``--trace`` spans.

Nothing under ``src/`` knows it is being measured. This module wraps the
callables at each layer boundary from the outside and restores them when
the run ends:

- :class:`WorkMeter` is always on. It wraps ``Simulator.run`` and adds the
  events each call executed to one counter that forked pool workers share,
  so ``events_per_s`` has an exact numerator on every workload. It costs
  one lock and one add per scenario.
- :class:`Tracer` is on only under ``--trace``. Every wrapped callable
  becomes a span; a span's *self* time is its duration minus the part its
  child spans cover, so the self times of one process partition its wall
  clock. Spans that run inside pool workers land in shared memory and are
  reported next to the parent's own spans, never mixed into them.

The pool backend forks its workers, so they inherit both the wrappers and
the shared counters.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import coverage, parallel, persistence, snapshot
from repro.core.controller import TestController
from repro.core.executor import ScenarioExecutor
from repro.crypto.keys import KeyStore
from repro.crypto.mac import MacGenerator
from repro.pbft import PbftDeployment, client_name, replica_name
from repro.sim import Simulator
from repro.targets import PbftScenarioSpec, PbftTarget
from repro.telemetry import TelemetryBus

#: Span and counter names, in report order. A counter is a slot whose
#: ``count`` column is the only one used.
SLOTS = (
    "sim.run",
    "sim.msgs_delivered",
    "pbft.build",
    "pbft.run",
    "targets.execute",
    "targets.spec_build",
    "targets.impact",
    "targets.baseline",
    "targets.features",
    "snapshot.fork",
    "snapshot.fork_bytes",
    "snapshot.capture",
    "executor.scenario",
    "controller.run",
    "controller.generate",
    "coverage.extract",
    "coverage.signature",
    "coverage.observe",
    "coverage.novel",
    "parallel.batch",
    "persistence.checkpoint",
    "telemetry.publish",
)

#: Spans whose individual durations are kept for percentiles.
SAMPLED = frozenset(
    {"executor.scenario", "snapshot.fork", "parallel.batch", "persistence.checkpoint"}
)

#: Room for worker-side ``executor.scenario`` samples (one per scenario).
_WORKER_SAMPLE_CAP = 4096


class WorkMeter:
    """Simulated events executed, summed over this process and its forks."""

    def __init__(self) -> None:
        self._events = multiprocessing.Value("q", 0)

    def add(self, events: int) -> None:
        with self._events.get_lock():
            self._events.value += events

    def read(self) -> int:
        return self._events.value


class Tracer:
    """Span accounting with self-time arithmetic.

    ``begin``/``end`` bracket a span. Each process keeps its own stack of
    open spans (a forked worker starts with an empty one); the owner's
    totals stay in plain dicts, a worker's go to shared arrays.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._slot = {name: index for index, name in enumerate(SLOTS)}
        self._owner = os.getpid()
        self._pid = self._owner
        self._stack: List[float] = []
        self.active = True
        #: Spans closed in the owner process since the last harvest.
        self.spans_closed = 0
        self._local: Dict[str, List[float]] = {}
        self._samples: Dict[str, List[float]] = {}
        # self_s, count per slot, written by forked workers.
        self._remote = multiprocessing.Array("d", 2 * len(SLOTS))
        self._remote_samples = multiprocessing.Array("d", _WORKER_SAMPLE_CAP)
        self._remote_sample_count = multiprocessing.Value("i", 0)
        #: Free-form last-value gauges set by span observers (owner only).
        self.gauges: Dict[str, float] = {}
        self._reset_local()

    def _reset_local(self) -> None:
        self._local = {name: [0.0, 0] for name in SLOTS}
        self._samples = {name: [] for name in SAMPLED}
        self.spans_closed = 0

    # -- recording -----------------------------------------------------
    def begin(self) -> Optional[float]:
        if not self.active:
            return None
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked worker: the copied stack describes
            # spans that are open in the parent, not here.
            self._pid = pid
            self._stack = []
        self._stack.append(0.0)
        return self._clock()

    def end(self, name: str, started: Optional[float]) -> float:
        if started is None:
            return 0.0
        duration = self._clock() - started
        children = self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        self._add(name, duration - children, 1)
        if self._pid == self._owner:
            self.spans_closed += 1
        if name in SAMPLED:
            self._sample(name, duration)
        return duration

    def count(self, name: str, amount: int) -> None:
        if self.active:
            self._add(name, 0.0, amount)

    def _add(self, name: str, self_s: float, count: int) -> None:
        if self._pid == self._owner:
            row = self._local[name]
            row[0] += self_s
            row[1] += count
            return
        base = 2 * self._slot[name]
        with self._remote.get_lock():
            self._remote[base] += self_s
            self._remote[base + 1] += count

    def _sample(self, name: str, duration: float) -> None:
        if self._pid == self._owner:
            self._samples[name].append(duration)
        elif name == "executor.scenario":
            with self._remote_sample_count.get_lock():
                index = self._remote_sample_count.value
                if index < _WORKER_SAMPLE_CAP:
                    self._remote_samples[index] = duration
                    self._remote_sample_count.value = index + 1

    # -- reading -------------------------------------------------------
    def harvest(self) -> "Harvest":
        """Everything recorded since the last harvest; resets the tracer."""
        with self._remote.get_lock():
            remote = list(self._remote)
            for index in range(len(remote)):
                self._remote[index] = 0.0
        with self._remote_sample_count.get_lock():
            worker_samples = list(self._remote_samples[: self._remote_sample_count.value])
            self._remote_sample_count.value = 0
        rows = {}
        for name in SLOTS:
            base = 2 * self._slot[name]
            rows[name] = (tuple(self._local[name]), (remote[base], int(remote[base + 1])))
        samples = {name: list(values) for name, values in self._samples.items()}
        samples["executor.scenario"].extend(worker_samples)
        harvest = Harvest(rows, samples, self.spans_closed, dict(self.gauges))
        self._reset_local()
        self.gauges.clear()
        return harvest


class Harvest:
    """One phase's spans: per slot, the owner's and the workers' columns."""

    def __init__(
        self,
        rows: Dict[str, Tuple[Tuple[float, int], Tuple[float, int]]],
        samples: Dict[str, List[float]],
        spans_closed: int,
        gauges: Dict[str, float],
    ) -> None:
        self.rows = rows
        self.samples = samples
        self.spans_closed = spans_closed
        self.gauges = gauges

    def self_s(self, name: str) -> float:
        """Self time of a span, owner plus workers."""
        owner, workers = self.rows[name]
        return owner[0] + workers[0]

    def count(self, name: str) -> int:
        owner, workers = self.rows[name]
        return int(owner[1] + workers[1])

    def owner_self_s(self) -> float:
        """Sum of the owner's self times: the wall its spans account for."""
        return sum(owner[0] for owner, _ in self.rows.values())

    def merged(self, other: "Harvest") -> "Harvest":
        rows = {}
        for name, (owner, workers) in self.rows.items():
            other_owner, other_workers = other.rows[name]
            rows[name] = (
                tuple(a + b for a, b in zip(owner, other_owner)),
                tuple(a + b for a, b in zip(workers, other_workers)),
            )
        samples = {
            name: values + other.samples.get(name, [])
            for name, values in self.samples.items()
        }
        gauges = dict(self.gauges)
        gauges.update(other.gauges)
        return Harvest(rows, samples, self.spans_closed + other.spans_closed, gauges)


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------
class Instrumentation:
    """The installed wrappers; ``uninstall`` puts every original back."""

    def __init__(self, meter: WorkMeter, tracer: Optional[Tracer]) -> None:
        self.meter = meter
        self.tracer = tracer
        self._restore: List[Tuple[object, str, object]] = []
        #: End state of every ``ParallelScenarioExecutor`` that was closed:
        #: (pool_rebuilds, fallback_serial). Keyed by the executor itself,
        #: because ``close`` may run twice and an ``id`` may be reused.
        self.pool_states: Dict[object, Tuple[int, bool]] = {}

    def patch(self, owner: object, attr: str, factory: Callable) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(factory(raw.__func__))
        else:
            replacement = factory(raw)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def span(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Optional[Callable[[float, object, tuple], None]] = None,
    ) -> None:
        tracer = self.tracer

        def factory(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                started = tracer.begin()
                try:
                    result = func(*args, **kwargs)
                finally:
                    duration = tracer.end(name, started)
                if observe is not None and started is not None:
                    observe(duration, result, args)
                return result

            return wrapper

        self.patch(owner, attr, factory)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)


def install(meter: WorkMeter, tracer: Optional[Tracer] = None) -> Instrumentation:
    """Wrap ``Simulator.run`` for the meter and, with a tracer, every layer."""
    installed = Instrumentation(meter, tracer)
    if tracer is None:

        def metered(func):
            @functools.wraps(func)
            def run(*args, **kwargs):
                executed = func(*args, **kwargs)
                meter.add(executed)
                return executed

            return run

        installed.patch(Simulator, "run", metered)
        return installed

    span = installed.span
    span(Simulator, "run", "sim.run", lambda _d, executed, _a: meter.add(executed))

    def deployment_run(func):
        # Not a plain span: the delivered-message count needs a reading
        # before the run, because a forked deployment starts above zero.
        @functools.wraps(func)
        def run(self):
            before = self.network.messages_delivered
            started = tracer.begin()
            try:
                return func(self)
            finally:
                tracer.end("pbft.run", started)
                tracer.count("sim.msgs_delivered", self.network.messages_delivered - before)

        return run

    installed.patch(PbftDeployment, "run", deployment_run)
    span(PbftDeployment, "__init__", "pbft.build")
    span(PbftTarget, "execute", "targets.execute")
    span(PbftScenarioSpec, "build", "targets.spec_build")
    span(PbftTarget, "impact_of", "targets.impact")
    # baseline() itself is a dict hit on every impact; only the miss path
    # costs anything, so that is what the span brackets.
    span(PbftTarget, "_run_baseline", "targets.baseline")
    span(PbftTarget, "coverage_features", "targets.features")
    span(
        snapshot.SimSnapshot,
        "fork",
        "snapshot.fork",
        lambda _d, _r, args: tracer.count("snapshot.fork_bytes", len(args[0].payload)),
    )
    span(snapshot.SimSnapshot, "capture", "snapshot.capture")
    span(ScenarioExecutor, "execute_isolated", "executor.scenario")
    span(TestController, "run", "controller.run")
    span(TestController, "generate", "controller.generate")
    span(coverage, "extract_features", "coverage.extract")
    span(coverage, "signature_of", "coverage.signature")
    span(
        coverage.CoverageMap,
        "observe",
        "coverage.observe",
        lambda _d, result, _a: tracer.count("coverage.novel", int(result[0])),
    )
    span(parallel.ParallelScenarioExecutor, "execute_batch_isolated", "parallel.batch")

    def checkpoint_written(duration: float, _result: object, args: tuple) -> None:
        tracer.gauges["checkpoint_ms_last"] = duration * 1e3
        tracer.gauges["checkpoint_kb_last"] = os.path.getsize(args[1]) / 1024.0

    span(persistence, "save_checkpoint", "persistence.checkpoint", checkpoint_written)
    span(TelemetryBus, "publish", "telemetry.publish")

    def pool_close(func):
        @functools.wraps(func)
        def close(self):
            installed.pool_states[self] = (self.pool_rebuilds, self.fallback_serial)
            return func(self)

        return close

    installed.patch(parallel.ParallelScenarioExecutor, "close", pool_close)
    return installed


# ---------------------------------------------------------------------------
# fixed probes (run outside the timed section)
# ---------------------------------------------------------------------------
def calibration_loops_per_s(loops: int = 2_000_000) -> float:
    """A fixed pure-Python loop: tells machine drift from a regression."""
    started = time.perf_counter()
    total = 0
    for value in range(loops):
        total += value & 7
    return loops / (time.perf_counter() - started)


def span_cost_s(spans: int = 20_000) -> float:
    """Cost of one empty span, for the tracing-overhead estimate."""
    tracer = Tracer()
    started = time.perf_counter()
    for _ in range(spans):
        tracer.end("sim.run", tracer.begin())
    return (time.perf_counter() - started) / spans


def mac_probe_ops_per_s(ops: int = 200_000) -> float:
    """Authenticator generation and verification on the deployment's shape.

    One iteration is a client MAC-ing a fresh digest for four replicas and
    one replica verifying it: five MAC operations, the first four missing
    the shared tag memo and the fifth hitting it, as inside a deployment.
    """
    key_root = 0xBE7C
    tag_cache: dict = {}
    client = client_name(0)
    replicas = [replica_name(index) for index in range(4)]
    generator = MacGenerator(KeyStore(key_root, client, tag_cache=tag_cache))
    verifier = KeyStore(key_root, replicas[1], tag_cache=tag_cache)
    iterations = ops // 5
    started = time.perf_counter()
    for digest in range(1, iterations + 1):
        authenticator = generator.authenticator(replicas, digest)
        if not authenticator.verifies_for(verifier, client, digest):
            raise AssertionError("a genuine authenticator failed verification")
    return (iterations * 5) / (time.perf_counter() - started)
