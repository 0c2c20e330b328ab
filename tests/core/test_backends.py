"""Placement-conformance suite: wherever scenarios run, one trajectory.

The contract under test (see ``repro.core.backends``): ``workers`` and
``hosts`` choose *where* scenarios run, never *what* they compute. For a
fixed ``(seed, batch_size)`` the exploration trajectory — Pi, Omega, mu,
the plugin fitness-gain statistics, and the per-scenario ``sched``
telemetry — is bit-identical in-process (``workers=1``), on spawned local
workers (``workers=2``), and on dialled ``repro worker`` hosts, including
a two-worker localhost run. The work-stealing scheduler
is additionally pinned on its own: fast channels drain the queue a
straggler would have idled on, and a dying channel loses exactly the one
task it was holding.
"""

from __future__ import annotations

import logging
import threading

import pytest

from repro.core import (
    AnnealingExploration,
    CampaignSpec,
    TestController,
    WorkerStartError,
    WorkStealingScheduler,
)
from repro.core.backends import ChannelError
from repro.core.executor import batch_sched
from repro.core.worker import WorkerServer
from tests._strategies import campaign_seeds, trajectory
from tests.core.fake_target import LoadPlugin, make_hill_target

SEEDS = campaign_seeds(3)
BUDGET = 14
BATCH = 4


@pytest.fixture(scope="module")
def worker_pair():
    """Two live localhost workers, shared by the module's socket runs."""
    servers = [WorkerServer().serve_in_thread() for _ in range(2)]
    try:
        yield tuple(server.endpoint for server in servers)
    finally:
        for server in servers:
            server.shutdown()


def run_placed(seed, workers=1, hosts=()):
    """One campaign at the shared ``BATCH``; ``workers=1`` and no hosts is
    the in-process reference."""
    target, plugins = make_hill_target((LoadPlugin(),))
    controller = TestController(target, plugins, seed=seed)
    controller.run(
        CampaignSpec(budget=BUDGET, workers=workers, batch_size=BATCH, hosts=hosts)
    )
    return controller


def controller_state(controller):
    return {
        "trajectory": trajectory(controller.results),
        "omega": controller.history,
        "mu": controller.max_impact,
        "top_set": [(e.key, e.impact) for e in controller.top_set.entries],
        "plugin_gains": {
            name: (stats.selections, stats.total_gain, stats.improvements)
            for name, stats in controller.plugin_sampler.stats.items()
        },
    }


# ---------------------------------------------------------------------------
# trajectory identity across placements
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_process_backend_matches_inprocess_reference(seed):
    reference = run_placed(seed)
    pooled = run_placed(seed, workers=2)
    assert controller_state(pooled) == controller_state(reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_socket_backend_matches_inprocess_reference(seed, worker_pair):
    reference = run_placed(seed)
    remote = run_placed(seed, workers=2, hosts=worker_pair)
    assert controller_state(remote) == controller_state(reference)


def test_two_worker_socket_run_is_stable_run_to_run(worker_pair):
    first = run_placed(SEEDS[0], workers=2, hosts=worker_pair)
    second = run_placed(SEEDS[0], workers=2, hosts=worker_pair)
    assert controller_state(first) == controller_state(second)


def test_socket_backend_with_one_worker_matches_two(worker_pair):
    one = run_placed(SEEDS[1], hosts=worker_pair[:1])
    two = run_placed(SEEDS[1], workers=2, hosts=worker_pair)
    assert controller_state(one) == controller_state(two)


def test_unreachable_socket_hosts_raise_before_any_scenario_runs():
    # Nothing listens on this port: the campaign stops at its first batch,
    # and never runs it in the controller's process instead.
    target, plugins = make_hill_target((LoadPlugin(),))
    controller = TestController(target, plugins, seed=SEEDS[2])
    spec = CampaignSpec(budget=BUDGET, workers=2, batch_size=BATCH, hosts=("127.0.0.1:9",))
    with pytest.raises(WorkerStartError, match="no worker answered: 127.0.0.1:9"):
        controller.run(spec)
    assert controller.results == [] and target.executions == 0


def test_partly_reachable_hosts_warn_once_and_keep_the_trajectory(worker_pair, caplog):
    reference = run_placed(SEEDS[2])
    with caplog.at_level(logging.WARNING, logger="repro.core.parallel"):
        placed = run_placed(SEEDS[2], hosts=(worker_pair[0], "127.0.0.1:9"))
    assert controller_state(placed) == controller_state(reference)
    (warning,) = [r for r in caplog.records if r.name == "repro.core.parallel"]
    assert warning.levelno == logging.WARNING
    assert "running on 1 of 2 workers; refused: 127.0.0.1:9" in warning.getMessage()


def test_spec_has_no_backend_field():
    # Placement is derived from workers/hosts; there is nothing to name.
    with pytest.raises(TypeError):
        CampaignSpec(budget=4, backend="socket")


def test_hosts_alone_run_on_the_hosts():
    # No workers=, no batch_size=: naming a host must be enough to use it.
    server = WorkerServer().serve_in_thread()
    try:
        target, plugins = make_hill_target((LoadPlugin(),))
        controller = TestController(target, plugins, seed=SEEDS[0])
        controller.run(CampaignSpec(budget=6, hosts=(server.endpoint,)))
        assert len(controller.results) == 6
        assert server.sessions_served == 1
    finally:
        server.shutdown()


def test_a_trailing_batch_of_one_runs_on_the_host():
    # Budget 5 at the default batch of 2 ends in a batch of one: it crosses
    # the wire like every other batch, never running in the controller.
    server = WorkerServer().serve_in_thread()
    try:
        target, plugins = make_hill_target((LoadPlugin(),))
        placed = TestController(target, plugins, seed=SEEDS[1])
        placed.run(CampaignSpec(budget=5, hosts=(server.endpoint,)))
    finally:
        server.shutdown()
    reference_target, plugins = make_hill_target((LoadPlugin(),))
    reference = TestController(reference_target, plugins, seed=SEEDS[1])
    reference.run(CampaignSpec(budget=5, batch_size=2))
    assert target.executions == 0
    assert reference_target.executions == 5
    assert controller_state(placed) == controller_state(reference)


def test_annealing_runs_on_its_host(worker_pair):
    target, plugins = make_hill_target((LoadPlugin(),))
    placed = AnnealingExploration(target, plugins, seed=SEEDS[2]).run(
        CampaignSpec(budget=6, hosts=worker_pair[:1])
    )
    reference_target, plugins = make_hill_target((LoadPlugin(),))
    reference = AnnealingExploration(reference_target, plugins, seed=SEEDS[2]).run(
        CampaignSpec(budget=6)
    )
    assert target.executions == 0
    assert trajectory(placed) == trajectory(reference)


# ---------------------------------------------------------------------------
# sched telemetry counters are placement- and worker-invariant
# ---------------------------------------------------------------------------
class _Recorder:
    def __init__(self):
        self.events = []

    def emit(self, seq, event):
        self.events.append(event)

    def close(self):
        pass


def recorded_sched(seed, **kwargs):
    from repro.telemetry import TelemetryBus

    recorder = _Recorder()
    bus = TelemetryBus()
    bus.attach(recorder)
    target, plugins = make_hill_target((LoadPlugin(),))
    controller = TestController(target, plugins, seed=seed, telemetry=bus)
    kwargs.setdefault("batch_size", BATCH)
    controller.run(CampaignSpec(budget=BUDGET, **kwargs))
    bus.close()
    return [
        event.sched
        for event in recorder.events
        if type(event).__name__ == "ScenarioExecuted"
    ]


def test_sched_counters_identical_across_backends(worker_pair):
    seed = SEEDS[0]
    reference = recorded_sched(seed, workers=1)
    assert reference  # the stream actually carried sched counters
    assert recorded_sched(seed, workers=2) == reference
    assert recorded_sched(seed, workers=4) == reference
    assert recorded_sched(seed, hosts=worker_pair, workers=2) == reference


def test_serial_run_emits_batch_of_one_counters():
    scheds = recorded_sched(SEEDS[0], workers=1, batch_size=1)
    assert scheds == [batch_sched(1, 0)] * BUDGET


# ---------------------------------------------------------------------------
# the work-stealing scheduler itself
# ---------------------------------------------------------------------------
def test_fast_channel_steals_the_stragglers_queue():
    release = threading.Event()
    lock = threading.Lock()
    done = [0]
    tasks = list(range(6))

    def call(channel, task):
        if channel == "slow":
            release.wait(timeout=10)  # holds one task until fast drains
            return ("slow", task)
        with lock:
            done[0] += 1
            if done[0] == len(tasks) - 1:  # everything but the held task
                release.set()
        return ("fast", task)

    scheduler = WorkStealingScheduler(["slow", "fast"])
    slots, unfinished = scheduler.run(tasks, call)
    assert unfinished == []
    assert [slot[1] for slot in slots] == tasks  # submission order kept
    assert scheduler.completed == [1, 5]  # fast stole the straggler's share


def test_dying_channel_loses_only_its_in_flight_task():
    def call(channel, task):
        if channel == "dying":
            raise ChannelError("torn connection")
        return task * 10

    scheduler = WorkStealingScheduler(["dying", "healthy"])
    slots, unfinished = scheduler.run(list(range(5)), call)
    assert len(unfinished) == 1  # exactly the task the dying channel held
    lost = unfinished[0]
    assert slots[lost] is None
    assert [slots[i] for i in range(5) if i != lost] == [
        i * 10 for i in range(5) if i != lost
    ]
    assert scheduler.completed[0] == 0 and scheduler.completed[1] == 4


def test_non_channel_errors_abort_the_batch():
    def call(channel, task):
        if task == 2:
            raise RuntimeError("scenario bug")
        return task

    scheduler = WorkStealingScheduler(["only"])
    with pytest.raises(RuntimeError, match="scenario bug"):
        scheduler.run(list(range(4)), call)


def test_scheduler_needs_at_least_one_channel():
    with pytest.raises(ValueError):
        WorkStealingScheduler([])
