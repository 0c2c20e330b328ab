"""Fault isolation: crashing, hanging, and worker-killing scenarios.

The contract under test (see ``repro.core.failures`` / ``executor`` /
``parallel``): a failing scenario never takes the campaign down. It comes
back as a zero-impact :class:`ScenarioFailure`, classified by kind —
whatever fails inside an executor fails fast (one attempt), a worker that
dies is reset and its scenario re-driven with exponential backoff — and
terminal failures are quarantined so the generator never proposes them
again.
"""

from __future__ import annotations

import logging
import os
import re
import subprocess
import sys
import time

import pytest

from repro.core import (
    AnnealingExploration,
    AvdExploration,
    CampaignSpec,
    ControllerConfig,
    ExhaustiveExploration,
    GeneticExploration,
    RandomExploration,
    ScenarioExecutor,
    ScenarioFailure,
    TestController,
    TestScenario,
    run_campaign,
)
from repro.core.failures import (
    HARNESS_BUG,
    Quarantine,
    TARGET_FAULT,
    TIMEOUT,
    WORKER_CRASH,
    backoff_delay,
    describe_exception,
)
from repro.core.parallel import ParallelScenarioExecutor, WorkerStartError
from repro.sim import SECOND, Simulator
from tests._strategies import trajectory
from tests.core.fake_target import HillTarget, LoadPlugin, MaskPlugin, make_hill_target


class PoisonedTarget(HillTarget):
    """Hill target that raises whenever the mask value is in ``poison``."""

    def __init__(self, plugins, poison, exc_type=RuntimeError):
        super().__init__(plugins)
        self.poison = frozenset(poison)
        self.exc_type = exc_type

    def execute(self, params, seed):
        if params["mask"] in self.poison:
            raise self.exc_type(f"injected crash for mask={params['mask']}")
        return super().execute(params, seed)


class HangingTarget(HillTarget):
    """Sleeps far past any reasonable deadline on poisoned masks."""

    def __init__(self, plugins, poison):
        super().__init__(plugins)
        self.poison = frozenset(poison)

    def execute(self, params, seed):
        if params["mask"] in self.poison:
            time.sleep(30.0)
        return super().execute(params, seed)


class RunawayTarget(HillTarget):
    """A simulation whose one event re-arms itself forever: it can only end
    by spending its event budget (1,000 events: the last runs at t=999us)."""

    def execute(self, params, seed):
        simulator = Simulator(seed=seed)
        simulator.event_budget = 1_000

        def tick():
            simulator.schedule(1, tick)

        simulator.schedule(0, tick)
        simulator.run(until=SECOND)
        return super().execute(params, seed)


RUNAWAY_ERROR = "simulation exceeded its budget of 1000 events at t=999us"


class BadImpactTarget(HillTarget):
    """Breaks the impact contract (impact > 1) on poisoned masks."""

    def __init__(self, plugins, poison):
        super().__init__(plugins)
        self.poison = frozenset(poison)

    def impact_of(self, measurement, params):
        if params["mask"] in self.poison:
            return 7.5
        return super().impact_of(measurement, params)


class WorkerKillerTarget(HillTarget):
    """Kills the executing *worker process* on poisoned masks.

    The parent pid is captured at construction, so the kill only fires
    inside pool workers — never in the controller's own process.
    """

    def __init__(self, plugins, poison):
        super().__init__(plugins)
        self.poison = frozenset(poison)
        self.parent_pid = os.getpid()

    def execute(self, params, seed):
        if params["mask"] in self.poison and os.getpid() != self.parent_pid:
            os._exit(17)
        return super().execute(params, seed)


class InterruptingTarget(HillTarget):
    """Raises KeyboardInterrupt on poisoned masks (simulates ^C)."""

    def __init__(self, plugins, poison):
        super().__init__(plugins)
        self.poison = frozenset(poison)

    def execute(self, params, seed):
        if params["mask"] in self.poison:
            raise KeyboardInterrupt
        return super().execute(params, seed)


def scenario_for_mask(target, mask_value):
    """A scenario whose mask dimension sits at ``mask_value``."""
    dim = target.hyperspace.by_name["mask"]
    for position in range(dim.size):
        if dim.value_at(position) == mask_value:
            coords = {"mask": position}
            for name, other in target.hyperspace.by_name.items():
                if name != "mask":
                    coords[name] = 0
            return TestScenario(coords=coords)
    raise AssertionError(f"mask value {mask_value} not in the dimension")


def no_sleep(_seconds):
    """The executor's ``sleep`` seam, for tests that re-drive scenarios."""


# ---------------------------------------------------------------------------
# retry policy: one number, the attempts a lost scenario gets
# ---------------------------------------------------------------------------
def test_retry_policy_backoff_schedule_is_exponential_and_capped():
    delays = [backoff_delay(n) for n in range(1, 8)]
    assert delays == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0]


def test_retry_policy_validates_itself():
    target, _ = make_hill_target()
    with pytest.raises(ValueError, match="max_attempts"):
        CampaignSpec(budget=1, max_attempts=0)
    with pytest.raises(ValueError, match="max_attempts"):
        ParallelScenarioExecutor(target, workers=2, max_attempts=0)


# ---------------------------------------------------------------------------
# quarantine
# ---------------------------------------------------------------------------
def test_quarantine_records_and_merges():
    quarantine = Quarantine()
    key_a = (("mask", 3),)
    key_b = (("mask", 5),)
    quarantine.record(key_a, kind=TIMEOUT, error="slow", attempts=3)
    quarantine.record(key_b, kind=TARGET_FAULT, error="boom")
    assert key_a in quarantine and key_b in quarantine
    assert len(quarantine) == 2
    # Re-recording the same key merges attempt counts.
    quarantine.record(key_a, kind=WORKER_CRASH, error="died", attempts=2)
    assert len(quarantine) == 2
    (entry,) = [e for e in quarantine.entries if e.key == key_a]
    assert entry.attempts == 5 and entry.kind == WORKER_CRASH
    assert set(quarantine) == {key_a, key_b}


# ---------------------------------------------------------------------------
# the isolated executor path
# ---------------------------------------------------------------------------
def test_raising_target_becomes_a_target_fault_without_retry():
    target = PoisonedTarget([MaskPlugin()], poison=range(256))
    executor = ScenarioExecutor(target, campaign_seed=1)
    scenario = scenario_for_mask(target, 3)
    result = executor.execute_isolated(scenario, test_index=0)
    assert isinstance(result, ScenarioFailure)
    assert result.failed
    assert result.kind == TARGET_FAULT
    assert result.attempts == 1  # deterministic faults are never retried
    assert result.impact == 0.0
    assert "RuntimeError" in result.error and "injected crash" in result.error
    assert executor.failures == 1
    assert result.params  # params survive for reporting


def test_a_failure_says_where_it_was_raised_by_module_not_by_path():
    target = PoisonedTarget([MaskPlugin()], poison=range(256))
    executor = ScenarioExecutor(target, campaign_seed=1)
    result = executor.execute_isolated(scenario_for_mask(target, 3), test_index=0)
    # The innermost frame: PoisonedTarget.execute, not the executor's call.
    assert re.search(r"mask=3 \[tests\.core\.test_failures\.execute:\d+\]$", result.error)
    assert "/" not in result.error and ".py" not in result.error
    # An exception that was never raised has no frame to name.
    assert describe_exception(ValueError("x")) == "ValueError: x"
    assert describe_exception(KeyError()) == "KeyError"


def test_raw_execute_still_raises():
    target = PoisonedTarget([MaskPlugin()], poison=range(256))
    executor = ScenarioExecutor(target, campaign_seed=1)
    with pytest.raises(RuntimeError):
        executor.execute(scenario_for_mask(target, 3), test_index=0)


def test_impact_contract_violation_is_a_harness_bug():
    target = BadImpactTarget([MaskPlugin()], poison=range(256))
    executor = ScenarioExecutor(target, campaign_seed=1)
    result = executor.execute_isolated(scenario_for_mask(target, 3), test_index=0)
    assert isinstance(result, ScenarioFailure)
    assert result.kind == HARNESS_BUG
    assert result.attempts == 1
    assert "outside [0, 1]" in result.error


def test_spent_event_budget_is_a_timeout_without_retry():
    target = RunawayTarget([MaskPlugin()])
    executor = ScenarioExecutor(target, campaign_seed=1)
    result = executor.execute_isolated(scenario_for_mask(target, 3), test_index=0)
    assert isinstance(result, ScenarioFailure)
    assert result.kind == TIMEOUT
    assert result.attempts == 1  # a pure function of the scenario: no retry
    assert result.error == RUNAWAY_ERROR
    assert executor.failures == 1


def test_keyboard_interrupt_is_never_swallowed():
    target = InterruptingTarget([MaskPlugin()], poison=range(256))
    executor = ScenarioExecutor(target, campaign_seed=1)
    with pytest.raises(KeyboardInterrupt):
        executor.execute_isolated(scenario_for_mask(target, 3), test_index=0)


def test_executor_rejects_nonpositive_timeouts():
    target, _ = make_hill_target()
    with pytest.raises(ValueError):
        ParallelScenarioExecutor(target, workers=2, timeout=0.0)
    with pytest.raises(ValueError):
        CampaignSpec(budget=1, scenario_timeout=-1.0)


# ---------------------------------------------------------------------------
# the controller under fire
# ---------------------------------------------------------------------------
#: A quarter of the mask space crashes — dense enough that every short
#: campaign hits it, sparse enough that exploration still works.
POISON = frozenset(range(0, 256, 4))


def poisoned_controller(seed=5, poison=POISON, **config_kwargs):
    plugins = [MaskPlugin(), LoadPlugin()]
    target = PoisonedTarget(plugins, poison=poison)
    config = ControllerConfig(**config_kwargs)
    return TestController(target, plugins, seed=seed, config=config)


def test_campaign_survives_crashing_scenarios():
    controller = poisoned_controller()
    results = controller.run(CampaignSpec(budget=40))
    assert len(results) == 40
    failures = [r for r in results if r.failed]
    successes = [r for r in results if not r.failed]
    assert failures, "the poison set should have been hit at least once"
    assert successes, "most of the space is healthy"
    for failure in failures:
        assert failure.impact == 0.0
        assert failure.kind == TARGET_FAULT
        assert failure.key in controller.quarantine
        assert failure.key in controller.history  # Omega still dedups it
    # Failures never enter Pi or mu.
    top_keys = {entry.key for entry in controller.top_set.entries}
    assert top_keys.isdisjoint({f.key for f in failures})
    assert controller.max_impact == max(r.impact for r in successes)
    assert len(controller.quarantine) == len(failures)


BASELINES = {
    "random": lambda target, plugins: RandomExploration(target, seed=5),
    "exhaustive": lambda target, plugins: ExhaustiveExploration(target, seed=5),
    "genetic": lambda target, plugins: GeneticExploration(target, plugins, seed=5),
    "annealing": lambda target, plugins: AnnealingExploration(target, plugins, seed=5),
}


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_baseline_strategies_record_failures_instead_of_raising(name):
    # One contract for every strategy: Figure 2 compares AVD with these
    # baselines, so a crashing scenario must be data for them too.
    plugins = [MaskPlugin(), LoadPlugin()]
    target = PoisonedTarget(plugins, poison=POISON)
    campaign = run_campaign(BASELINES[name](target, plugins), CampaignSpec(budget=40))
    assert len(campaign.results) == 40
    failures = campaign.failures()
    assert failures, "the poison set should have been hit at least once"
    assert len(failures) < 40
    for failure in failures:
        assert failure.params["mask"] in POISON
        assert failure.kind == TARGET_FAULT and failure.impact == 0.0
    assert [r.test_index for r in campaign.results] == list(range(40))


def test_campaign_result_surfaces_failures():
    plugins = [MaskPlugin()]
    target = PoisonedTarget(plugins, poison=POISON)
    strategy = AvdExploration(target, plugins, seed=5)
    campaign = run_campaign(strategy, CampaignSpec(budget=30))
    failures = campaign.failures()
    assert failures == [r for r in campaign.results if r.failed]
    assert failures, "expected the poison set to be hit"


def test_failure_trajectory_is_deterministic_across_workers():
    serial = poisoned_controller(seed=7)
    batched = poisoned_controller(seed=7)
    serial.run(CampaignSpec(budget=24, workers=1, batch_size=4))
    batched.run(CampaignSpec(budget=24, workers=2, batch_size=4))
    assert trajectory(serial.results) == trajectory(batched.results)
    assert set(serial.quarantine) == set(batched.quarantine)


# ---------------------------------------------------------------------------
# worker crashes in the pool
# ---------------------------------------------------------------------------
def killer_batch(target, poison_mask, innocents=5):
    scenarios = [scenario_for_mask(target, poison_mask)]
    healthy = [m for m in range(256) if m != poison_mask]
    scenarios += [scenario_for_mask(target, m) for m in healthy[:innocents]]
    # Poison in the middle so innocents sit on both sides of the break.
    scenarios[0], scenarios[2] = scenarios[2], scenarios[0]
    return scenarios


def test_killed_worker_quarantines_the_culprit_not_the_batch():
    plugins = [MaskPlugin()]
    target = WorkerKillerTarget(plugins, poison=(9,))
    scenarios = killer_batch(target, poison_mask=9)
    with ParallelScenarioExecutor(
        target, campaign_seed=3, workers=2, max_attempts=2, sleep=no_sleep
    ) as pool:
        results = pool.execute_batch_isolated(scenarios, start_index=0)
        assert pool.pool_rebuilds >= 1
    assert [r.key for r in results] == [s.key for s in scenarios]
    assert [r.test_index for r in results] == list(range(len(scenarios)))
    failures = [r for r in results if r.failed]
    assert len(failures) == 1
    (failure,) = failures
    assert failure.scenario.coords == scenarios[2].coords
    assert failure.kind == WORKER_CRASH
    assert failure.attempts == 2
    # Innocent batch-mates completed with their real measurements.
    reference, _ = make_hill_target()
    local = ScenarioExecutor(reference, campaign_seed=3)
    for offset, result in enumerate(results):
        if result.failed:
            continue
        expected = local.execute(scenarios[offset], test_index=offset)
        assert result.impact == expected.impact


def test_a_dying_worker_never_sends_a_baseline_campaign_serial(monkeypatch, caplog):
    # A worker death must never get the killer scenario re-executed inside
    # the controller's own process (where this one "passes"): it is a
    # worker-crash failure, every time.
    pools = []

    class RecordedPool(ParallelScenarioExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr("repro.core.parallel.ParallelScenarioExecutor", RecordedPool)
    target = WorkerKillerTarget([MaskPlugin(), LoadPlugin()], poison=POISON)
    with caplog.at_level(logging.WARNING, logger="repro.core.parallel"):
        results = RandomExploration(target, seed=5).run(CampaignSpec(budget=24, workers=2))
    assert len(results) == 24
    poisoned = [r for r in results if r.params["mask"] in POISON]
    assert poisoned, "the poison set should have been hit at least once"
    assert [r for r in results if r.failed] == poisoned
    assert {r.kind for r in poisoned} == {WORKER_CRASH}
    (pool,) = pools
    assert pool.pool_rebuilds >= len(poisoned)
    assert not [r for r in caplog.records if r.name == "repro.core.parallel"]


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_a_baselines_executor_carries_the_whole_spec(name, monkeypatch):
    # One construction site: workers, the backstop and the retry budget
    # reach every strategy's executor, which runs every scenario (a batch
    # of one included) on its workers and is closed when the campaign ends.
    pools = []

    class RecordedPool(ParallelScenarioExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr("repro.core.parallel.ParallelScenarioExecutor", RecordedPool)
    plugins = [MaskPlugin(), LoadPlugin()]
    target = HillTarget(plugins)
    spec = CampaignSpec(budget=5, workers=2, scenario_timeout=30.0, max_attempts=2)
    results = BASELINES[name](target, plugins).run(spec)
    assert len(results) == 5
    (pool,) = pools
    assert (pool.workers, pool.timeout, pool.max_attempts) == (2, 30.0, 2)
    assert pool._channels == []  # closed
    assert target.executions == 0  # nothing ran in this process


class ParentWitnessKiller(WorkerKillerTarget):
    """A worker killer that notes every poisoned scenario it is asked to run
    in the controller's own process (a real crasher would kill it there)."""

    def __init__(self, plugins, poison):
        super().__init__(plugins, poison)
        self.poisoned_in_parent = []

    def execute(self, params, seed):
        if params["mask"] in self.poison and os.getpid() == self.parent_pid:
            self.poisoned_in_parent.append(params["mask"])
        return super().execute(params, seed)


def test_a_host_killing_scenario_stops_the_campaign_not_the_controller():
    # One `repro worker` process: the first poisoned scenario kills it, the
    # re-drive cannot re-open a session, and the campaign stops with one
    # error instead of running the killer in its own process.
    repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(repo, "src"), repo]))
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        endpoint = worker.stdout.readline().split()[-1]
        target = ParentWitnessKiller([MaskPlugin(), LoadPlugin()], poison=POISON)
        strategy = RandomExploration(target, seed=5)
        with pytest.raises(WorkerStartError, match="no worker answered"):
            strategy.run(CampaignSpec(budget=24, hosts=(endpoint,)))
        assert worker.wait(timeout=10) == 17  # the killer ran on the host
    finally:
        worker.kill()
        worker.wait(timeout=10)
        worker.stdout.close()
    assert target.poisoned_in_parent == []
