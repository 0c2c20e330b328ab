"""Determinism-regression harness for the parallel campaign engine.

The contract under test (see ``repro.core.parallel``):

1. the batched loop with ``batch_size=1`` reproduces the legacy serial
   Algorithm 1 loop scenario-for-scenario;
2. for a fixed ``(seed, batch_size)`` the exploration trajectory is
   bit-identical regardless of worker count — workers change wall-clock
   only, never Pi/Omega/mu or the plugin fitness-gain statistics;
3. multi-worker runs are stable run-to-run (same best impact, same Omega);
4. a non-picklable target stops the first batch that needs workers with
   ``WorkerStartError``, before any of its scenarios runs, and an executor
   with workers runs every batch on them, a batch of one included.
"""

from __future__ import annotations

import pytest

from repro.core import (
    CampaignSpec,
    RandomExploration,
    ScenarioExecutor,
    TestController,
    TestScenario,
)
from repro.core.parallel import ParallelScenarioExecutor, WorkerStartError, resolve_workers
from tests._strategies import campaign_seeds, trajectory
from tests.core.fake_target import LoadPlugin, make_hill_target

SEEDS = campaign_seeds(5)

BUDGET = 24
PARALLEL_BUDGET = 16


def run_controller(seed, budget=BUDGET, **run_kwargs):
    target, plugins = make_hill_target((LoadPlugin(),))
    controller = TestController(target, plugins, seed=seed)
    controller.run(CampaignSpec(budget=budget, **run_kwargs))
    return controller


def controller_state(controller):
    """Everything the meta-heuristic learned, in comparable form."""
    return {
        "trajectory": trajectory(controller.results),
        "omega": controller.history,
        "mu": controller.max_impact,
        "best": controller.best.key if controller.best else None,
        "top_set": [(e.key, e.impact) for e in controller.top_set.entries],
        "plugin_gains": {
            name: (stats.selections, stats.total_gain, stats.improvements)
            for name, stats in controller.plugin_sampler.stats.items()
        },
    }


# ---------------------------------------------------------------------------
# 1. batched (workers=1) ≡ legacy serial
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_single_worker_matches_legacy_serial(seed):
    serial = run_controller(seed)  # workers=1, batch_size=None -> legacy loop
    batched = run_controller(seed, workers=1, batch_size=1)
    assert controller_state(serial) == controller_state(batched)


# ---------------------------------------------------------------------------
# 2. the trajectory does not depend on the worker count
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_worker_count_never_changes_the_trajectory(seed):
    one = run_controller(seed, budget=PARALLEL_BUDGET, workers=1, batch_size=6)
    many = run_controller(seed, budget=PARALLEL_BUDGET, workers=4, batch_size=6)
    assert controller_state(one) == controller_state(many)


# ---------------------------------------------------------------------------
# 3. workers=4 is stable run-to-run
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_four_workers_run_to_run_identical(seed):
    first = run_controller(seed, budget=PARALLEL_BUDGET, workers=4)
    second = run_controller(seed, budget=PARALLEL_BUDGET, workers=4)
    assert controller_state(first) == controller_state(second)
    # Omega and the best-impact set are exactly reproduced.
    assert first.history == second.history
    assert first.best.impact == second.best.impact


def test_batched_run_executes_exactly_budget_unique_tests():
    controller = run_controller(3, budget=20, workers=2, batch_size=5)
    keys = [result.key for result in controller.results]
    assert len(controller.results) == 20
    assert len(keys) == len(set(keys))  # Psi/Omega dedup held under batching
    assert [r.test_index for r in controller.results] == list(range(20))
    assert controller.pending is not None and not controller._pending_keys


def test_random_exploration_trajectory_is_worker_independent():
    serial_target, _ = make_hill_target((LoadPlugin(),))
    parallel_target, _ = make_hill_target((LoadPlugin(),))
    serial = RandomExploration(serial_target, seed=7).run(CampaignSpec(budget=20))
    parallel = RandomExploration(parallel_target, seed=7).run(
        CampaignSpec(budget=20, workers=3)
    )
    assert trajectory(serial) == trajectory(parallel)


# ---------------------------------------------------------------------------
# 4. the executor itself
# ---------------------------------------------------------------------------
def make_batch(target, count, seed=0):
    import random

    rng = random.Random(seed)
    scenarios, seen = [], set()
    while len(scenarios) < count:
        scenario = TestScenario(coords=target.hyperspace.random_coords(rng))
        if scenario.key not in seen:
            seen.add(scenario.key)
            scenarios.append(scenario)
    return scenarios


def test_execute_batch_returns_submission_order():
    target, _ = make_hill_target((LoadPlugin(),))
    scenarios = make_batch(target, 9)
    with ParallelScenarioExecutor(target, campaign_seed=1, workers=3) as pool:
        results = pool.execute_batch_isolated(scenarios, start_index=5)
    assert [r.key for r in results] == [s.key for s in scenarios]
    assert [r.test_index for r in results] == list(range(5, 14))
    assert pool.executed == 9


def test_pool_results_match_in_process_results():
    target, _ = make_hill_target((LoadPlugin(),))
    scenarios = make_batch(target, 8)
    with ParallelScenarioExecutor(target, campaign_seed=2, workers=2) as pool:
        pooled = pool.execute_batch_isolated(scenarios, start_index=0)
    with ParallelScenarioExecutor(target, campaign_seed=2, workers=1) as serial:
        local = serial.execute_batch_isolated(scenarios, start_index=0)
    assert [(r.key, r.impact) for r in pooled] == [(r.key, r.impact) for r in local]


def test_non_picklable_target_raises_worker_start_error():
    target, _ = make_hill_target((LoadPlugin(),))
    target.unpicklable = lambda: None  # closures cannot cross processes
    with ParallelScenarioExecutor(target, campaign_seed=0, workers=4) as pool:
        with pytest.raises(WorkerStartError, match="target does not pickle"):
            pool.execute_batch_isolated(make_batch(target, 6), start_index=0)
        # A batch of one needs workers too: it never runs here instead.
        with pytest.raises(WorkerStartError, match="target does not pickle"):
            pool.execute_batch_isolated(make_batch(target, 1), start_index=0)
    assert target.executions == 0


def test_an_empty_batch_opens_no_worker_and_a_batch_of_one_runs_on_one():
    target, _ = make_hill_target()
    reference, _ = make_hill_target()
    (scenario,) = make_batch(target, 1)
    with ParallelScenarioExecutor(target, workers=2) as pool:
        assert pool.execute_batch_isolated([], start_index=0) == []
        assert pool._hello is None  # no channel was opened for nothing
        (only,) = pool.execute_batch_isolated([scenario], start_index=3)
        assert pool._hello is not None
    assert target.executions == 0  # it ran on a worker, not in this process
    expected = ScenarioExecutor(reference, campaign_seed=0).execute(scenario, test_index=3)
    assert (only.test_index, only.key, only.impact) == (3, expected.key, expected.impact)


def test_resolve_workers():
    assert resolve_workers(1) == 1
    assert resolve_workers(5) == 5
    assert resolve_workers(0) >= 1
    assert resolve_workers(None) >= 1
    with pytest.raises(ValueError):
        resolve_workers(-2)


def test_run_rejects_bad_batch_size():
    target, plugins = make_hill_target()
    controller = TestController(target, plugins, seed=0)
    with pytest.raises(ValueError):
        controller.run(CampaignSpec(budget=10, batch_size=0))
