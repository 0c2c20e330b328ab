"""Scenario identity/provenance and the executor contract."""

import logging

import pytest

from repro.core import ScenarioResult, TestScenario
from repro.core.executor import ScenarioExecutor, warm_target
from tests.core.fake_target import make_hill_target


def test_scenario_key_is_content_addressed():
    a = TestScenario(coords={"x": 1, "y": 2})
    b = TestScenario(coords={"y": 2, "x": 1}, origin="mutation")
    assert a.key == b.key  # identity ignores provenance


def test_scenario_describe_renders_params():
    scenario = TestScenario(coords={"x": 1}, origin="random")
    text = scenario.describe({"x": 42})
    assert "x=42" in text and "random" in text


def test_executor_fills_result_fields():
    target, _ = make_hill_target()
    executor = ScenarioExecutor(target, campaign_seed=3)
    scenario = TestScenario(coords=target.hyperspace.random_coords(__import__("random").Random(0)))
    result = executor.execute(scenario, test_index=7)
    assert result.test_index == 7
    assert result.scenario is scenario
    assert result.params == target.hyperspace.params(scenario.coords)
    assert 0.0 <= result.impact <= 1.0
    assert executor.executed == 1


def test_executor_seed_is_scenario_specific_but_stable():
    target, _ = make_hill_target()
    executor_a = ScenarioExecutor(target, campaign_seed=3)
    executor_b = ScenarioExecutor(target, campaign_seed=3)
    import random as random_module

    scenario = TestScenario(coords=target.hyperspace.random_coords(random_module.Random(1)))
    result_a = executor_a.execute(scenario, 0)
    result_b = executor_b.execute(scenario, 0)
    assert result_a.impact == result_b.impact


def test_executor_rejects_out_of_range_impact():
    class BadTarget:
        def __init__(self, inner):
            self.hyperspace = inner.hyperspace
            self._inner = inner

        def execute(self, params, seed):
            return {}

        def impact_of(self, measurement, params):
            return 1.5

    target, _ = make_hill_target()
    executor = ScenarioExecutor(BadTarget(target), campaign_seed=0)
    import random as random_module

    scenario = TestScenario(coords=target.hyperspace.random_coords(random_module.Random(2)))
    with pytest.raises(ValueError):
        executor.execute(scenario, 0)


def test_executor_rejects_nan_impact_with_explicit_message():
    class NanTarget:
        def __init__(self, inner):
            self.hyperspace = inner.hyperspace

        def execute(self, params, seed):
            return {}

        def impact_of(self, measurement, params):
            return float("nan")

    target, _ = make_hill_target()
    executor = ScenarioExecutor(NanTarget(target), campaign_seed=0)
    import random as random_module

    scenario = TestScenario(coords=target.hyperspace.random_coords(random_module.Random(3)))
    with pytest.raises(ValueError, match="NaN impact"):
        executor.execute(scenario, 0)


def test_a_failing_warm_hook_is_survived_and_reported(caplog):
    class ColdTarget:
        def warm_caches(self, campaign_seed=None):
            raise RuntimeError("no baseline for you")

    with caplog.at_level(logging.WARNING, logger="repro.core.executor"):
        warm_target(ColdTarget(), campaign_seed=4)  # must not raise
        warm_target(object(), campaign_seed=4)  # no hook: nothing to say
    (record,) = caplog.records
    assert "warm_caches failed" in record.getMessage()
    assert "RuntimeError: no baseline for you" in record.getMessage()


def test_scenario_result_key_delegates():
    scenario = TestScenario(coords={"x": 3})
    result = ScenarioResult(scenario=scenario, impact=0.5, test_index=0)
    assert result.key == scenario.key
