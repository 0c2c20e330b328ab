"""Algorithm 1: the Test Controller."""

import pytest

from repro.core import CampaignSpec, ControllerConfig, TestController
from tests.core.fake_target import LoadPlugin, NoisePlugin, make_hill_target


def make_controller(seed=1, extra_plugins=(), **config_kwargs):
    target, plugins = make_hill_target(extra_plugins)
    config = ControllerConfig(**config_kwargs)
    return TestController(target, plugins, seed=seed, config=config), target


def test_requires_at_least_one_plugin():
    target, _ = make_hill_target()
    with pytest.raises(ValueError):
        TestController(target, [])


def test_duplicate_plugin_names_rejected():
    target, plugins = make_hill_target()
    with pytest.raises(ValueError):
        TestController(target, [plugins[0], plugins[0]])


def test_run_executes_exactly_budget_tests():
    controller, target = make_controller()
    results = controller.run(CampaignSpec(budget=30))
    assert len(results) == 30
    assert target.executions == 30


def test_omega_prevents_reexecution():
    controller, _ = make_controller()
    controller.run(CampaignSpec(budget=60))
    keys = [result.key for result in controller.results]
    assert len(keys) == len(set(keys))


def test_mu_tracks_maximum_impact():
    controller, _ = make_controller()
    controller.run(CampaignSpec(budget=40))
    assert controller.max_impact == max(r.impact for r in controller.results)
    assert controller.best.impact == controller.max_impact


def test_top_set_is_bounded_and_sorted():
    controller, _ = make_controller(top_set_size=5)
    controller.run(CampaignSpec(budget=40))
    entries = controller.top_set.entries
    assert len(entries) <= 5
    impacts = [entry.impact for entry in entries]
    assert impacts == sorted(impacts, reverse=True)


def test_seed_phase_is_random_then_mutations_appear():
    controller, _ = make_controller(seed_tests=5, random_restart_rate=0.0)
    controller.run(CampaignSpec(budget=40))
    origins = [result.scenario.origin for result in controller.results]
    assert all(origin == "random" for origin in origins[:5])
    assert "mutation" in origins[5:]


def test_mutations_carry_provenance():
    controller, _ = make_controller()
    controller.run(CampaignSpec(budget=40))
    mutated = [r for r in controller.results if r.scenario.origin == "mutation"]
    assert mutated
    executed_keys = {r.key for r in controller.results}
    for result in mutated:
        assert result.scenario.plugin is not None
        assert result.scenario.parent_key in executed_keys
        assert 0.0 <= result.scenario.mutate_distance <= 1.0


def test_adaptive_mutate_distance_shrinks_for_good_parents():
    controller, _ = make_controller(seed=3)
    controller.run(CampaignSpec(budget=80))
    strong_parents = {
        r.key: r.impact for r in controller.results if r.impact > 0.8
    }
    distances = [
        r.scenario.mutate_distance
        for r in controller.results
        if r.scenario.parent_key in strong_parents and r.scenario.origin == "mutation"
    ]
    if distances:  # strong parents found and mutated
        assert min(distances) < 0.2


def test_fixed_mutate_distance_ablation():
    controller, _ = make_controller(fixed_mutate_distance=0.5, seed_tests=3)
    controller.run(CampaignSpec(budget=30))
    distances = {
        r.scenario.mutate_distance
        for r in controller.results
        if r.scenario.origin == "mutation"
    }
    assert distances == {0.5}


def test_plugin_gain_sampling_prefers_useful_plugin():
    # 'mask' drives the hill; 'noise' never changes impact.
    controller, _ = make_controller(
        seed=5, extra_plugins=(NoisePlugin(),), random_restart_rate=0.05
    )
    controller.run(CampaignSpec(budget=150))
    stats = controller.plugin_sampler.stats
    assert stats["mask"].weight > stats["noise"].weight


def test_uniform_plugin_ablation_flag():
    controller, _ = make_controller(uniform_plugin_choice=True, extra_plugins=(NoisePlugin(),))
    controller.run(CampaignSpec(budget=30))
    assert controller.plugin_sampler.uniform


def test_guided_beats_random_on_structured_landscape():
    guided_hits = 0
    random_hits = 0
    for seed in range(5):
        controller, _ = make_controller(seed=seed, extra_plugins=(LoadPlugin(),))
        controller.run(CampaignSpec(budget=60))
        guided_hits += sum(1 for r in controller.results if r.impact > 0.5)

        from repro.core import RandomExploration

        target, _ = make_hill_target((LoadPlugin(),))
        random_strategy = RandomExploration(target, seed=seed)
        random_strategy.run(CampaignSpec(budget=60))
        random_hits += sum(1 for r in random_strategy.results if r.impact > 0.5)
    assert guided_hits > random_hits * 1.5


def test_best_so_far_curve_is_monotone():
    controller, _ = make_controller()
    controller.run(CampaignSpec(budget=25))
    curve = controller.best_so_far_curve()
    assert len(curve) == 25
    assert all(b >= a for a, b in zip(curve, curve[1:]))


def test_budget_validation():
    controller, _ = make_controller()
    with pytest.raises(ValueError):
        controller.run(CampaignSpec(budget=0))


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(top_set_size=0)
    with pytest.raises(ValueError):
        ControllerConfig(seed_tests=0)
    with pytest.raises(ValueError):
        ControllerConfig(random_restart_rate=1.5)
    with pytest.raises(ValueError):
        ControllerConfig(fixed_mutate_distance=2.0)


def test_deterministic_given_seed():
    first, _ = make_controller(seed=9)
    second, _ = make_controller(seed=9)
    first.run(CampaignSpec(budget=30))
    second.run(CampaignSpec(budget=30))
    assert [r.key for r in first.results] == [r.key for r in second.results]
    assert [r.impact for r in first.results] == [r.impact for r in second.results]
