"""Exploration strategies: random, exhaustive, genetic, AVD wrapper."""

import pytest

from repro.core import (
    AvdExploration,
    CampaignSpec,
    ChoiceDimension,
    ExhaustiveExploration,
    GeneticExploration,
    Hyperspace,
    RandomExploration,
)
from tests.core.fake_target import make_hill_target


def test_random_exploration_never_repeats_points():
    target, _ = make_hill_target()
    strategy = RandomExploration(target, seed=1)
    results = strategy.run(CampaignSpec(budget=50))
    keys = [result.key for result in results]
    assert len(keys) == len(set(keys)) == 50


def test_random_exploration_deterministic():
    target, _ = make_hill_target()
    a = RandomExploration(target, seed=2).run(CampaignSpec(budget=20))
    b = RandomExploration(make_hill_target()[0], seed=2).run(CampaignSpec(budget=20))
    assert [r.key for r in a] == [r.key for r in b]


def test_exhaustive_visits_every_point_in_order():
    target, _ = make_hill_target()
    small = Hyperspace([ChoiceDimension("mask", [0, 1, 2, 3])])
    strategy = ExhaustiveExploration(target, hyperspace=small)
    results = strategy.run(CampaignSpec(budget=small.size))
    assert len(results) == 4
    assert [r.scenario.coords["mask"] for r in results] == [0, 1, 2, 3]


def test_exhaustive_respects_budget():
    target, _ = make_hill_target()
    strategy = ExhaustiveExploration(target)
    results = strategy.run(CampaignSpec(budget=10))
    assert len(results) == 10


def test_genetic_exploration_finds_the_hill():
    target, plugins = make_hill_target()
    strategy = GeneticExploration(target, plugins, seed=4, population_size=10, elite=3)
    results = strategy.run(CampaignSpec(budget=80))
    assert len(results) == 80
    keys = [result.key for result in results]
    assert len(keys) == len(set(keys))  # never re-evaluates a point
    assert max(result.impact for result in results) > 0.5


def test_genetic_parameter_validation():
    target, plugins = make_hill_target()
    with pytest.raises(ValueError):
        GeneticExploration(target, plugins, population_size=1)
    with pytest.raises(ValueError):
        GeneticExploration(target, plugins, population_size=5, elite=5)


def test_avd_wrapper_exposes_controller():
    target, plugins = make_hill_target()
    strategy = AvdExploration(target, plugins, seed=5)
    results = strategy.run(CampaignSpec(budget=15))
    assert strategy.controller.results is results
    assert strategy.name == "avd"


def test_strategy_names_distinct():
    target, plugins = make_hill_target()
    names = {
        AvdExploration(target, plugins).name,
        RandomExploration(target).name,
        ExhaustiveExploration(target).name,
        GeneticExploration(target, plugins).name,
    }
    assert len(names) == 4


def test_annealing_explores_and_improves():
    from repro.core import AnnealingExploration

    target, plugins = make_hill_target()
    strategy = AnnealingExploration(target, plugins, seed=8)
    results = strategy.run(CampaignSpec(budget=60))
    assert len(results) == 60
    keys = [result.key for result in results]
    assert len(keys) == len(set(keys))
    assert max(result.impact for result in results) > 0.4


def test_annealing_parameter_validation():
    from repro.core import AnnealingExploration

    target, plugins = make_hill_target()
    with pytest.raises(ValueError):
        AnnealingExploration(target, [], seed=1)
    with pytest.raises(ValueError):
        AnnealingExploration(target, plugins, cooling=1.0)
