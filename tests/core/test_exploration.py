"""Exploration strategies: random, exhaustive, genetic, annealing, AVD."""

import hashlib
import json

import pytest

from repro.core import (
    AnnealingExploration,
    AvdExploration,
    CampaignSpec,
    ChoiceDimension,
    ExhaustiveExploration,
    GeneticExploration,
    HybridExploration,
    Hyperspace,
    RandomExploration,
    TestController,
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


@pytest.mark.parametrize("seed", range(5))
def test_genetic_never_repeats_a_key_within_a_generation(seed):
    """Children are checked against their own generation too: 200 tests on
    the 256-point hill target execute 200 distinct keys."""
    target, plugins = make_hill_target()
    assert target.hyperspace.size == 256
    results = GeneticExploration(target, plugins, seed=seed).run(CampaignSpec(budget=200))
    assert len({result.key for result in results}) == len(results) == target.executions == 200


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
    assert isinstance(strategy, TestController)
    assert strategy.results is results
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
    target, plugins = make_hill_target()
    strategy = AnnealingExploration(target, plugins, seed=8)
    results = strategy.run(CampaignSpec(budget=60))
    assert len(results) == 60
    keys = [result.key for result in results]
    assert len(keys) == len(set(keys))
    assert max(result.impact for result in results) > 0.4


def test_annealing_parameter_validation():
    target, plugins = make_hill_target()
    with pytest.raises(ValueError):
        AnnealingExploration(target, [], seed=1)
    with pytest.raises(ValueError):
        AnnealingExploration(target, plugins, cooling=1.0)


# ---------------------------------------------------------------------------
# every strategy's trajectory, pinned
# ---------------------------------------------------------------------------
STRATEGIES = {
    "avd": lambda target, plugins, seed: AvdExploration(target, plugins, seed=seed),
    "hybrid": lambda target, plugins, seed: HybridExploration(target, plugins, seed=seed),
    "random": lambda target, plugins, seed: RandomExploration(target, seed=seed),
    "exhaustive": lambda target, plugins, seed: ExhaustiveExploration(target, seed=seed),
    "genetic": lambda target, plugins, seed: GeneticExploration(target, plugins, seed=seed),
    "annealing": lambda target, plugins, seed: AnnealingExploration(target, plugins, seed=seed),
}

#: Results digest of a 30-test campaign on the hill target, per strategy and
#: seed. Where and in how many batches scenarios run must never move these.
PINNED_DIGESTS = {
    ("avd", 3): "ba2c7eba14487882",
    ("avd", 17): "fa2490130191b4b5",
    ("hybrid", 3): "16744e2a1eb50d93",
    ("hybrid", 17): "773e1cf06f1f4b65",
    ("random", 3): "6c55228a0839cdf4",
    ("random", 17): "5b5ee6f6bd5cc9c1",
    ("exhaustive", 3): "1a77a2140f443f59",
    ("exhaustive", 17): "1a77a2140f443f59",
    ("genetic", 3): "cd248d6249fc90d3",
    ("genetic", 17): "d718e82d18e75e7a",
    ("annealing", 3): "fa99a16c78c5152f",
    ("annealing", 17): "f1098a8b2e635ca9",
}


def results_digest(results):
    rows = [
        [r.test_index, [list(pair) for pair in r.key], repr(r.impact),
         r.scenario.origin, r.scenario.plugin, r.failed]
        for r in results
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, seed", sorted(PINNED_DIGESTS))
def test_strategy_trajectory_is_pinned(name, seed):
    target, plugins = make_hill_target()
    results = STRATEGIES[name](target, plugins, seed).run(CampaignSpec(budget=30))
    assert len(results) == 30
    assert results_digest(results) == PINNED_DIGESTS[name, seed]


def test_fixed_batch_strategies_refuse_any_other_batch_size():
    target, plugins = make_hill_target()
    with pytest.raises(ValueError, match="'genetic' runs batches of 12, not 3"):
        GeneticExploration(target, plugins).run(CampaignSpec(budget=6, batch_size=3))
    with pytest.raises(ValueError, match="'annealing' runs batches of 1, not 2"):
        AnnealingExploration(target, plugins).run(CampaignSpec(budget=6, batch_size=2))
    assert target.executions == 0
    # Their own batch size is no refusal.
    genetic = GeneticExploration(target, plugins).run(CampaignSpec(budget=6, batch_size=12))
    annealing = AnnealingExploration(target, plugins).run(CampaignSpec(budget=6, batch_size=1))
    assert len(genetic) == len(annealing) == 6
