"""Trace equivalence: the optimized hot paths change nothing but speed.

The two fast paths in ``src/`` — the kernel's inlined run loop with its
handle-free ``defer``, and the network's fused LAN send — must be
*bit-identical* to the test-local reference kernel (``tests/_reference.py``):
same event order, same run results, same delivered-message counts, same
impacts, same campaign trajectories, for any seed. These sweeps are the
enforcement.
"""

from __future__ import annotations

from itertools import islice

from repro.core import AvdExploration, CampaignSpec, run_campaign
from repro.pbft import PbftConfig
from repro.plugins import ClientCountPlugin, MacCorruptionPlugin
from repro.sim import Simulator
from repro.targets import PbftTarget
from repro.targets.pbft_target import PbftScenarioSpec
from tests import _reference
from tests._strategies import campaign_seeds, seed_sweep, trajectory
from tests.conftest import tiny_pbft_config


def in_mode(optimized, fn):
    with _reference.in_mode(optimized):
        return fn()


def kernel_cascade():
    """A branching cascade of deferred, scheduled and cancelled events.

    Each tick defers two children a few microseconds out, so many events
    are pending at once and same-time ties are common: the order among them
    is the kernel's FIFO contract (``tests/perf/test_reference.py`` checks
    that a kernel breaking it fails the comparison below).
    """
    simulator = Simulator(seed=99)
    rng = simulator.rng("equiv")
    fired = []
    tags = iter(range(1, 500))

    def tick(tag):
        fired.append((simulator.now, tag))
        for child in islice(tags, 2):
            simulator.defer(rng.randrange(1, 50), tick, child)
        if len(fired) % 7 == 0:
            simulator.cancel(simulator.schedule(10_000, tick, -1))

    simulator.schedule(0, tick, 0)
    simulator.run()
    return fired, simulator.now, simulator.events_executed


def test_kernel_schedules_identically_across_modes():
    assert in_mode(True, kernel_cascade) == in_mode(False, kernel_cascade)


def test_pbft_run_results_identical_across_modes():
    config = tiny_pbft_config()
    for seed in seed_sweep(4, "trace-equivalence"):
        spec = PbftScenarioSpec(
            config=config,
            n_correct_clients=6,
            n_malicious_clients=1,
            mac_mask=0x5A5,
            malicious_broadcast=True,
        )

        def run():
            deployment = spec.build(seed)
            result = deployment.run()
            return result, deployment.network.messages_delivered

        optimized_result, optimized_msgs = in_mode(True, run)
        reference_result, reference_msgs = in_mode(False, run)
        assert optimized_result == reference_result, f"run result diverged at seed {seed}"
        assert optimized_msgs == reference_msgs, f"message count diverged at seed {seed}"


def test_campaign_trajectories_identical_across_modes():
    config = tiny_pbft_config()
    for seed in campaign_seeds(2):

        def run():
            plugins = [MacCorruptionPlugin(), ClientCountPlugin(4, 8, 2)]
            target = PbftTarget(plugins, config=config)
            strategy = AvdExploration(target, plugins, seed=seed)
            return trajectory(run_campaign(strategy, CampaignSpec(budget=6)).results)

        assert in_mode(True, run) == in_mode(False, run), (
            f"campaign trajectory diverged at campaign seed {seed}"
        )
