"""A prefix captured after a replica crashed forks into a deployment whose
crashed replica still drops every delivery, and the fork stays bit-identical
to the from-scratch and reference runs."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core import snapshot
from repro.targets.pbft_target import PbftScenarioSpec
from tests.snapshot.conftest import micro_pbft_config
from tests.snapshot.test_differential import run_forked, run_reference, run_scratch

CRASHED = 2


@dataclass
class CrashingSpec(PbftScenarioSpec):
    """A timed PBFT scenario whose backup ``CRASHED`` crashes mid-warm-up."""

    def deployment(self, seed, attack_start_us):
        deployment = super().deployment(seed, attack_start_us)
        crash_at = self.config.warmup_us // 2
        deployment.simulator.schedule(crash_at, deployment.replicas[CRASHED].crash)
        return deployment


def crashing_spec() -> CrashingSpec:
    return CrashingSpec(
        config=micro_pbft_config(),
        n_correct_clients=3,
        n_malicious_clients=1,
        mac_mask=0b101,
        attack_start_pct=60,
    )


@pytest.mark.parametrize("seed", (0, 7))
def test_fork_of_a_crashed_prefix_matches_scratch_and_reference(seed):
    spec = crashing_spec()
    forked = run_forked(spec, seed)
    assert snapshot.cache().stats()[0] == 1, "the scenario did not fork a captured prefix"
    assert forked == run_scratch(spec, seed)
    assert forked == run_reference(spec, seed)


def test_crashed_replica_still_drops_after_a_fork():
    spec = crashing_spec()
    deployment = spec.build(0)  # forked from the prefix captured after the crash
    replica = deployment.replicas[CRASHED]
    assert replica.crashed
    executed = replica.last_executed
    delivered = deployment.network.delivered_per_endpoint[replica.name]
    deployment.run()
    assert replica.last_executed == executed
    assert deployment.network.delivered_per_endpoint[replica.name] > delivered
    assert any(peer.last_executed > executed for peer in deployment.replicas)
