"""PBFT under network-level adversity (the network-control attack surface)."""

from repro.pbft import PbftAttack, PbftDeployment, run_deployment
from repro.sim import DelayFault, DropFault, ReorderFault
from repro.sim.faults import match_endpoints
from tests.conftest import tiny_pbft_config


def replicas():
    return frozenset(f"replica-{i}" for i in range(4))


def faults(*stages):
    return PbftAttack(network_faults=stages)


def test_pbft_tolerates_moderate_message_loss(tiny_config):
    # Client retransmissions + quorum redundancy mask a lossy network.
    lossy = DropFault(0.05, match_endpoints(dst=replicas()))
    result = run_deployment(tiny_config, 5, faults(lossy), seed=1)
    clean = run_deployment(tiny_config, 5, seed=1)
    assert result.completed_requests > clean.completed_requests * 0.5
    assert result.crashed_replicas == 0


def test_heavy_loss_degrades_but_does_not_violate_safety(tiny_config):
    lossy = DropFault(0.4, match_endpoints(dst=replicas()))
    deployment = PbftDeployment(tiny_config, 5, seed=2)
    deployment.install_attack(faults(lossy))
    deployment.run()
    # Replicas at the same execution frontier agree on state.
    frontiers = {}
    for replica in deployment.replicas:
        frontiers.setdefault(replica.last_executed, set()).add(replica.state_digest)
    for digests in frontiers.values():
        assert len(digests) == 1


def test_reordering_replica_traffic_is_tolerated(tiny_config):
    # PBFT is asynchronous-safe: reordering delays but never corrupts.
    reorder = ReorderFault(window=6, spacing_us=100, matcher=match_endpoints(dst=replicas()))
    result = run_deployment(tiny_config, 5, faults(reorder), seed=3)
    assert result.completed_requests > 0
    assert result.crashed_replicas == 0


def test_added_latency_raises_client_latency(tiny_config):
    slow = DelayFault(3_000, matcher=match_endpoints(dst=replicas()))
    slow_result = run_deployment(tiny_config, 3, faults(slow), seed=4)
    fast_result = run_deployment(tiny_config, 3, seed=4)
    assert slow_result.mean_latency_s > fast_result.mean_latency_s + 0.002


def test_one_attack_instance_arms_two_deployments_identically(tiny_config):
    # Fault stages keep their RNG stream and buffers per network, so one
    # attack installed on two deployments with the same seed runs as if each
    # had been given fresh fault instances.
    attack = faults(
        DropFault(0.2, match_endpoints(dst=replicas())),
        DelayFault(2_000, jitter_us=1_000, matcher=match_endpoints(dst=replicas())),
        ReorderFault(window=3, matcher=match_endpoints(dst=replicas())),
    )
    first = run_deployment(tiny_config, 4, attack, seed=8)
    second = run_deployment(tiny_config, 4, attack, seed=8)
    assert first == second
