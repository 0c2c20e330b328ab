"""Normal-case PBFT protocol behaviour (integration on tiny deployments)."""

import pytest

from repro.pbft import PbftDeployment, run_deployment
from tests.conftest import tiny_pbft_config


def test_healthy_deployment_serves_all_clients(tiny_config):
    deployment = PbftDeployment(tiny_config, n_correct_clients=5, seed=1)
    result = deployment.run()
    assert result.completed_requests > 0
    assert result.view_changes == 0
    assert result.crashed_replicas == 0
    assert all(client.completed_total > 0 for client in deployment.correct_clients)


def test_replicas_execute_identically(tiny_config):
    deployment = PbftDeployment(tiny_config, n_correct_clients=4, seed=2)
    deployment.run()
    digests = {replica.state_digest for replica in deployment.replicas}
    frontiers = [replica.last_executed for replica in deployment.replicas]
    # All replicas converge on the same state (allow the slowest to trail by
    # one in-flight batch at the instant the measurement window closes).
    assert len(digests) <= 2
    assert max(frontiers) - min(frontiers) <= deployment.config.batch_size_max


def test_latency_has_floor_from_network_and_execution(tiny_config):
    result = run_deployment(tiny_config, n_correct_clients=3, seed=3)
    # A request needs >= 3 network hops + batching + execution time.
    assert result.mean_latency_s > 0.0005
    assert result.p99_latency_s >= result.mean_latency_s * 0.5


def test_throughput_scales_with_clients_until_saturation(tiny_config):
    few = run_deployment(tiny_config, n_correct_clients=2, seed=4)
    more = run_deployment(tiny_config, n_correct_clients=10, seed=4)
    assert more.throughput_rps > few.throughput_rps * 1.5


def test_batching_limits_preprepares(tiny_config):
    deployment = PbftDeployment(tiny_config, n_correct_clients=8, seed=5)
    deployment.run()
    primary = deployment.replicas[0]
    assert primary.seq_counter > 0
    executed = sum(replica.requests_executed for replica in deployment.replicas)
    batches = sum(replica.batches_executed for replica in deployment.replicas)
    assert executed / batches >= 1.0  # batches carry at least one request


def test_checkpointing_advances_stable_seq_and_gc(tiny_config):
    deployment = PbftDeployment(tiny_config, n_correct_clients=8, seed=6)
    deployment.run()
    for replica in deployment.replicas:
        assert replica.stable_seq > 0
        assert replica.stable_seq % tiny_config.checkpoint_interval == 0
        # GC keeps the log bounded by the watermark window.
        assert len(replica.log) <= tiny_config.watermark_window + tiny_config.batch_size_max


def test_no_retransmissions_in_healthy_run(tiny_config):
    result = run_deployment(tiny_config, n_correct_clients=5, seed=7)
    assert result.retransmissions == 0
    assert result.bad_mac_rejections == 0


def test_deterministic_given_seed(tiny_config):
    first = run_deployment(tiny_config, n_correct_clients=5, seed=11)
    second = run_deployment(tiny_config, n_correct_clients=5, seed=11)
    assert first.completed_requests == second.completed_requests
    assert first.mean_latency_s == second.mean_latency_s
    assert first.throughput_series == second.throughput_series


def test_different_seeds_differ(tiny_config):
    first = run_deployment(tiny_config, n_correct_clients=5, seed=11)
    second = run_deployment(tiny_config, n_correct_clients=5, seed=12)
    assert first.mean_latency_s != second.mean_latency_s


def test_needs_at_least_one_correct_client(tiny_config):
    with pytest.raises(ValueError):
        PbftDeployment(tiny_config, n_correct_clients=0)


def test_prefix_must_end_before_activation(tiny_config):
    # A captured prefix must be attack-independent: it stops short of the
    # activation event, so an attack armed at t=0 leaves no prefix at all.
    with pytest.raises(ValueError):
        PbftDeployment(tiny_config, n_correct_clients=2).run_prefix(0)
    PbftDeployment(tiny_config, n_correct_clients=2, attack_start_us=10).run_prefix(9)


def test_tail_throughput_close_to_average_when_stable(tiny_config):
    result = run_deployment(tiny_config, n_correct_clients=6, seed=13)
    assert result.tail_throughput_rps == pytest.approx(result.throughput_rps, rel=0.25)


def test_f2_deployment_has_seven_replicas():
    config = tiny_pbft_config(f=2)
    deployment = PbftDeployment(config, n_correct_clients=4, seed=14)
    assert len(deployment.replicas) == 7
    result = deployment.run()
    assert result.completed_requests > 0
    assert result.view_changes == 0
