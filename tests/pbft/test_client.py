"""Client behaviour: closed loop, retransmission, reply quorums."""

from repro.pbft import ClientBehavior, PbftAttack, PbftDeployment, run_deployment
from repro.sim import DropFault, PartitionFault
from repro.sim.faults import match_endpoints
from tests.conftest import tiny_pbft_config


def malicious_deployment(config, n_correct_clients, mac_mask, seed):
    """One malicious client with ``mac_mask``, armed at t=0."""
    deployment = PbftDeployment(config, n_correct_clients, n_malicious_clients=1, seed=seed)
    deployment.install_attack(PbftAttack(client_behavior=ClientBehavior(mac_mask=mac_mask)))
    return deployment


def test_client_is_closed_loop(tiny_config):
    deployment = PbftDeployment(tiny_config, n_correct_clients=3, seed=1)
    deployment.run()
    for client in deployment.correct_clients:
        # One outstanding request at a time: timestamps are contiguous.
        assert client.timestamp >= client.completed_total
        assert client.timestamp - client.completed_total <= 1


def test_client_retransmits_when_primary_is_unreachable(tiny_config):
    # Cut the client->primary path only; retransmissions broadcast to all
    # replicas, so requests still complete (backups forward to the primary).
    fault = PartitionFault(frozenset({"client-0"}), frozenset({"replica-0"}))
    deployment = PbftDeployment(tiny_config, n_correct_clients=1, seed=2)
    deployment.install_attack(PbftAttack(network_faults=(fault,)))
    result = deployment.run()
    assert result.retransmissions > 0
    assert result.completed_requests > 0


def test_client_timeout_backs_off(tiny_config):
    # Drop ALL replica-bound traffic: the client can never complete and its
    # retransmissions must slow down over time (exponential backoff).
    replicas = frozenset(f"replica-{i}" for i in range(4))
    deployment = PbftDeployment(tiny_config, n_correct_clients=1, seed=3)
    deployment.install_attack(
        PbftAttack(network_faults=(DropFault(1.0, match_endpoints(dst=replicas)),))
    )
    deployment.run()
    client = deployment.correct_clients[0]
    assert client.completed_total == 0
    assert client._timeout_us == tiny_config.client_retransmit_max_us
    # 350 ms at 8/16/32/64 ms backoff: far fewer than 350/8 retransmissions.
    assert 3 <= client.transmissions <= 12


def test_client_learns_view_from_replies():
    config = tiny_pbft_config(measurement_us=500_000, crash_after_consecutive_view_changes=None)
    deployment = malicious_deployment(config, 4, mac_mask=0xFFF, seed=4)
    deployment.run()
    views = [client.view_hint for client in deployment.correct_clients]
    assert max(views) >= 1  # storms rotated the primary; clients noticed


def test_malicious_client_with_full_mask_never_completes(tiny_config):
    deployment = malicious_deployment(tiny_config, 2, mac_mask=0xFFF, seed=5)
    deployment.run()
    assert deployment.malicious_clients[0].completed_total == 0


def test_malicious_client_with_zero_mask_is_just_a_client(tiny_config):
    deployment = malicious_deployment(tiny_config, 2, mac_mask=0, seed=6)
    deployment.run()
    assert deployment.malicious_clients[0].completed_total > 0


def test_malicious_completions_do_not_count_in_impact_metric(tiny_config):
    deployment = malicious_deployment(tiny_config, 2, mac_mask=0, seed=7)
    result = deployment.run()
    correct_total = sum(c.completed_measured for c in deployment.correct_clients)
    assert result.completed_requests == correct_total
    assert deployment.malicious_clients[0].completed_measured == 0


def test_duplicate_replies_do_not_double_complete(tiny_config):
    # f+1 matching replies complete a request exactly once even though all
    # 3f+1 replicas reply.
    deployment = PbftDeployment(tiny_config, n_correct_clients=1, seed=8)
    result = deployment.run()
    client = deployment.correct_clients[0]
    assert client.completed_total == client.timestamp - (1 if client.outstanding else 0)
    assert result.completed_requests <= client.completed_total
