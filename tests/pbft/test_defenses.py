"""Aardvark-style defenses vs the paper's attacks."""

import pytest

from repro.pbft import (
    ClientBehavior,
    DefenseConfig,
    PbftAttack,
    ReplicaBehavior,
    SlowPrimaryPolicy,
    run_deployment,
)
from tests.conftest import tiny_pbft_config


def hardened_config(**overrides):
    overrides.setdefault("defenses", DefenseConfig.aardvark())
    return tiny_pbft_config(**overrides)


def slow_primary(serve_only=None):
    return ReplicaBehavior(slow_primary=SlowPrimaryPolicy(serve_only_client=serve_only))


def mac_attack(mask):
    return PbftAttack(client_behavior=ClientBehavior(mac_mask=mask))


def test_defense_config_validation():
    with pytest.raises(ValueError):
        DefenseConfig(min_throughput_fraction=0.0)
    with pytest.raises(ValueError):
        DefenseConfig(min_throughput_fraction=1.0)
    with pytest.raises(ValueError):
        DefenseConfig(blacklist_threshold=0)


def test_defaults_are_all_off():
    config = DefenseConfig()
    assert not config.any_enabled()
    assert DefenseConfig.aardvark().any_enabled()


def test_defenses_do_not_hurt_benign_throughput():
    vanilla = run_deployment(tiny_pbft_config(), 8, seed=1)
    hardened = run_deployment(hardened_config(), 8, seed=1)
    assert hardened.throughput_rps > vanilla.throughput_rps * 0.85
    assert hardened.view_changes == 0


def test_rotation_defeats_the_slow_primary():
    attack = PbftAttack(replica_behaviors={0: slow_primary()})
    vanilla = run_deployment(tiny_pbft_config(), 8, attack, seed=2)
    hardened = run_deployment(hardened_config(), 8, attack, seed=2)
    assert vanilla.completed_requests <= 8  # the bug in action
    assert hardened.view_changes >= 1  # the primary gets deposed
    assert hardened.completed_requests > vanilla.completed_requests * 10


def test_rotation_defeats_the_colluding_variant():
    hardened = run_deployment(
        hardened_config(),
        8,
        PbftAttack(
            client_behavior=ClientBehavior(broadcast_always=True),
            replica_behaviors={0: slow_primary(serve_only="mclient-0")},
        ),
        n_malicious_clients=1,
        seed=3,
    )
    assert hardened.completed_requests > 100


def test_signatures_remove_the_bigmac_asymmetry():
    # Primary-valid-but-backup-invalid masks are the Big MAC fuel; with
    # signature verification the primary rejects them too.
    config = tiny_pbft_config(
        defenses=DefenseConfig(client_signatures=True),
        measurement_us=500_000,
        crash_after_consecutive_view_changes=3,
    )
    benign = run_deployment(config, 8, seed=4)
    attacked = run_deployment(config, 8, mac_attack(0x00E), n_malicious_clients=1, seed=4)
    assert attacked.throughput_rps > benign.throughput_rps * 0.7
    assert attacked.crashed_replicas == 0


def test_blacklisting_stops_the_corrupt_retransmission_storm():
    config = tiny_pbft_config(
        defenses=DefenseConfig(client_signatures=True, client_blacklisting=True),
        measurement_us=500_000,
        crash_after_consecutive_view_changes=3,
    )
    attacked = run_deployment(config, 8, mac_attack(0xFFF), n_malicious_clients=1, seed=5)
    assert attacked.crashed_replicas == 0
    benign = run_deployment(config, 8, seed=5)
    assert attacked.throughput_rps > benign.throughput_rps * 0.7


def test_blacklist_threshold_is_honored():
    from repro.pbft import PbftDeployment

    config = tiny_pbft_config(
        defenses=DefenseConfig(client_blacklisting=True, blacklist_threshold=3),
        measurement_us=500_000,
        crash_after_consecutive_view_changes=None,
    )
    deployment = PbftDeployment(config, 4, n_malicious_clients=1, seed=6)
    deployment.install_attack(mac_attack(0xFFF))
    deployment.run()
    # Every replica eventually blacklists the all-corrupt client.
    blacklisting = [r for r in deployment.replicas if "mclient-0" in r.blacklisted]
    assert len(blacklisting) == 4


def test_correct_clients_are_never_blacklisted():
    from repro.pbft import PbftDeployment

    deployment_config = hardened_config()
    from repro.pbft import PbftDeployment as Deployment

    deployment = Deployment(deployment_config, 6, seed=7)
    deployment.run()
    for replica in deployment.replicas:
        assert replica.blacklisted == set()
