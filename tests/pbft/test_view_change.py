"""View-change protocol mechanics."""

from repro.pbft import ClientBehavior, PbftAttack, PbftDeployment, run_deployment
from tests.conftest import tiny_pbft_config


STORM = PbftAttack(client_behavior=ClientBehavior(mac_mask=0xFFF))


def storm_deployment(**overrides):
    """A deployment under a permanent view-change storm (mask 0xFFF)."""
    overrides.setdefault("crash_after_consecutive_view_changes", None)
    overrides.setdefault("measurement_us", 500_000)
    config = tiny_pbft_config(**overrides)
    deployment = PbftDeployment(config, n_correct_clients=6, n_malicious_clients=1, seed=9)
    deployment.install_attack(STORM)
    return deployment


def test_view_changes_rotate_the_primary():
    deployment = storm_deployment()
    deployment.run()
    views = {replica.view for replica in deployment.replicas}
    assert max(views) >= 2  # several new views installed
    for replica in deployment.replicas:
        expected_primary = deployment.replicas[replica.view % 4].name
        assert replica.primary_of(replica.view) == expected_primary


def test_replicas_agree_on_view_after_storm():
    deployment = storm_deployment()
    deployment.run()
    views = [replica.view for replica in deployment.replicas]
    assert max(views) - min(views) <= 1  # at most one install in flight


def test_new_view_does_not_regress_sequence_counter():
    # Regression test for the bug where a new primary's seq counter fell
    # below the execution frontier, stranding all post-view-change batches.
    deployment = storm_deployment()
    deployment.run()
    for replica in deployment.replicas:
        assert replica.seq_counter >= replica.last_executed or not replica.is_primary


def test_correct_clients_keep_making_progress_across_view_changes():
    deployment = storm_deployment()
    result = deployment.run()
    # The storm interrupts but between view changes the correct clients
    # are served (no crash model in this configuration).
    assert result.completed_requests > 0
    assert result.new_views > 0


def test_progress_resumes_in_each_new_view():
    deployment = storm_deployment()
    deployment.run()
    # Execution frontier advances well past the first view's batches.
    frontier = max(replica.last_executed for replica in deployment.replicas)
    first_view_batches = 50
    assert frontier > first_view_batches


def test_state_digests_stay_consistent_across_view_changes():
    deployment = storm_deployment()
    deployment.run()
    frontiers = {}
    for replica in deployment.replicas:
        frontiers.setdefault(replica.last_executed, set()).add(replica.state_digest)
    for digests in frontiers.values():
        assert len(digests) == 1  # same frontier -> same state


def test_crash_threshold_counts_only_unresolved_suspicion():
    # With the crash model on, the storm kills replicas...
    crashing = run_deployment(
        tiny_pbft_config(measurement_us=500_000, crash_after_consecutive_view_changes=3),
        n_correct_clients=6,
        attack=STORM,
        n_malicious_clients=1,
        seed=9,
    )
    assert crashing.crashed_replicas >= 3
    # ...but a healthy system with the same threshold never crashes.
    healthy = run_deployment(
        tiny_pbft_config(measurement_us=500_000, crash_after_consecutive_view_changes=3),
        n_correct_clients=6,
        seed=9,
    )
    assert healthy.crashed_replicas == 0
