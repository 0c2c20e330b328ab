"""The paper's PBFT attacks, as integration tests (experiments A1/A2).

Mask notation: bit (n % 12) corrupts the n-th generateMAC call; each
transmission round covers 4 calls (one per replica). A replica column
``{b, b+4, b+8}`` fully set means that replica can never authenticate the
malicious client.
"""

import pytest

from repro.pbft import (
    ClientBehavior,
    PbftAttack,
    PbftDeployment,
    ReplicaBehavior,
    SlowPrimaryPolicy,
    run_deployment,
)
from tests.conftest import tiny_pbft_config


@pytest.fixture(scope="module")
def baseline():
    return run_deployment(tiny_pbft_config(), n_correct_clients=10, seed=42)


def attack(mask, clients=10, seed=42, **config_overrides):
    # Storms need a few view-change periods to unfold: give attack runs a
    # longer window and the crash threshold scaled to it.
    config_overrides.setdefault("measurement_us", 500_000)
    config_overrides.setdefault("crash_after_consecutive_view_changes", 3)
    return run_deployment(
        tiny_pbft_config(**config_overrides),
        n_correct_clients=clients,
        attack=PbftAttack(client_behavior=ClientBehavior(mac_mask=mask)),
        n_malicious_clients=1,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# A1: the Big MAC family
# ---------------------------------------------------------------------------
def test_benign_mask_has_no_impact(baseline):
    result = attack(0x000)
    assert result.throughput_rps == pytest.approx(baseline.throughput_rps, rel=0.15)
    assert result.view_changes == 0


def test_poison_mask_stalls_execution(baseline):
    # Round 0: primary's tag valid, backups corrupted -> the poisoned
    # sequence number blocks in-order execution until retransmissions heal.
    result = attack(0x00E)
    assert result.throughput_rps < baseline.throughput_rps * 0.2


def test_first_round_only_corruption_is_harmless(baseline):
    # The paper's observation: if every retransmission is correct, the
    # system recovers without a view change (the shared timer masks it).
    result = attack(0x00F)
    assert result.view_changes == 0
    assert result.throughput_rps > baseline.throughput_rps * 0.7


def test_always_corrupt_mask_causes_view_change_storm_and_crash():
    # "by corrupting the MAC in all messages sent by a malicious client,
    # PBFT will perform a view change and crash" (Sec. 6).
    result = attack(0xFFF)
    assert result.view_changes > 0
    assert result.crashed_replicas >= 3
    assert result.tail_throughput_rps < 100


def test_two_always_corrupt_columns_storm(baseline):
    # Columns r2, r3 fully set: every primary either cannot authenticate
    # the client or stalls on a poisoned sequence number.
    mask = (1 << 2 | 1 << 3) | (1 << 6 | 1 << 7) | (1 << 10 | 1 << 11)  # 0xCCC
    result = attack(mask)
    assert result.view_changes > 0
    assert result.tail_throughput_rps < baseline.tail_throughput_rps * 0.2


def test_single_corrupt_column_heals_after_view_change(baseline):
    # Only replica-0's column set: once replica-1 takes over as primary the
    # malicious client is served and the storm stops.
    result = attack(0x111)
    assert result.crashed_replicas == 0
    assert result.throughput_rps > baseline.throughput_rps * 0.6


def test_impact_grades_across_masks(baseline):
    # The hyperspace has a gradient, not a cliff — that is what makes
    # hill-climbing work (Sec. 6 / Figure 3).
    harmless = attack(0x00F).throughput_rps
    stall = attack(0x00E).throughput_rps
    storm = attack(0xFFF).tail_throughput_rps
    assert storm < stall < harmless


def test_crash_model_can_be_disabled():
    result = attack(0xFFF, crash_after_consecutive_view_changes=None)
    assert result.crashed_replicas == 0
    assert result.view_changes > 0  # the storm persists, nobody dies


def test_bad_macs_are_counted(baseline):
    result = attack(0xFFF)
    assert result.bad_mac_rejections > 0
    assert baseline.bad_mac_rejections == 0


# ---------------------------------------------------------------------------
# A2: the slow primary (shared-timer bug)
# ---------------------------------------------------------------------------
def slow_primary(serve_only=None):
    return ReplicaBehavior(
        slow_primary=SlowPrimaryPolicy(serve_only_client=serve_only)
    )


def test_slow_primary_throttles_to_one_request_per_period(baseline):
    config = tiny_pbft_config()
    result = run_deployment(
        config,
        n_correct_clients=10,
        attack=PbftAttack(replica_behaviors={0: slow_primary()}),
        seed=42,
    )
    # One request per 0.8 * 80 ms tick over a 300 ms window: a handful.
    assert result.completed_requests <= 8
    assert result.view_changes == 0  # the bug: nobody suspects the primary


def test_colluding_client_zeroes_useful_throughput():
    result = run_deployment(
        tiny_pbft_config(),
        n_correct_clients=10,
        attack=PbftAttack(
            client_behavior=ClientBehavior(broadcast_always=True),
            replica_behaviors={0: slow_primary(serve_only="mclient-0")},
        ),
        n_malicious_clients=1,
        seed=42,
    )
    assert result.completed_requests == 0
    assert result.view_changes == 0


def test_per_request_timers_fix_the_slow_primary(baseline):
    config = tiny_pbft_config(per_request_timers=True)
    result = run_deployment(
        config,
        n_correct_clients=10,
        attack=PbftAttack(replica_behaviors={0: slow_primary()}),
        seed=42,
    )
    # The fixed implementation deposes the slow primary and recovers.
    assert result.view_changes >= 1
    assert result.throughput_rps > baseline.throughput_rps * 0.4


def test_per_request_timers_fix_the_colluding_variant():
    config = tiny_pbft_config(per_request_timers=True)
    result = run_deployment(
        config,
        n_correct_clients=10,
        attack=PbftAttack(
            client_behavior=ClientBehavior(broadcast_always=True),
            replica_behaviors={0: slow_primary(serve_only="mclient-0")},
        ),
        n_malicious_clients=1,
        seed=42,
    )
    assert result.view_changes >= 1
    assert result.completed_requests > 0


# ---------------------------------------------------------------------------
# malicious replica message synthesis
# ---------------------------------------------------------------------------
def test_lone_spurious_view_change_is_harmless(baseline):
    behavior = ReplicaBehavior(synthesize_interval_us=10_000, synthesize_kind="view_change")
    result = run_deployment(
        tiny_pbft_config(),
        n_correct_clients=10,
        attack=PbftAttack(replica_behaviors={1: behavior}),
        seed=42,
    )
    # f+1 replicas must suspect the primary before a view change happens;
    # one liar alone cannot force it.
    assert result.new_views == 0
    assert result.throughput_rps > baseline.throughput_rps * 0.7


def test_bogus_prepare_votes_cannot_complete_quorums(baseline):
    behavior = ReplicaBehavior(synthesize_interval_us=5_000, synthesize_kind="prepare")
    result = run_deployment(
        tiny_pbft_config(),
        n_correct_clients=10,
        attack=PbftAttack(replica_behaviors={1: behavior}),
        seed=42,
    )
    assert result.throughput_rps > baseline.throughput_rps * 0.7
