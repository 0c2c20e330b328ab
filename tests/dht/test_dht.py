"""DHT substrate: IDs, k-buckets, lookups, and the redirection attack."""

import pytest
from hypothesis import given, strategies as st

from repro.dht import (
    DhtAttack,
    DhtConfig,
    DhtDeployment,
    bucket_index,
    closest,
    key_id,
    node_id,
    run_dht_deployment,
    xor_distance,
)
from repro.dht.routing import KBucket, RoutingTable


# ---------------------------------------------------------------------------
# identifiers and the XOR metric
# ---------------------------------------------------------------------------
def test_node_ids_are_stable_and_distinct():
    assert node_id("a") == node_id("a")
    assert node_id("a") != node_id("b")
    assert key_id("a") != node_id("a")


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_xor_metric_axioms(a, b):
    assert xor_distance(a, a) == 0
    assert xor_distance(a, b) == xor_distance(b, a)


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_xor_unique_closest_point(a, b, target):
    # For XOR, ties are impossible unless a == b.
    if a != b:
        assert xor_distance(a, target) != xor_distance(b, target)


def test_bucket_index_is_log_distance():
    own = 0b1000
    assert bucket_index(own, 0b1001) == 0
    assert bucket_index(own, 0b1100) == 2
    assert bucket_index(own, 0b0000) == 3


def test_bucket_index_rejects_self():
    with pytest.raises(ValueError):
        bucket_index(5, 5)


def test_closest_orders_by_distance():
    ids = [0b0001, 0b0010, 0b0100, 0b1000]
    assert closest(ids, 0b0011, 2) == [0b0010, 0b0001]


# ---------------------------------------------------------------------------
# routing tables
# ---------------------------------------------------------------------------
def test_kbucket_eviction_keeps_old_contacts():
    bucket = KBucket(k=2)
    assert bucket.observe(1, "a")
    assert bucket.observe(2, "b")
    assert not bucket.observe(3, "c")  # full: newcomer dropped
    assert [cid for cid, _ in bucket.contacts()] == [1, 2]


def test_kbucket_observe_refreshes_recency():
    bucket = KBucket(k=3)
    for cid in (1, 2, 3):
        bucket.observe(cid, str(cid))
    bucket.observe(1, "1")
    assert [cid for cid, _ in bucket.contacts()] == [2, 3, 1]


def test_routing_table_never_stores_self():
    table = RoutingTable(own_id=42)
    assert not table.observe(42, "self")
    assert len(table) == 0


def test_routing_table_closest_across_buckets():
    table = RoutingTable(own_id=0, k=4)
    for cid in (1, 2, 4, 8, 16, 32):
        table.observe(cid, str(cid))
    names = [cid for cid, _ in table.closest(3, 3)]
    assert names == [2, 1, 4]


def test_routing_table_remove():
    table = RoutingTable(own_id=0, k=4)
    table.observe(7, "x")
    table.remove(7)
    assert len(table) == 0


# ---------------------------------------------------------------------------
# deployments: healthy swarm
# ---------------------------------------------------------------------------
def small_config(**overrides):
    defaults = dict(warmup_us=200_000, measurement_us=800_000, lookup_interval_us=50_000)
    defaults.update(overrides)
    return DhtConfig(**defaults)


def test_healthy_swarm_completes_lookups():
    result = run_dht_deployment(small_config(), n_correct=15, n_malicious=0, seed=1)
    assert result.lookups_completed > 50
    assert result.victim_messages == 0
    assert result.amplification == 0.0


def test_lookups_converge_to_closest_nodes():
    deployment = DhtDeployment(small_config(), n_correct=15, seed=2)
    deployment.simulator.run(until=500_000)
    node = deployment.correct_nodes[0]
    everyone = {n.id for n in deployment.correct_nodes if n is not node}
    target = 0xDEADBEEF
    node.start_lookup(target)
    deployment.simulator.run(until=900_000)
    # The node discovered (queried) the globally closest node to the target.
    best = min(everyone, key=lambda i: xor_distance(i, target))
    known = {cid for cid, _ in node.table.all_contacts()}
    assert best in known


def test_deterministic_given_seed():
    first = run_dht_deployment(
        small_config(), n_correct=12, attack=DhtAttack(), n_malicious=1, seed=5
    )
    second = run_dht_deployment(
        small_config(), n_correct=12, attack=DhtAttack(), n_malicious=1, seed=5
    )
    assert first.victim_messages == second.victim_messages
    assert first.lookups_completed == second.lookups_completed


def test_requires_two_correct_nodes():
    with pytest.raises(ValueError):
        DhtDeployment(small_config(), n_correct=1)


# ---------------------------------------------------------------------------
# the redirection attack (experiment D1)
# ---------------------------------------------------------------------------
def test_one_attacker_redirects_traffic_at_victim():
    result = run_dht_deployment(
        small_config(), n_correct=20, attack=DhtAttack(), n_malicious=1, seed=3
    )
    assert result.victim_messages > 0
    assert result.amplification > 1.0  # the attacker gets leverage


def test_amplification_grows_with_fanout():
    low = run_dht_deployment(small_config(), 20, DhtAttack(fanout=1), 1, seed=3)
    high = run_dht_deployment(small_config(), 20, DhtAttack(fanout=8), 1, seed=3)
    assert high.victim_messages > low.victim_messages


def test_victim_load_scales_with_poison_rate():
    off = run_dht_deployment(small_config(), 20, DhtAttack(poison_rate=0.0), 1, seed=3)
    on = run_dht_deployment(small_config(), 20, DhtAttack(), 1, seed=3)
    assert off.victim_messages == 0
    assert on.victim_messages > 0


def test_victim_outside_the_swarm_never_replies():
    deployment = DhtDeployment(small_config(), 20, 1, seed=3)
    deployment.install_attack(DhtAttack(poison_rate=1.0, fanout=8))
    deployment.run()
    assert deployment.victim.received > 0
    # The victim sends nothing back (pure DoS sink).
    assert deployment.network.delivered_per_endpoint.get("victim", 0) == deployment.victim.received


def test_two_attackers_hit_harder_than_one():
    one = run_dht_deployment(small_config(), 20, DhtAttack(), 1, seed=3)
    two = run_dht_deployment(small_config(), 20, DhtAttack(), 2, seed=3)
    assert two.victim_messages > one.victim_messages


def test_poison_parameters_validated():
    with pytest.raises(ValueError):
        run_dht_deployment(small_config(), 10, DhtAttack(poison_rate=1.5), 1)
    with pytest.raises(ValueError):
        run_dht_deployment(small_config(), 10, DhtAttack(fanout=0), 1)
