"""The differential-equivalence harness: fork ≡ from-scratch, bit for bit.

The snapshot optimization is only sound if a forked run is observationally
identical to running the same timed scenario from scratch. This harness
compares *execution checksums* — a SHA-256 over the run result, the
delivered-message count, the final clock, the executed-event count, and
every named metrics counter — across three configurations:

- forked (snapshot capture + fork, the optimized campaign path),
- from-scratch with forking disabled (same kernel),
- from-scratch on the test-local reference kernel (``tests/_reference.py``).

All three must be byte-identical, for both shipped targets.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import snapshot
from repro.sim import SECOND
from repro.sim import simulator as simulator_mod
from repro.sim.simulator import EventBudgetExceeded, event_budget
from tests._reference import reference_mode
from tests.snapshot.conftest import dht_spec, pbft_spec

SEEDS = (0, 7, 0xC0FFEE)


def execution_checksum(deployment, result) -> str:
    simulator = deployment.simulator
    counters = sorted(
        (name, counter.value) for name, counter in simulator.metrics.counters.items()
    )
    blob = repr(
        (
            result,
            deployment.network.messages_delivered,
            simulator.now,
            simulator.events_executed,
            counters,
        )
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_forked(spec, seed) -> str:
    assert snapshot.enabled(), "fork path requires snapshots on"
    deployment = spec.build(seed)
    return execution_checksum(deployment, deployment.run())


def run_scratch(spec, seed) -> str:
    with snapshot.disabled():
        deployment = spec.build(seed)
    return execution_checksum(deployment, deployment.run())


def run_reference(spec, seed) -> str:
    with reference_mode():
        deployment = spec.build(seed)
        return execution_checksum(deployment, deployment.run())


@pytest.mark.parametrize("make_spec", [pbft_spec, dht_spec], ids=["pbft", "dht"])
@pytest.mark.parametrize("seed", SEEDS)
def test_fork_matches_scratch_and_reference(make_spec, seed):
    spec = make_spec()
    forked = run_forked(spec, seed)
    assert forked == run_scratch(spec, seed), f"fork diverged from scratch at seed {seed}"
    assert forked == run_reference(spec, seed), (
        f"fork diverged from the reference kernel at seed {seed}"
    )


def test_fork_matches_scratch_under_retransmissions():
    """Big-MAC is the suffix that leans hardest on restored client state:
    starved clients retransmit the same digest (re-MACed per transmission,
    so the restored ``generateMAC`` cursor decides which tags are corrupt)
    through view changes. The measurement must not be able to tell a fork
    from a from-scratch run."""
    spec = pbft_spec(mac_mask=0xEEE, attack_start_pct=20)
    seed = 7
    deployment = spec.build(seed)
    forked = deployment.run()
    with snapshot.disabled():
        scratch_deployment = spec.build(seed)
    scratch = scratch_deployment.run()
    assert forked == scratch
    assert forked.retransmissions >= 8 and forked.view_changes > 0, (
        "the scenario no longer exercises retransmission"
    )
    assert execution_checksum(deployment, forked) == execution_checksum(
        scratch_deployment, scratch
    )


@pytest.mark.parametrize("make_spec", [pbft_spec, dht_spec], ids=["pbft", "dht"])
def test_cache_hit_fork_is_identical_to_cache_miss_fork(make_spec):
    """The second fork (cache hit) replays exactly like the first (capture)."""
    spec = make_spec()
    first = run_forked(spec, seed=42)
    assert snapshot.cache().stats()[2] >= 1  # the capture was a miss
    second = run_forked(spec, seed=42)
    assert snapshot.cache().hits >= 1
    assert first == second


@pytest.mark.parametrize("make_spec", [pbft_spec, dht_spec], ids=["pbft", "dht"])
def test_differing_attack_params_share_one_snapshot(make_spec):
    """Scenarios that differ only in attack parameters fork the same prefix."""
    if make_spec is pbft_spec:
        variants = [make_spec(), make_spec()]
        variants[1].mac_mask = 0b1111
        variants[1].malicious_broadcast = True
    else:
        variants = [make_spec(), make_spec()]
        variants[1].poison_rate = 0.3
        variants[1].fanout = 8
    for variant in variants:
        deployment = variant.build(123)
        deployment.run()
    entries, _, misses, _ = snapshot.cache().stats()
    assert entries == 1, "attack parameters leaked into the snapshot key"
    assert misses == 1


def test_attack_timing_changes_the_snapshot_key():
    """The activation time is prefix-relevant: different pct, different key."""
    early, late = pbft_spec(attack_start_pct=50), pbft_spec(attack_start_pct=80)
    assert early.snapshot_key(1) != late.snapshot_key(1)
    d_early, d_late = early.build(1), late.build(1)
    assert snapshot.cache().stats()[0] == 2
    # Later activation means a longer benign prefix.
    assert d_late.simulator.now > d_early.simulator.now


@pytest.mark.parametrize("make_spec", [pbft_spec, dht_spec], ids=["pbft", "dht"])
def test_budget_overrun_in_the_suffix_forks_like_scratch(make_spec, monkeypatch):
    """The event budget counts ``events_executed``, which rides in the
    snapshot: a fork and a from-scratch run trip at the same event."""
    spec, seed = make_spec(), 7
    prefix_events = spec.build_prefix(seed).simulator.events_executed
    with snapshot.disabled():
        full = spec.build(seed)
    full.run()
    nodes = len(full.network.endpoints)
    horizon_us = spec.config.warmup_us + spec.config.measurement_us
    halfway = (prefix_events + full.simulator.events_executed) // 2
    monkeypatch.setattr(
        simulator_mod, "EVENTS_PER_NODE_SECOND", halfway * SECOND // (nodes * horizon_us)
    )
    assert prefix_events < event_budget(nodes, horizon_us) < full.simulator.events_executed
    snapshot.reset_cache()

    def verdict():
        deployment = spec.build(seed)  # the prefix stays inside the budget
        with pytest.raises(EventBudgetExceeded) as overrun:
            deployment.run()
        return str(overrun.value)

    forked = verdict()
    assert snapshot.cache().stats()[2] == 1  # captured under the lowered budget
    with snapshot.disabled():
        assert verdict() == forked
