"""Snapshot-cache lifecycle: LRU bound, invalidation, and key hygiene.

The cache may only ever affect *wall-clock*, never results: an eviction
re-captures, a key mismatch re-builds, and a key that failed to encode a
prefix-relevant parameter would silently replay the wrong prefix — the
regression this file pins down.
"""

from __future__ import annotations

import pytest

import logging

from repro.core import run_campaign, snapshot
from repro.core.snapshot import SimSnapshot, SnapshotCache
from repro.core import AvdExploration, CampaignSpec
from repro.plugins import AttackTimingPlugin, MacCorruptionPlugin
from repro.sim.clock import MS
from repro.targets import DhtTarget, PbftTarget
from repro.targets.dht_target import RoutingPoisonPlugin
from repro.telemetry import RingBufferSink, TelemetryBus
from tests._strategies import trajectory
from tests.snapshot.conftest import micro_dht_config, micro_pbft_config, pbft_spec


class _Payload:
    """Minimal picklable stand-in for a captured deployment."""

    def __init__(self, tag):
        self.tag = tag
        self.simulator = self  # capture() reads deployment.simulator.now
        self.now = 17


def make_snapshot(key) -> SimSnapshot:
    return SimSnapshot.capture(key, _Payload(key))


# ---------------------------------------------------------------------------
# LRU bound
# ---------------------------------------------------------------------------
def test_lru_bound_holds_under_a_thousand_scenario_keys():
    """1000 distinct prefix keys through a bounded cache: size never exceeds
    the bound, everything above it is evicted oldest-first."""
    cache = SnapshotCache(max_entries=32)
    for index in range(1000):
        cache.put(make_snapshot(("scenario", index)))
        assert len(cache) <= 32
    assert cache.evictions == 1000 - 32
    # The survivors are exactly the 32 most recent keys.
    for index in range(1000 - 32, 1000):
        assert ("scenario", index) in cache
    assert ("scenario", 0) not in cache


def test_get_refreshes_recency():
    cache = SnapshotCache(max_entries=2)
    cache.put(make_snapshot("a"))
    cache.put(make_snapshot("b"))
    assert cache.get("a") is not None  # refresh "a"
    cache.put(make_snapshot("c"))  # evicts "b", the least recent
    assert "a" in cache and "c" in cache and "b" not in cache


def test_eviction_recaptures_on_next_use():
    cache = SnapshotCache(max_entries=1)
    builds = []

    def build(tag):
        def factory():
            builds.append(tag)
            return _Payload(tag)

        return factory

    cache.get_or_capture("x", build("x"))
    cache.get_or_capture("y", build("y"))  # evicts "x"
    cache.get_or_capture("x", build("x"))  # must rebuild, not resurrect
    assert builds == ["x", "y", "x"]
    assert cache.evictions == 2


def test_cache_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        SnapshotCache(max_entries=0)


# ---------------------------------------------------------------------------
# invalidation: the key encodes every prefix-relevant parameter
# ---------------------------------------------------------------------------
def test_deployment_template_change_misses_the_cache():
    """Changing the protocol config (the deployment template) must never
    reuse a snapshot captured under the old config."""
    seed = 5
    spec = pbft_spec()
    spec.build(seed)
    assert snapshot.cache().stats()[0] == 1
    changed = pbft_spec(config=micro_pbft_config(batch_interval_us=2 * MS))
    assert changed.snapshot_key(seed) != spec.snapshot_key(seed)
    changed.build(seed)
    entries, hits, misses, _ = snapshot.cache().stats()
    assert entries == 2 and misses == 2 and hits == 0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: setattr(s, "n_correct_clients", s.n_correct_clients + 1),
        lambda s: setattr(s, "n_malicious_clients", s.n_malicious_clients + 1),
        lambda s: setattr(s, "attack_start_pct", s.attack_start_pct + 10),
    ],
    ids=["n_correct", "n_malicious", "attack_start"],
)
def test_prefix_relevant_parameters_never_collide(mutate):
    base = pbft_spec()
    other = pbft_spec()
    mutate(other)
    assert base.snapshot_key(9) != other.snapshot_key(9)


def test_seed_is_part_of_the_key():
    spec = pbft_spec()
    assert spec.snapshot_key(1) != spec.snapshot_key(2)


def test_stale_snapshot_regression_poisoned_key_diverges():
    """Regression guard for key-collision bugs: if a snapshot captured for
    one prefix were served for another (here: planted deliberately), the
    forked result diverges from scratch — exactly what the differential
    harness exists to catch. With honest keys the divergence disappears."""
    seed = 31
    fast = pbft_spec()  # activation at 60%
    slow = pbft_spec(attack_start_pct=80)
    poisoned = SimSnapshot(
        key=slow.snapshot_key(seed),
        taken_at_us=0,
        payload=snapshot.cache()
        .get_or_capture(fast.snapshot_key(seed), lambda: fast.build_prefix(seed))
        .payload,
    )
    snapshot.cache().put(poisoned)
    wrong = slow.build(seed).run()
    with snapshot.disabled():
        truth = slow.build(seed).run()
    assert wrong != truth, "a poisoned cache entry went undetected"
    # Honest cache: the same scenario forks correctly.
    snapshot.reset_cache()
    assert slow.build(seed).run() == truth


# ---------------------------------------------------------------------------
# campaign-scale behaviour under a tight bound
# ---------------------------------------------------------------------------
def test_bounded_cache_campaign_matches_unbounded_and_scratch():
    """More prefix classes than cache slots: evictions happen, results don't
    change."""
    config = micro_pbft_config()

    def run_trajectory():
        plugins = [MacCorruptionPlugin(), AttackTimingPlugin((50, 60, 70, 80))]
        target = PbftTarget(plugins, config=config)
        strategy = AvdExploration(target, plugins, seed=3)
        return trajectory(run_campaign(strategy, CampaignSpec(budget=10)).results)

    snapshot.reset_cache(max_entries=2)
    bounded = run_trajectory()
    assert snapshot.cache().stats()[0] <= 2
    snapshot.reset_cache()
    unbounded = run_trajectory()
    with snapshot.disabled():
        scratch = run_trajectory()
    assert bounded == unbounded == scratch


# ---------------------------------------------------------------------------
# warm-up: the prefixes captured ahead of time are the ones scenarios ask for
# ---------------------------------------------------------------------------
def timed_pbft_target():
    plugins = [MacCorruptionPlugin(), AttackTimingPlugin((50, 70))]
    return PbftTarget(plugins, config=micro_pbft_config()), plugins


def timed_dht_target():
    plugins = [
        RoutingPoisonPlugin(max_fanout=4, malicious_choices=(1,)),
        AttackTimingPlugin((50, 70)),
    ]
    return DhtTarget(plugins, config=micro_dht_config(), n_correct=6), plugins


both_targets = pytest.mark.parametrize(
    "make_target", [timed_pbft_target, timed_dht_target], ids=["pbft", "dht"]
)


@both_targets
def test_warmed_campaign_misses_only_during_warm_up(make_target):
    """Warm-up and the executor derive prefix seeds from one scope string
    through one function; if either side drifted, every warm capture would
    be a silent miss and the campaign would capture everything again."""
    target, plugins = make_target()
    target.warm_caches(campaign_seed=11)
    cache = snapshot.cache()
    captures = cache.misses
    assert captures == len(cache) == 2
    run_campaign(AvdExploration(target, plugins, seed=11), CampaignSpec(budget=8))
    assert cache.misses == captures, "a scenario asked for a prefix warm-up did not capture"
    assert cache.hits == 8


@both_targets
def test_second_campaign_warms_past_stale_entries(make_target):
    """A cache full of the previous campaign's prefixes must not starve the
    next campaign's warm-up: it warms up to capacity, the LRU evicts the
    stale keys, and the campaign itself never captures."""
    snapshot.reset_cache(max_entries=2)
    cache = snapshot.cache()
    for campaign_seed in (3, 4):
        target, plugins = make_target()
        target.warm_caches(campaign_seed=campaign_seed)
        warmed_misses = cache.misses
        run_campaign(AvdExploration(target, plugins, seed=campaign_seed), CampaignSpec(budget=6))
        assert cache.misses == warmed_misses, f"campaign {campaign_seed} captured mid-run"
    assert cache.stats() == (2, 12, 4, 2)


def test_warm_up_stops_at_capacity():
    """More reachable prefixes than slots: warm-up captures ``max_entries``
    of them and stops, instead of evicting what it has just captured."""
    snapshot.reset_cache(max_entries=2)
    plugins = [MacCorruptionPlugin(), AttackTimingPlugin((50, 60, 70, 80))]
    PbftTarget(plugins, config=micro_pbft_config()).warm_caches(campaign_seed=1)
    assert snapshot.cache().stats() == (2, 0, 2, 0)


# ---------------------------------------------------------------------------
# observability: the cache reports itself on the logger, never on the bus
# ---------------------------------------------------------------------------
def test_payload_bytes_sums_the_entries():
    cache = SnapshotCache(max_entries=2)
    assert cache.payload_bytes == 0
    sizes = [cache.put(make_snapshot(tag)).size_bytes for tag in ("a", "b", "c")]
    assert cache.payload_bytes == sizes[1] + sizes[2]  # "a" was evicted
    assert len(cache.stats()) == 4


def test_capture_and_campaign_summary_are_logged_off_the_canonical_stream(caplog):
    def run(sink):
        snapshot.reset_cache()
        target, plugins = timed_pbft_target()
        target.warm_caches(campaign_seed=11)
        spec = CampaignSpec(budget=6, telemetry=TelemetryBus(sinks=(sink,)))
        run_campaign(AvdExploration(target, plugins, seed=11), spec)

    quiet, logged = RingBufferSink(), RingBufferSink()
    run(quiet)
    with caplog.at_level(logging.DEBUG, logger="repro.core.snapshot"):
        run(logged)
    records = [r for r in caplog.records if r.name == "repro.core.snapshot"]
    captures = [r for r in records if r.levelno == logging.DEBUG]
    summaries = [r for r in records if r.levelno == logging.INFO]
    assert len(captures) == 2 and len(summaries) == 1
    cache = snapshot.cache()
    for record, pct in zip(captures, (50, 70)):
        message = record.getMessage()
        assert f"captured pbft:10:1:{pct}:" in message and " us: " in message
        assert message.endswith(f"{record.args[2]} bytes") and record.args[2] > 0
    assert summaries[0].getMessage() == (
        f"snapshot cache: 2 entries, 6 hits, 2 misses, 0 evictions, {cache.payload_bytes} bytes"
    )
    assert quiet.to_lines() == logged.to_lines()
