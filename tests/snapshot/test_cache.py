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
from repro.sim.trace import set_kind_capture
from repro.targets import DhtTarget, PbftTarget
from repro.targets.dht_target import RoutingPoisonPlugin
from repro.telemetry import RingBufferSink, TelemetryBus
from tests._strategies import trajectory
from tests.snapshot.conftest import dht_spec, micro_dht_config, micro_pbft_config, pbft_spec


class _Payload:
    """Minimal picklable stand-in for a captured deployment."""

    def __init__(self, tag):
        self.tag = tag
        self.simulator = self  # capture() reads deployment.simulator.now
        self.now = 17

    def close(self):
        """get_or_capture closes a prefix once it is pickled."""


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


def test_scope_and_key_spellings_are_pinned():
    """Both targets' specs spell their scope strings and keys through one
    base; the spellings are what seed every scenario of a class and address
    the cache, so any drift would move every timed trajectory."""
    previous = set_kind_capture(False)
    try:
        pbft_config, dht_config = micro_pbft_config(), micro_dht_config()
        pbft, dht = pbft_spec(config=pbft_config), dht_spec(config=dht_config)
        assert pbft.seed_scope() == "pbft-prefix:3:1:60"
        assert pbft.snapshot_key(5) == ("pbft", pbft_config, 3, 1, 60, 5, False)
        assert dht.seed_scope() == "dht-prefix:6:1:60"
        assert dht.snapshot_key(5) == ("dht", dht_config, 6, 1, 60, 5, False)
        set_kind_capture(True)
        assert pbft.snapshot_key(5)[-1] is True and dht.snapshot_key(5)[-1] is True
    finally:
        set_kind_capture(previous)
    assert pbft_spec(attack_start_pct=None).seed_scope() is None
    assert dht_spec(attack_start_pct=None).seed_scope() is None


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
# capture on first use: a campaign captures exactly the prefixes it reaches
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


@pytest.mark.parametrize(
    "make_target", [timed_pbft_target, timed_dht_target], ids=["pbft", "dht"]
)
def test_cold_campaign_captures_each_reached_prefix_once(make_target):
    """The first scenario of each prefix shape captures it and every later
    one forks it: misses are the distinct shapes the campaign executed, and
    every other scenario is a hit. A shape the search never reached is
    never captured."""
    budget = 8
    target, plugins = make_target()
    results = run_campaign(
        AvdExploration(target, plugins, seed=11), CampaignSpec(budget=budget)
    ).results
    shapes = {target.seed_scope(result.params) for result in results}
    assert None not in shapes
    cache = snapshot.cache()
    assert cache.misses == len(shapes) == len(cache)
    assert cache.hits == budget - cache.misses


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
        spec = CampaignSpec(budget=6, telemetry=TelemetryBus(sinks=(sink,)))
        return run_campaign(AvdExploration(target, plugins, seed=11), spec).results

    quiet, logged = RingBufferSink(), RingBufferSink()
    run(quiet)
    with caplog.at_level(logging.DEBUG, logger="repro.core.snapshot"):
        results = run(logged)
    records = [r for r in caplog.records if r.name == "repro.core.snapshot"]
    captures = [r for r in records if r.levelno == logging.DEBUG]
    summaries = [r for r in records if r.levelno == logging.INFO]
    # Captured on first use: in the order the campaign first reached them.
    first_reached = list(dict.fromkeys(result.params["attack_start_pct"] for result in results))
    assert len(captures) == len(first_reached) == 2 and len(summaries) == 1
    cache = snapshot.cache()
    for record, pct in zip(captures, first_reached):
        message = record.getMessage()
        assert f"captured pbft:10:1:{pct}:" in message and " us: " in message
        assert message.endswith(f"{record.args[2]} bytes") and record.args[2] > 0
    assert summaries[0].getMessage() == (
        f"snapshot cache: 2 entries, 4 hits, 2 misses, 0 evictions, {cache.payload_bytes} bytes"
    )
    assert quiet.to_lines() == logged.to_lines()
