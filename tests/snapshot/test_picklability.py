"""Picklability property tests for the snapshot-captured object graph.

A snapshot is only as good as ``pickle`` round-tripping the deployment
faithfully: every RNG stream, queue entry, and node state must survive, and
derived closure state (the network fast paths) must be rebuilt — not
smuggled through the pickle, where it would resurrect stale references.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc

import pytest

from repro.core import snapshot
from repro.core.snapshot import SimSnapshot, SnapshotError
from repro.dht import DhtConfig
from repro.pbft import PbftConfig
from repro.sim.network import Network
from repro.targets.pbft_target import PbftScenarioSpec
from tests._strategies import seed_sweep
from tests.snapshot.conftest import dht_spec, pbft_spec


def capture_prefix(spec, seed) -> SimSnapshot:
    return SimSnapshot.capture(spec.snapshot_key(seed), spec.build_prefix(seed))


@pytest.mark.parametrize("make_spec", [pbft_spec, dht_spec], ids=["pbft", "dht"])
def test_prefix_deployment_round_trips(make_spec, sweep_size):
    """pickle.loads(pickle.dumps(prefix)) restores clock, queue, and RNG."""
    spec = make_spec()
    for seed in seed_sweep(sweep_size(20, 5), "pickle-roundtrip"):
        prefix = spec.build_prefix(seed)
        restored = pickle.loads(pickle.dumps(prefix))
        assert restored.simulator.now == prefix.simulator.now
        assert restored.simulator.events_executed == prefix.simulator.events_executed
        assert len(restored.simulator.queue) == len(prefix.simulator.queue)
        # The RNG streams resume exactly where the originals stopped: both
        # copies must produce the same suffix when run out benignly.
        assert restored.run() == prefix.run()


@pytest.mark.parametrize("make_spec", [pbft_spec, dht_spec], ids=["pbft", "dht"])
def test_forks_are_fully_independent(make_spec):
    """Two forks of one snapshot share no mutable state: running one to
    completion leaves the other's outcome unchanged."""
    spec = make_spec()
    snap = capture_prefix(spec, seed=8)
    first, second = snap.fork(), snap.fork()
    assert first is not second
    assert first.simulator is not second.simulator
    assert first.network is not second.network
    first.install_attack(spec.attack())
    second.install_attack(spec.attack())
    result_first = first.run()  # mutates `first` all the way to the horizon
    assert second.run() == result_first


def test_fork_does_not_consume_the_snapshot():
    """The cached payload is immutable; forking twice yields equal runs."""
    spec = pbft_spec()
    snap = capture_prefix(spec, seed=4)
    payload_before = snap.payload
    runs = []
    for _ in range(2):
        deployment = snap.fork()
        deployment.install_attack(spec.attack())
        runs.append(deployment.run())
    assert runs[0] == runs[1]
    assert snap.payload == payload_before


def test_network_derived_closures_are_rebuilt_not_pickled():
    """The network's fused fast paths close over the queue; pickling them
    would resurrect a second, stale event queue inside the restored graph."""
    spec = pbft_spec()
    prefix = spec.build_prefix(3)
    state = prefix.network.__getstate__()
    for attr in Network._DERIVED_ATTRS:
        assert attr not in state, f"derived attribute {attr} leaked into pickle"
    restored = pickle.loads(pickle.dumps(prefix))
    for attr in Network._DERIVED_ATTRS:
        assert getattr(restored.network, attr) is not None, (
            f"derived attribute {attr} not rebuilt after restore"
        )
    # The rebuilt closures must target the *restored* queue, not a copy:
    # scheduling through the network must land in the restored simulator.
    src, dst, *_ = sorted(restored.network._handlers)
    before = len(restored.simulator.queue)
    restored.network.send(src, dst, ("probe", b""))
    assert len(restored.simulator.queue) == before + 1


def test_restored_fused_paths_push_onto_the_restored_heap():
    """A forked deployment's fused send and timer paths push onto its own
    heap: never onto the heap of the deployment the snapshot was captured
    from, nor onto a sibling fork's."""
    spec = pbft_spec()
    prefix = spec.build_prefix(3)
    snap = SimSnapshot.capture(spec.snapshot_key(3), prefix)
    restored, sibling = snap.fork(), snap.fork()
    heap = restored.simulator.queue._heap
    assert any(part is heap for part in restored.network._lan)
    others = (prefix.simulator.queue._heap, sibling.simulator.queue._heap)
    sizes_before = [len(other) for other in others]
    client = restored.correct_clients[0]
    replica = restored.replicas[1]
    before = len(heap)
    assert client.send(replica.name, ("probe", b""))
    client.set_timer(1, client.name.upper)
    assert len(heap) == before + 2
    assert [len(other) for other in others] == sizes_before
    # The early-bound delivery calls the restored replica's handler.
    (delivery,) = [entry for entry in heap if entry[4] == replica.name]
    assert delivery[2].__self__ is replica


#: What a campaign-scale prefix may weigh. In-flight state (unstable log
#: entries, queued events) oscillates between ~70 and ~330 KB with log GC;
#: anything that tracks the *length* of the prefix blows through this.
CAMPAIGN_PAYLOAD_BOUND = 512 * 1024


def test_snapshot_size_is_bounded():
    """The payload is live state only, at the scale campaigns run at and
    however long the prefix."""
    for n_correct_clients in (10, 30):
        for attack_start_pct in (20, 50, 80):
            spec = PbftScenarioSpec(
                config=PbftConfig.campaign_scale(),
                n_correct_clients=n_correct_clients,
                attack_start_pct=attack_start_pct,
            )
            snap = capture_prefix(spec, seed=0)
            assert 0 < snap.size_bytes <= CAMPAIGN_PAYLOAD_BOUND, (
                f"{n_correct_clients} clients @ {attack_start_pct}%: {snap.size_bytes} B"
            )
    for attack_start_pct in (20, 80):
        spec = dht_spec(config=DhtConfig(), n_correct=40, attack_start_pct=attack_start_pct)
        assert 0 < capture_prefix(spec, seed=0).size_bytes <= CAMPAIGN_PAYLOAD_BOUND


def test_live_memory_does_not_track_prefix_length():
    """The payload bound above sees only what pickles; this one sees the
    process. Between 20 % and 80 % of the window a deployment may grow by
    its latency samples and completion series and nothing else — a
    per-message memo (one entry per simulated event) adds megabytes here
    while pickling empty."""

    def live_bytes(attack_start_pct):
        spec = PbftScenarioSpec(
            config=PbftConfig.campaign_scale(),
            n_correct_clients=10,
            attack_start_pct=attack_start_pct,
        )
        gc.collect()
        tracemalloc.start()
        try:
            prefix = spec.build_prefix(seed=0)
            gc.collect()
            assert prefix.simulator.events_executed > 5_000
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    growth = live_bytes(80) - live_bytes(20)
    assert growth < 2 * 1024 * 1024, f"live memory grew {growth} B with the prefix"


def test_unpicklable_deployment_raises_snapshot_error():
    """Capture failures are diagnosed as SnapshotError naming the key, so a
    target that grows an unpicklable attribute fails loudly, not midway
    through a campaign."""

    class Sabotaged:
        def __init__(self):
            self.simulator = self
            self.now = 0
            self.hook = lambda: None  # unpicklable local closure

    with pytest.raises(SnapshotError, match="sabotaged-key"):
        SimSnapshot.capture("sabotaged-key", Sabotaged())


def test_capture_via_cache_never_returns_partial_entries():
    """A failed capture must not leave a broken entry behind (and still
    closes the prefix it could not pickle)."""
    closed = []

    class Sabotaged:
        def __init__(self):
            self.simulator = self
            self.now = 0
            self.hook = lambda: None

        def close(self):
            closed.append(self)

    cache = snapshot.cache()
    with pytest.raises(SnapshotError):
        cache.get_or_capture("bad", Sabotaged)
    assert len(closed) == 1
    assert "bad" not in cache
    assert len(cache) == 0
