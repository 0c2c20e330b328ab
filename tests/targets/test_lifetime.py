"""A finished deployment is freed by refcount the moment its result is
collected: nothing of a scenario outlives it but its result.

Each check runs with the cyclic collector off and then asks it what it
would free; a deployment left as a web of reference cycles (heap entries,
endpoint maps, view-change timers, fired timer handles) shows up as
thousands of objects here.
"""

import gc
import pickle

import pytest

from repro.core import snapshot
from repro.dht import DhtAttack, DhtDeployment, run_dht_deployment
from repro.pbft import ClientBehavior, PbftAttack, PbftDeployment, run_deployment
from repro.plugins import (
    AttackTimingPlugin,
    ClientCountPlugin,
    MacCorruptionPlugin,
    PrimaryBehaviorPlugin,
)
from repro.sim.trace import set_kind_capture
from repro.targets import DhtTarget, PbftTarget, RoutingPoisonPlugin
from tests.conftest import tiny_pbft_config
from tests.dht.test_dht import small_config


def cyclic_garbage(action):
    """Objects the collector frees after ``action()`` ran with it off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(autouse=True)
def fresh_snapshot_cache():
    snapshot.reset_cache()
    yield
    snapshot.reset_cache()


def pbft_target(*extra):
    plugins = [MacCorruptionPlugin(), ClientCountPlugin(4, 8, 4), *extra]
    config = tiny_pbft_config(measurement_us=500_000, crash_after_consecutive_view_changes=3)
    return PbftTarget(plugins, config=config)


BENIGN = {"mac_mask_gray": 0, "n_correct_clients": 4, "n_malicious_clients": 1}

PBFT_SCENARIOS = {
    "untimed": ((), BENIGN),
    # A1's crash columns: replicas crash, and a crashed replica keeps the
    # handle of a timer that fired without re-arming.
    "mac-crash": ((), dict(BENIGN, mac_mask_gray=0xFFF)),
    "slow-primary": (
        (PrimaryBehaviorPlugin(),),
        dict(BENIGN, primary_mode="slow", primary_tick_pct=90),
    ),
}


@pytest.mark.parametrize("name", sorted(PBFT_SCENARIOS))
def test_pbft_execute_leaves_no_cyclic_garbage(name):
    extra, params = PBFT_SCENARIOS[name]
    target = pbft_target(*extra)
    results = []
    assert cyclic_garbage(lambda: results.append(target.execute(params, seed=1))) == 0
    if name == "mac-crash":
        assert results[0].crashed_replicas > 0


def test_timed_scenarios_leave_no_cyclic_garbage_when_captured_or_forked():
    target = pbft_target(AttackTimingPlugin((60,)))
    params = dict(BENIGN, attack_start_pct=60)
    assert cyclic_garbage(lambda: target.execute(params, seed=1)) == 0  # captures
    assert snapshot.cache().stats()[2] == 1
    forked = dict(params, mac_mask_gray=0xFFF)
    assert cyclic_garbage(lambda: target.execute(forked, seed=1)) == 0  # forks
    assert snapshot.cache().stats()[1] == 1


def test_coverage_capture_run_leaves_no_cyclic_garbage():
    previous = set_kind_capture(True)
    try:
        target = pbft_target()
        results = []
        assert cyclic_garbage(lambda: results.append(target.execute(BENIGN, seed=2))) == 0
        assert any(key.startswith("net.msg.") for key in results[0].counters)
    finally:
        set_kind_capture(previous)


def test_dht_execute_and_baseline_leave_no_cyclic_garbage():
    target = DhtTarget([RoutingPoisonPlugin()], config=small_config(), n_correct=12)
    params = {"poison_rate_pct": 50, "poison_fanout": 4, "n_malicious_nodes": 1}
    assert cyclic_garbage(target.baseline) == 0
    assert cyclic_garbage(lambda: target.execute(params, seed=3)) == 0


def test_pbft_baseline_leaves_no_cyclic_garbage():
    target = pbft_target()
    assert cyclic_garbage(lambda: target._run_baseline(4)) == 0


def test_snapshot_capture_leaves_no_cyclic_garbage():
    spec = pbft_target(AttackTimingPlugin((60,)))._spec(dict(BENIGN, attack_start_pct=60))
    key = spec.snapshot_key(5)
    assert cyclic_garbage(
        lambda: snapshot.cache().get_or_capture(key, lambda: spec.build_prefix(5))
    ) == 0
    assert key in snapshot.cache()


def test_run_helpers_leave_no_cyclic_garbage():
    attack = PbftAttack(client_behavior=ClientBehavior(mac_mask=0xFFF))
    config = tiny_pbft_config()
    assert cyclic_garbage(
        lambda: run_deployment(config, 3, attack, n_malicious_clients=1, seed=4)
    ) == 0
    assert cyclic_garbage(
        lambda: run_dht_deployment(small_config(), 10, DhtAttack(1.0, 4), 1, seed=4)
    ) == 0


@pytest.mark.parametrize("build", ["pbft", "dht"])
def test_close_is_idempotent_and_leaves_the_result_alone(build):
    if build == "pbft":
        deployment = PbftDeployment(tiny_pbft_config(), 3, 1, seed=6)
        deployment.install_attack(PbftAttack(client_behavior=ClientBehavior(mac_mask=0xFFF)))
    else:
        deployment = DhtDeployment(small_config(), 10, 1, seed=6)
        deployment.install_attack(DhtAttack(1.0, 4))
    result = deployment.run()
    before = pickle.dumps(result)
    deployment.close()
    deployment.close()
    assert pickle.dumps(result) == before
    assert not deployment.network.endpoints and not deployment.simulator.queue._heap


@pytest.mark.parametrize("timed", [False, True])
def test_results_are_byte_identical_with_and_without_close(timed):
    extra = (AttackTimingPlugin((60,)),) if timed else ()
    params = dict(BENIGN, mac_mask_gray=0xFFF)
    if timed:
        params["attack_start_pct"] = 60
    spec = pbft_target(*extra)._spec(params)
    closed = spec.run(7)
    kept = spec.build(7).run()  # never closed
    assert pickle.dumps(closed) == pickle.dumps(kept)
