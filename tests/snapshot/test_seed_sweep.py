"""Seed-sweep property tests: fork-equivalence holds across the seed space.

The differential harness checks a handful of seeds three ways; these
sweeps trade per-seed depth for breadth — 100+ derived seeds per target
(``--quick`` shrinks the sweep for CI smoke jobs), each comparing the
forked run result against the from-scratch result. A failure message
names the seed, which `derive_seed` makes trivially replayable. Untimed
scenarios (nothing to fork) are pinned by result digest instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core import snapshot
from repro.injection import FaultPlan
from repro.pbft import ReplicaBehavior, SlowPrimaryPolicy
from repro.pbft.config import malicious_client_name, replica_name
from repro.sim.clock import MS
from repro.sim.faults import DelayFault, DropFault, ReorderFault, match_endpoints
from tests._strategies import seed_sweep
from tests.snapshot.conftest import dht_spec, pbft_spec

FULL_SWEEP = 100
QUICK_SWEEP = 10


def fork_and_scratch(spec, seed):
    forked = spec.build(seed).run()
    with snapshot.disabled():
        scratch = spec.build(seed).run()
    return forked, scratch


def test_pbft_fork_equivalence_sweep(sweep_size):
    spec = pbft_spec()
    for seed in seed_sweep(sweep_size(FULL_SWEEP, QUICK_SWEEP), "snapshot-pbft"):
        snapshot.reset_cache()
        forked, scratch = fork_and_scratch(spec, seed)
        assert forked == scratch, f"pbft fork diverged at seed {seed}"


def test_dht_fork_equivalence_sweep(sweep_size):
    spec = dht_spec()
    for seed in seed_sweep(sweep_size(FULL_SWEEP, QUICK_SWEEP), "snapshot-dht"):
        snapshot.reset_cache()
        forked, scratch = fork_and_scratch(spec, seed)
        assert forked == scratch, f"dht fork diverged at seed {seed}"


def test_fork_equivalence_across_activation_points(sweep_size):
    """The property holds wherever in the window the attack activates."""
    for pct in (0, 25, 50, 75, 99):
        spec = pbft_spec(attack_start_pct=pct)
        for seed in seed_sweep(sweep_size(5, 2), f"snapshot-pct-{pct}"):
            snapshot.reset_cache()
            forked, scratch = fork_and_scratch(spec, seed)
            assert forked == scratch, f"pbft fork diverged at pct={pct} seed {seed}"


# ----------------------------------------------------------------------
# untimed scenarios: pinned result digests
# ----------------------------------------------------------------------
#
# Every scenario arms its attack with one priority event; an untimed one
# arms it at t=0, before every ordinary event. These digests were recorded
# when untimed scenarios still built their attackers into the node
# constructors, so they pin "activation at t=0 == from construction" for
# every attack kind. The cases run one after another in one process (fault
# cases first, synthesis after them) and CI reruns them under several
# PYTHONHASHSEEDs.

_TO_REPLICAS = match_endpoints(dst=frozenset(replica_name(i) for i in range(4)))


def _pbft(**fields):
    return lambda: pbft_spec(attack_start_pct=None, **fields)


def _dht(**fields):
    return lambda: dht_spec(attack_start_pct=None, **fields)


def _slow_primary(**policy):
    return {0: ReplicaBehavior(slow_primary=SlowPrimaryPolicy(0.5, **policy))}


def _synthesis(index, interval_us, kind):
    return {
        index: ReplicaBehavior(synthesize_interval_us=interval_us, synthesize_kind=kind)
    }


#: case -> (untimed spec factory, digest recorded under from-construction).
UNTIMED_CASES = {
    "drop": (_pbft(network_faults=[DropFault(0.2, _TO_REPLICAS)]), "4b621d9ebac90996"),
    "delay": (
        _pbft(network_faults=[DelayFault(5 * MS, jitter_us=MS, matcher=_TO_REPLICAS)]),
        "0eb72af77b868ff0",
    ),
    "reorder": (
        _pbft(network_faults=[ReorderFault(window=3, matcher=_TO_REPLICAS)]),
        "78152eff44b72e3e",
    ),
    "lfi_send": (
        _pbft(
            mac_mask=0,
            injection_plans={replica_name(1): [FaultPlan("send", "ECONNRESET", 40, True)]},
        ),
        "f985b1940441b783",
    ),
    # No PBFT node calls malloc, so this plan leaves the MAC case unchanged.
    "lfi_malloc": (
        _pbft(injection_plans={replica_name(0): [FaultPlan("malloc", "ENOMEM", 3)]}),
        "b617783739bdb155",
    ),
    "mac": (_pbft(mac_mask=0b101), "b617783739bdb155"),
    "mac_broadcast": (_pbft(mac_mask=0xF, malicious_broadcast=True), "d4a5db0efbe648ac"),
    "replica_mac": (
        _pbft(mac_mask=0, replica_behaviors={1: ReplicaBehavior(mac_mask=0b11)}),
        "d038dd2cbf5fdce5",
    ),
    "slow_primary": (_pbft(mac_mask=0, replica_behaviors=_slow_primary()), "1b66cb134f27a55f"),
    "slow_colluding": (
        _pbft(
            mac_mask=0,
            malicious_broadcast=True,
            replica_behaviors=_slow_primary(serve_only_client=malicious_client_name(0)),
        ),
        "42854120d1d2d1bc",
    ),
    "synth_view_change": (
        _pbft(mac_mask=0, replica_behaviors=_synthesis(2, 5 * MS, "view_change")),
        "e55cc7a7fde7de5b",
    ),
    "synth_prepare": (
        _pbft(mac_mask=0, replica_behaviors=_synthesis(1, 3 * MS, "prepare")),
        "290fdd84978af897",
    ),
    "dht_poison": (_dht(poison_rate=1.0, fanout=4), "369640c23da21b71"),
    "dht_poison_pair": (_dht(poison_rate=0.5, fanout=8, n_malicious=2), "1a32383e7c55f4ad"),
}


def _result_digest(result) -> str:
    canonical = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", list(UNTIMED_CASES))
def test_untimed_scenario_digest_is_pinned(case):
    make_spec, expected = UNTIMED_CASES[case]
    assert _result_digest(make_spec().build(0).run()) == expected
