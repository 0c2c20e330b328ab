"""Fixtures for the snapshot-and-fork test subsystem.

Every test runs with a private, freshly-reset snapshot cache and leaves
the process-wide snapshot toggle exactly as it found it, so these tests
compose with the rest of the suite in any order.
"""

from __future__ import annotations

import pytest

from repro.core import snapshot
from repro.dht import DhtConfig
from repro.sim.clock import MS
from repro.targets.dht_target import DhtScenarioSpec
from repro.targets.pbft_target import PbftScenarioSpec
from tests.conftest import tiny_pbft_config


@pytest.fixture(autouse=True)
def _isolated_snapshot_state():
    # Pin forking on: every test here that compares against from-scratch or
    # reference execution builds that leg explicitly (``snapshot.disabled`` /
    # ``tests/_reference.py``), so the suite is meaningful — and identical —
    # whatever state an earlier test left the switch in.
    previous_snapshot = snapshot.set_enabled(True)
    snapshot.reset_cache()
    yield
    snapshot.reset_cache()
    snapshot.set_enabled(previous_snapshot)


def micro_pbft_config(**overrides):
    """Even smaller than tiny: sized for 100-seed property sweeps."""
    defaults = dict(
        view_change_timer_us=40 * MS,
        client_retransmit_us=4 * MS,
        client_retransmit_max_us=32 * MS,
        warmup_us=20 * MS,
        measurement_us=100 * MS,
    )
    defaults.update(overrides)
    return tiny_pbft_config(**defaults)


def micro_dht_config(**overrides):
    defaults = dict(
        lookup_interval_us=40 * MS,
        rpc_timeout_us=20 * MS,
        warmup_us=100 * MS,
        measurement_us=300 * MS,
    )
    defaults.update(overrides)
    return DhtConfig(**defaults)


def pbft_spec(config=None, attack_start_pct=60, **fields) -> PbftScenarioSpec:
    defaults = dict(n_correct_clients=3, n_malicious_clients=1, mac_mask=0b101)
    defaults.update(fields)
    return PbftScenarioSpec(
        config=config if config is not None else micro_pbft_config(),
        attack_start_pct=attack_start_pct,
        **defaults,
    )


def dht_spec(config=None, attack_start_pct=60, **fields) -> DhtScenarioSpec:
    spec = DhtScenarioSpec(
        config if config is not None else micro_dht_config(),
        n_correct=fields.pop("n_correct", 6),
    )
    spec.poison_rate = fields.pop("poison_rate", 1.0)
    spec.fanout = fields.pop("fanout", 4)
    spec.n_malicious = fields.pop("n_malicious", 1)
    spec.attack_start_pct = attack_start_pct
    assert not fields, f"unknown spec fields: {sorted(fields)}"
    return spec
