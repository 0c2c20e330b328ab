"""Snapshot-failure classification: harness bug, never a target fault.

A snapshot that captured cleanly but cannot be restored — or a prefix that
simulated fine but cannot be captured — is by definition a defect in the
harness. ``execute_isolated``
must therefore (a) say so with one warning on the executor's logger — it
usually runs in a worker, which has no telemetry bus — (b) fall back to
from-scratch execution, and (c) return a result identical to what a
snapshot-free run would have produced — the campaign neither stops nor
records a spurious vulnerability.
"""

from __future__ import annotations

import logging
import random

import pytest

from repro.core import (
    AvdExploration,
    CampaignSpec,
    ScenarioExecutor,
    TestScenario,
    run_campaign,
    snapshot,
)
from repro.core.snapshot import SimSnapshot, SnapshotError, SnapshotRestoreError
from repro.plugins import AttackTimingPlugin, MacCorruptionPlugin
from repro.targets import PbftTarget
from tests.snapshot.conftest import micro_pbft_config

CAMPAIGN_SEED = 11


def make_plugins():
    return [MacCorruptionPlugin(), AttackTimingPlugin((60, 80))]


def make_target() -> PbftTarget:
    return PbftTarget(make_plugins(), config=micro_pbft_config())


def make_scenario(target) -> TestScenario:
    return TestScenario(coords=target.hyperspace.random_coords(random.Random(5)))


@pytest.fixture
def broken_fork(monkeypatch):
    """Make every fork attempt fail the way a corrupt payload would."""

    def explode(self):
        raise SnapshotRestoreError(f"cannot restore snapshot for {self.key!r}: boom")

    monkeypatch.setattr(SimSnapshot, "fork", explode)


def fallback_warnings(caplog):
    return [
        record
        for record in caplog.records
        if record.name == "repro.core.executor" and record.levelno == logging.WARNING
    ]


def test_restore_failure_falls_back_and_matches_scratch(broken_fork, caplog):
    target = make_target()
    scenario = make_scenario(target)
    executor = ScenarioExecutor(target, campaign_seed=CAMPAIGN_SEED)
    with caplog.at_level(logging.WARNING, logger="repro.core.executor"):
        result = executor.execute_isolated(scenario, test_index=0)
    assert not result.failed, "a restore failure must not fail the scenario"

    # The from-scratch reference for the same scenario, snapshots off.
    with snapshot.disabled():
        reference = ScenarioExecutor(target, campaign_seed=CAMPAIGN_SEED).execute(
            scenario, test_index=0
        )
    assert result.impact == reference.impact
    assert result.measurement == reference.measurement

    (warning,) = fallback_warnings(caplog)
    message = warning.getMessage()
    assert "snapshot restore failed for test 0" in message
    assert "SnapshotRestoreError" in message and "boom" in message


def test_capture_failure_falls_back_and_matches_scratch(monkeypatch, caplog):
    """Prefixes are captured inside scenarios, so a capture that fails (an
    unpicklable prefix, say) takes the restore path's fallback: one
    warning, the from-scratch measurement, and no failure to quarantine."""

    def refuse(cls, key, deployment):
        raise SnapshotError(f"cannot capture snapshot for {key!r}: unpicklable")

    monkeypatch.setattr(SimSnapshot, "capture", classmethod(refuse))
    target = make_target()
    scenario = make_scenario(target)
    executor = ScenarioExecutor(target, campaign_seed=CAMPAIGN_SEED)
    with caplog.at_level(logging.WARNING, logger="repro.core.executor"):
        result = executor.execute_isolated(scenario, test_index=0)
    assert not result.failed, "a capture failure must not fail the scenario"
    assert executor.failures == 0

    with snapshot.disabled():
        reference = ScenarioExecutor(target, campaign_seed=CAMPAIGN_SEED).execute(
            scenario, test_index=0
        )
    assert result.impact == reference.impact
    assert result.measurement == reference.measurement

    (warning,) = fallback_warnings(caplog)
    message = warning.getMessage()
    assert "snapshot capture failed for test 0" in message
    assert "SnapshotError" in message and "unpicklable" in message

    plugins = make_plugins()
    campaign_target = PbftTarget(plugins, config=micro_pbft_config())
    strategy = AvdExploration(campaign_target, plugins, seed=CAMPAIGN_SEED)
    campaign = run_campaign(strategy, CampaignSpec(budget=4))
    assert campaign.failures() == []
    assert len(strategy.quarantine) == 0


def test_fallback_without_telemetry_bus(broken_fork):
    """The fallback needs no bus (an executor has none) and keeps the index."""
    target = make_target()
    scenario = make_scenario(target)
    executor = ScenarioExecutor(target, campaign_seed=CAMPAIGN_SEED)
    result = executor.execute_isolated(scenario, test_index=3)
    assert not result.failed
    assert result.test_index == 3


def test_raw_execute_propagates_restore_errors(broken_fork):
    """The unguarded ``execute`` path surfaces the defect to the caller —
    only ``execute_isolated`` absorbs it."""
    target = make_target()
    scenario = make_scenario(target)
    executor = ScenarioExecutor(target, campaign_seed=CAMPAIGN_SEED)
    with pytest.raises(SnapshotRestoreError):
        executor.execute(scenario, test_index=0)


def test_healthy_fork_publishes_no_failure_events(caplog):
    """Control: with forking intact the executor warns about nothing."""
    target = make_target()
    scenario = make_scenario(target)
    executor = ScenarioExecutor(target, campaign_seed=CAMPAIGN_SEED)
    with caplog.at_level(logging.WARNING, logger="repro.core.executor"):
        result = executor.execute_isolated(scenario, test_index=0)
    assert not result.failed
    assert fallback_warnings(caplog) == []
