"""Campaign save/load round-trips."""

import json

import pytest

from repro.core import (
    AvdExploration,
    CampaignSpec,
    ScenarioFailure,
    ScenarioResult,
    TestScenario,
    run_campaign,
)
from repro.core.campaign import CampaignResult
from repro.core.persistence import (
    FORMAT_VERSION,
    campaign_from_dict,
    campaign_to_dict,
    load_campaign,
    load_checkpoint,
    save_campaign,
)
from tests.core.fake_target import make_hill_target


@pytest.fixture(scope="module")
def campaign():
    target, plugins = make_hill_target()
    return run_campaign(AvdExploration(target, plugins, seed=9), CampaignSpec(budget=20))


def test_round_trip_preserves_results(campaign, tmp_path):
    path = tmp_path / "campaign.json"
    save_campaign(campaign, path)
    loaded = load_campaign(path)
    assert loaded.strategy == campaign.strategy
    assert len(loaded.results) == len(campaign.results)
    assert loaded.impacts() == campaign.impacts()
    assert loaded.best_so_far() == campaign.best_so_far()
    for original, restored in zip(campaign.results, loaded.results):
        assert restored.key == original.key
        assert restored.params == {
            k: v for k, v in original.params.items()
        }
        assert restored.scenario.plugin == original.scenario.plugin
        assert restored.scenario.origin == original.scenario.origin


def test_saved_file_is_plain_json(campaign, tmp_path):
    path = tmp_path / "campaign.json"
    save_campaign(campaign, path)
    data = json.loads(path.read_text())
    assert data["format_version"] == FORMAT_VERSION
    assert data["strategy"] == campaign.strategy


def test_v1_campaign_files_are_refused(campaign, tmp_path):
    """The v1 loader is gone: campaigns and checkpoints alike are refused
    with the version found and the one this build reads."""
    refusal = rf"version: 1 .*reads version {FORMAT_VERSION}"
    data = campaign_to_dict(campaign)
    data["format_version"] = 1
    with pytest.raises(ValueError, match=refusal):
        campaign_from_dict(data)
    checkpoint = tmp_path / "v1.ckpt.json"
    checkpoint.write_text(json.dumps({"format_version": 1, "kind": "avd-checkpoint"}))
    with pytest.raises(ValueError, match=refusal):
        load_checkpoint(checkpoint)


def test_parent_key_provenance_round_trips(campaign, tmp_path):
    mutated = [r for r in campaign.results if r.scenario.parent_key is not None]
    assert mutated, "fixture campaign should contain mutations"
    path = tmp_path / "campaign.json"
    save_campaign(campaign, path)
    loaded = load_campaign(path)
    for original, restored in zip(campaign.results, loaded.results):
        assert restored.scenario.parent_key == original.scenario.parent_key


def test_empty_dict_measurement_round_trips():
    """Regression: a {} measurement is falsy but real — it must not load as None."""
    result = ScenarioResult(
        scenario=TestScenario(coords={"x": 1}), impact=0.5, test_index=0, measurement={}
    )
    loaded = campaign_from_dict(
        campaign_to_dict(CampaignResult(strategy="x", results=[result]))
    )
    measurement = loaded.results[0].measurement
    assert measurement is not None
    assert measurement.as_dict() == {}


def test_none_measurement_stays_none():
    result = ScenarioResult(
        scenario=TestScenario(coords={"x": 1}), impact=0.5, test_index=0, measurement=None
    )
    loaded = campaign_from_dict(
        campaign_to_dict(CampaignResult(strategy="x", results=[result]))
    )
    assert loaded.results[0].measurement is None


def test_scenario_failure_round_trips(tmp_path):
    failure = ScenarioFailure(
        scenario=TestScenario(coords={"x": 2}),
        impact=0.0,
        test_index=3,
        kind="timeout",
        error="scenario exceeded its 0.5s wall-clock deadline",
        attempts=3,
    )
    ok = ScenarioResult(scenario=TestScenario(coords={"x": 1}), impact=0.4, test_index=0)
    path = tmp_path / "campaign.json"
    save_campaign(CampaignResult(strategy="avd", results=[ok, failure]), path)
    loaded = load_campaign(path)
    restored = loaded.results[1]
    assert isinstance(restored, ScenarioFailure)
    assert restored.failed and not loaded.results[0].failed
    assert restored.kind == "timeout"
    assert restored.attempts == 3
    assert "deadline" in restored.error
    assert loaded.failures() == [restored]


def test_measurement_view_exposes_attributes(campaign, tmp_path):
    path = tmp_path / "campaign.json"
    save_campaign(campaign, path)
    loaded = load_campaign(path)
    measurement = loaded.results[0].measurement
    # The hill target's measurement is a dict {mask: ...}.
    assert measurement.mask == campaign.results[0].measurement["mask"]
    with pytest.raises(AttributeError):
        measurement.nonexistent_field


def test_unknown_format_version_rejected(campaign):
    data = campaign_to_dict(campaign)
    data["format_version"] = 99
    with pytest.raises(ValueError):
        campaign_from_dict(data)


def test_pbft_measurements_serialize(tmp_path):
    from repro.core import RandomExploration
    from repro.plugins import ClientCountPlugin, MacCorruptionPlugin
    from repro.targets import PbftTarget
    from tests.conftest import tiny_pbft_config

    plugins = [MacCorruptionPlugin(), ClientCountPlugin(4, 8, 4)]
    target = PbftTarget(plugins, config=tiny_pbft_config())
    campaign = run_campaign(RandomExploration(target, seed=1), CampaignSpec(budget=3))
    path = tmp_path / "pbft.json"
    save_campaign(campaign, path)
    loaded = load_campaign(path)
    measurement = loaded.results[0].measurement
    assert measurement.throughput_rps == pytest.approx(
        campaign.results[0].measurement.throughput_rps
    )
    assert measurement.view_changes == campaign.results[0].measurement.view_changes


def test_shard_checkpoints_are_refused(tmp_path):
    """A checkpoint written by one shard of a (removed) sharded campaign held
    partner results in Pi/Omega that nothing replays any more: loading it
    is refused, where `repro resume` and every other loader pass."""
    target, plugins = make_hill_target()
    strategy = AvdExploration(target, plugins, seed=9)
    path = tmp_path / "ckpt.json"
    strategy.run(CampaignSpec(budget=6, checkpoint_path=str(path)))
    data = json.loads(path.read_text())
    # As the parent commit wrote it for an unsharded campaign: loads.
    data["foreign"] = []
    path.write_text(json.dumps(data))
    assert load_checkpoint(path)["format_version"] == FORMAT_VERSION
    data["context"] = {"shard": {"index": 0, "rounds_done": 1}}
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="shard"):
        load_checkpoint(path)
