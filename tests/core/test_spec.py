"""CampaignSpec: validation, overrides, and the spec-only run() entry points."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.core import (
    AvdExploration,
    CampaignSpec,
    RandomExploration,
    TestController,
    run_campaign,
)
from repro.telemetry import RingBufferSink, TelemetryBus

from tests.core.fake_target import make_hill_target


class TestValidation:
    def test_defaults(self):
        spec = CampaignSpec(budget=10)
        assert spec.workers == 1
        assert spec.batch_size is None
        assert spec.checkpoint_path is None
        assert spec.checkpoint_every == 25
        assert spec.telemetry is None

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"budget": 0}, "budget must be >= 1"),
            ({"budget": 5, "batch_size": 0}, "batch_size must be >= 1"),
            ({"budget": 5, "checkpoint_every": 0}, "checkpoint_every must be >= 1"),
            ({"budget": 5, "workers": -1}, "workers must be >= 0"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            CampaignSpec(**kwargs)

    def test_replace_revalidates(self):
        spec = CampaignSpec(budget=10)
        assert dataclasses.replace(spec, budget=20).budget == 20
        assert spec.budget == 10  # frozen original untouched
        with pytest.raises(ValueError):
            dataclasses.replace(spec, budget=0)


class TestLegacyShim:
    """The PR-5 keyword shim is gone: ``run()`` takes a spec and nothing else."""

    def test_spec_passthrough_never_warns(self):
        target, plugins = make_hill_target()
        strategy = AvdExploration(target, plugins, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(strategy.run(CampaignSpec(budget=4))) == 4

    def test_spec_plus_legacy_kwargs_rejected(self):
        target, plugins = make_hill_target()
        with pytest.raises(TypeError, match="workers"):
            run_campaign(
                AvdExploration(target, plugins, seed=2), CampaignSpec(budget=4), workers=2
            )

    def test_unknown_keyword_rejected(self):
        target, plugins = make_hill_target()
        with pytest.raises(TypeError, match="wrokers"):
            TestController(target, plugins, seed=5).run(CampaignSpec(budget=4), wrokers=2)


class TestRunEntryPoints:
    """Every run() entry point takes a CampaignSpec."""

    def test_controller_run_accepts_a_spec(self):
        target, plugins = make_hill_target()
        controller = TestController(target, plugins, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            results = controller.run(CampaignSpec(budget=6))
        assert len(results) == 6

    def test_run_campaign_accepts_a_spec(self):
        target, plugins = make_hill_target()
        strategy = AvdExploration(target, plugins, seed=2)
        campaign = run_campaign(strategy, CampaignSpec(budget=5))
        assert len(campaign.results) == 5

    def test_run_campaign_telemetry_requires_a_supporting_strategy(self):
        target, _ = make_hill_target()
        strategy = RandomExploration(target, seed=0)
        spec = CampaignSpec(budget=4, telemetry=TelemetryBus(sinks=(RingBufferSink(),)))
        with pytest.raises(ValueError, match="telemetry"):
            run_campaign(strategy, spec)

    def test_run_campaign_non_spec_strategy_still_runs(self):
        target, _ = make_hill_target()
        strategy = RandomExploration(target, seed=0)
        campaign = run_campaign(strategy, CampaignSpec(budget=5))
        assert len(campaign.results) == 5
