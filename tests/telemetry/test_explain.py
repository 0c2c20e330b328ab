"""``repro explain``: attribution reconstructed purely from the stream."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.explain import (
    attribution_to_dict,
    explain_path,
    exploration_heatmap,
    render_attribution,
)
from repro.telemetry.schema import SchemaError
from repro.telemetry.view import fold_stream

from tests.telemetry._harness import run_recorded_campaign

#: Seed 47 climbs the hill through a chain of mask mutations (probed once;
#: pinned so the lineage assertions stay meaningful).
SEED = 47
BUDGET = 30


@pytest.fixture(scope="module")
def recorded():
    lines, strategy = run_recorded_campaign(seed=SEED, budget=BUDGET)
    return lines, strategy


@pytest.fixture(scope="module")
def attribution(recorded):
    lines, _ = recorded
    return fold_stream(lines)


class TestAnalyzeStream:
    def test_totals_match_the_campaign(self, recorded, attribution):
        lines, strategy = recorded
        assert attribution.tests == BUDGET
        assert attribution.events == len(lines)
        assert attribution.failures == 0

    def test_best_matches_the_controller(self, recorded, attribution):
        _, strategy = recorded
        best = strategy.controller.best
        assert attribution.best_impact == pytest.approx(best.impact)
        assert dict(attribution.best_key) == dict(best.key)
        assert attribution.best_test_index == best.test_index

    def test_attribution_counts_sum_to_the_budget(self, attribution):
        generated = attribution.random_generated + sum(
            stats.generated for stats in attribution.plugins.values()
        )
        assert generated == BUDGET

    def test_best_scenario_attributed_to_the_mutating_plugin(
        self, recorded, attribution
    ):
        _, strategy = recorded
        best = strategy.controller.best
        assert best.scenario.origin == "mutation"
        final_step = attribution.lineage[-1]
        assert final_step.plugin == best.scenario.plugin == "mask"
        assert final_step.impact == pytest.approx(best.impact)

    def test_lineage_walks_root_first_to_the_best_key(self, attribution):
        lineage = attribution.lineage
        assert len(lineage) > 1
        assert lineage[0].origin == "random"  # the founding random shot
        assert all(step.origin == "mutation" for step in lineage[1:])
        assert lineage[-1].key == attribution.best_key

    def test_plugin_gain_reflects_improvements(self, attribution):
        mask = attribution.plugins["mask"]
        assert mask.executed > 0
        assert mask.total_gain > 0
        assert mask.improvements > 0
        assert mask.weight is not None

    def test_invalid_stream_rejected(self):
        with pytest.raises(SchemaError, match="line 1"):
            fold_stream(['{"v":1,"seq":0,"type":"Nope"}'])


class TestRendering:
    def test_report_contains_every_section(self, attribution):
        report = render_attribution(attribution)
        assert "plugin attribution" in report
        assert "mask" in report and "load" in report
        assert "(random shots)" in report
        assert "best-scenario lineage" in report
        assert "max impact" in report  # the heatmap

    def test_heatmap_over_explicit_dimensions(self, attribution):
        rendered = exploration_heatmap(attribution, x_name="mask", y_name="load")
        assert rendered is not None
        assert "mask" in rendered and "load=" in rendered

    def test_heatmap_missing_dimension_returns_none(self, attribution):
        assert exploration_heatmap(attribution, x_name="mask", y_name="ghost") is None


class TestJsonDocument:
    def test_document_round_trips_and_names_the_best_plugin(self, attribution):
        document = json.loads(json.dumps(attribution_to_dict(attribution)))
        assert document["schema_version"] == 1
        assert document["campaign"]["tests"] == BUDGET
        assert document["best"]["plugin"] == "mask"
        assert document["best"]["impact"] == pytest.approx(attribution.best_impact)
        assert document["lineage"][0]["origin"] == "random"
        assert document["lineage"][-1]["key"] == dict(attribution.best_key)
        for stats in document["plugins"].values():
            assert set(stats) == {
                "generated", "executed", "failures", "best_impact",
                "mean_impact", "total_gain", "improvements", "weight",
            }


def test_explain_path_reads_jsonl_from_disk(tmp_path, recorded):
    lines, _ = recorded
    path = tmp_path / "campaign.jsonl"
    path.write_text("\n".join(lines) + "\n")
    attribution = explain_path(str(path))
    assert attribution.tests == BUDGET


# ---------------------------------------------------------------------------
# defensive lineage walk + torn streams
# ---------------------------------------------------------------------------
def _synthetic_stream(parent_of):
    """A minimal valid stream whose ``parent_key`` graph is ``parent_of``.

    Every key in ``parent_of`` gets a ScenarioGenerated + ScenarioExecuted
    pair; the last listed key executes with the highest impact (the best).
    """
    from repro.telemetry import ScenarioExecuted, ScenarioGenerated, event_to_json

    lines = []
    seq = 0
    keys = list(parent_of)
    for index, mask in enumerate(keys):
        parent = parent_of[mask]
        lines.append(
            event_to_json(
                seq,
                ScenarioGenerated(
                    key={"mask": mask},
                    origin="random" if parent is None else "mutation",
                    coords={"mask": mask},
                    plugin=None if parent is None else "mask",
                    parent_key=None if parent is None else {"mask": parent},
                    mutate_distance=0.0 if parent is None else 0.5,
                ),
            )
        )
        seq += 1
        lines.append(
            event_to_json(
                seq,
                ScenarioExecuted(
                    test_index=index,
                    key={"mask": mask},
                    impact=(index + 1) / len(keys),
                ),
            )
        )
        seq += 1
    return lines


class TestLineageGuards:
    def test_complete_chain_stays_complete(self):
        attribution = fold_stream(_synthetic_stream({0: None, 1: 0, 2: 1}))
        assert attribution.lineage_complete is True
        assert attribution.lineage_break is None
        assert [step.key for step in attribution.lineage] == [
            (("mask", 0),), (("mask", 1),), (("mask", 2),),
        ]

    def test_missing_ancestry_is_flagged_not_fatal(self):
        # The best key's parent (99) was generated before this stream
        # started (a resumed campaign): the walk stops and says so.
        attribution = fold_stream(_synthetic_stream({1: 99, 2: 1}))
        assert attribution.lineage_complete is False
        assert "not in this stream" in attribution.lineage_break
        # The partial chain (best -> its recorded ancestors) is preserved.
        assert [step.key for step in attribution.lineage] == [
            (("mask", 1),), (("mask", 2),),
        ]
        report = render_attribution(attribution)
        assert "lineage incomplete" in report

    def test_cyclic_parent_chain_terminates(self):
        # A corrupted stream closing a parent_key loop must not hang.
        attribution = fold_stream(_synthetic_stream({1: 2, 2: 1}))
        assert attribution.lineage_complete is False
        assert "cycle" in attribution.lineage_break
        report = render_attribution(attribution)
        assert "lineage incomplete" in report

    def test_lineage_flags_round_trip_to_json(self):
        document = attribution_to_dict(fold_stream(_synthetic_stream({1: 2, 2: 1})))
        assert document["lineage_complete"] is False
        assert "cycle" in document["lineage_break"]


class TestTornTail:
    def test_torn_final_line_is_tolerated_and_flagged(self, recorded):
        lines, _ = recorded
        torn = list(lines) + ['{"v":1,"seq":999,"type":"Scenario']
        attribution = fold_stream(torn)
        assert attribution.truncated_tail is True
        assert attribution.tests == BUDGET  # the complete prefix was folded
        report = render_attribution(attribution)
        assert "torn" in report
        assert attribution_to_dict(attribution)["campaign"]["truncated_tail"] is True

    def test_torn_middle_line_still_rejected(self, recorded):
        lines, _ = recorded
        corrupted = list(lines)
        corrupted.insert(1, "{not json")
        with pytest.raises(SchemaError, match="line 2"):
            fold_stream(corrupted)

    def test_intact_stream_is_not_flagged(self, attribution):
        assert attribution.truncated_tail is False


class TestCoverageRollup:
    @pytest.fixture(scope="class")
    def hybrid_lines(self):
        from repro.core import CampaignSpec, HybridExploration
        from repro.telemetry import RingBufferSink, TelemetryBus
        from tests.core.fake_target import LoadPlugin, make_hill_target

        target, plugins = make_hill_target(extra_plugins=[LoadPlugin()])
        strategy = HybridExploration(target, plugins, seed=SEED)
        sink = RingBufferSink()
        strategy.run(CampaignSpec(budget=20, telemetry=TelemetryBus(sinks=(sink,))))
        return sink.to_lines()

    def test_coverage_events_are_rolled_up(self, hybrid_lines):
        attribution = fold_stream(hybrid_lines)
        assert attribution.coverage_events == 20
        assert 1 <= attribution.distinct_signatures <= 20
        assert 1 <= attribution.novel_signatures <= attribution.distinct_signatures
        report = render_attribution(attribution)
        assert "distinct behaviour signatures" in report
        document = attribution_to_dict(attribution)
        assert document["coverage"]["events"] == 20

    def test_impact_only_streams_report_zero_coverage(self, attribution):
        assert attribution.coverage_events == 0
        assert "behaviour signatures" not in render_attribution(attribution)


class TestSchedulerRollup:
    """The sched counters (queue depth / utilization) in `repro explain`."""

    @pytest.fixture(scope="class")
    def batched_lines(self):
        lines, _ = run_recorded_campaign(seed=11, budget=12, workers=2, batch_size=4)
        return lines

    def test_batched_stream_rolls_up_scheduler_stats(self, batched_lines):
        attribution = fold_stream(batched_lines)
        assert attribution.sched_events == 12
        assert attribution.sched_batches >= 3  # 12 tests in batches of <= 4
        assert attribution.sched_max_batch <= 4
        document = attribution_to_dict(attribution)
        scheduler = document["scheduler"]
        assert scheduler["events"] == 12
        assert 0.0 < scheduler["utilization"] <= 1.0
        assert scheduler["mean_queue_depth"] >= 0.0
        report = render_attribution(attribution)
        assert "scheduler:" in report and "utilization" in report

    def test_serial_stream_reports_full_utilization(self):
        lines, _ = run_recorded_campaign(seed=11, budget=6)
        attribution = fold_stream(lines)
        document = attribution_to_dict(attribution)
        assert document["scheduler"]["max_batch"] == 1
        assert document["scheduler"]["utilization"] == 1.0

    def test_sched_rollup_is_worker_invariant(self):
        one, _ = run_recorded_campaign(seed=11, budget=12, workers=1, batch_size=4)
        two, _ = run_recorded_campaign(seed=11, budget=12, workers=2, batch_size=4)
        assert attribution_to_dict(fold_stream(one))["scheduler"] == \
            attribution_to_dict(fold_stream(two))["scheduler"]

    def test_v2_streams_without_sched_still_explain(self, batched_lines):
        stripped = []
        for line in batched_lines:
            record = json.loads(line)
            record.pop("sched", None)
            record["v"] = 2
            stripped.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        attribution = fold_stream(stripped)
        assert attribution.sched_events == 0
        document = attribution_to_dict(attribution)
        assert document["scheduler"]["events"] == 0
        assert "scheduler:" not in render_attribution(attribution)
