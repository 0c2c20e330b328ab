"""Wire-format tests: canonical serialization and the validator."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    ScenarioExecuted,
    ScenarioGenerated,
    SchemaError,
    event_to_json,
    validate_event,
    validate_jsonl,
)


def _record(**overrides):
    base = json.loads(
        event_to_json(0, ScenarioExecuted(test_index=0, key={"mask": 1}, impact=0.5))
    )
    base.update(overrides)
    return base


class TestCanonicalSerialization:
    def test_envelope_fields(self):
        record = _record()
        assert record["v"] == SCHEMA_VERSION
        assert record["seq"] == 0
        assert record["type"] == "ScenarioExecuted"

    def test_sorted_compact_canonical_form(self):
        event = ScenarioGenerated(key={"mask": 3}, origin="random", coords={"mask": 3})
        line = event_to_json(9, event)
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))

    def test_every_event_type_round_trips(self):
        # Each registered event type must validate its own serialization.
        samples = {
            "ScenarioGenerated": ScenarioGenerated(
                key={"mask": 1}, origin="mutation", coords={"mask": 1},
                plugin="mask", parent_key={"mask": 0}, mutate_distance=0.5,
            ),
            "ScenarioExecuted": ScenarioExecuted(
                test_index=0, key={"mask": 1}, impact=0.5, summary={"rps": 10.0},
            ),
        }
        for name, event_class in EVENT_TYPES.items():
            event = samples.get(name)
            if event is None:
                continue
            assert validate_event(json.loads(event_to_json(0, event))) == name

    def test_event_type_registry_is_complete(self):
        assert set(EVENT_TYPES) == {
            "ScenarioGenerated",
            "ParentSelected",
            "PluginSampled",
            "MutationApplied",
            "ScenarioExecuted",
            "ImpactAbsorbed",
            "CoverageObserved",
            "FailureClassified",
            "CheckpointWritten",
        }


class TestValidateEvent:
    def test_valid_record_passes(self):
        assert validate_event(_record()) == "ScenarioExecuted"

    def test_wrong_version_rejected(self):
        with pytest.raises(SchemaError, match="schema version"):
            validate_event(_record(v=99))

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError, match="unknown event type"):
            validate_event(_record(type="Mystery"))

    def test_bad_seq_rejected(self):
        with pytest.raises(SchemaError, match="seq"):
            validate_event(_record(seq=-1))
        with pytest.raises(SchemaError, match="seq"):
            validate_event(_record(seq=True))

    def test_missing_field_rejected(self):
        record = _record()
        del record["impact"]
        with pytest.raises(SchemaError, match="missing fields.*impact"):
            validate_event(record)

    def test_extra_field_rejected(self):
        with pytest.raises(SchemaError, match="unexpected fields.*bonus"):
            validate_event(_record(bonus=1))

    def test_merged_stream_envelope_rejected(self):
        """The keys the removed `repro merge` stamped onto stitched streams
        are ordinary unknown fields."""
        with pytest.raises(SchemaError, match="unexpected fields.*shard.*shard_seq"):
            validate_event(_record(shard=1, shard_seq=7))

    def test_wrong_field_type_rejected(self):
        with pytest.raises(SchemaError, match="ScenarioExecuted.impact"):
            validate_event(_record(impact="high"))
        with pytest.raises(SchemaError, match="ScenarioExecuted.key"):
            validate_event(_record(key={"mask": "one"}))

    def test_int_accepted_where_float_declared(self):
        assert validate_event(_record(impact=1)) == "ScenarioExecuted"

    def test_optional_summary(self):
        assert validate_event(_record(summary=None)) == "ScenarioExecuted"
        assert validate_event(_record(summary={"rps": 10})) == "ScenarioExecuted"


class TestValidateJsonl:
    def test_valid_stream(self):
        lines = [
            event_to_json(i, ScenarioExecuted(test_index=i, key={"m": i}, impact=0.1))
            for i in range(3)
        ]
        assert validate_jsonl(lines) == [
            (0, "ScenarioExecuted"),
            (1, "ScenarioExecuted"),
            (2, "ScenarioExecuted"),
        ]

    def test_blank_lines_skipped(self):
        lines = ["", event_to_json(0, ScenarioExecuted(0, {"m": 0}, 0.1)), "  "]
        assert len(validate_jsonl(lines)) == 1

    def test_invalid_json_names_the_line(self):
        with pytest.raises(SchemaError, match="line 1"):
            validate_jsonl(["not json"])

    def test_non_increasing_seq_rejected(self):
        line = event_to_json(5, ScenarioExecuted(0, {"m": 0}, 0.1))
        with pytest.raises(SchemaError, match="strictly"):
            validate_jsonl([line, line])

