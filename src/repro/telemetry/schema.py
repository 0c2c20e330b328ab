"""The telemetry wire format and its validator.

Every JSONL line is one event::

    {"v": 1, "seq": 17, "type": "ImpactAbsorbed", "impact": 0.91, ...}

``v`` is the schema version (bumped on any incompatible field change),
``seq`` the bus sequence number, ``type`` the event class name; the
remaining keys are the event's dataclass fields. Serialization is
canonical — sorted keys, compact separators — so two streams are equal
iff their bytes are equal, which is exactly what the determinism tests
hash.

:func:`validate_event` / :func:`validate_jsonl` check structure *and*
field types against the dataclass definitions in
:mod:`repro.telemetry.events`; the CI telemetry-smoke job runs every
recorded line through them.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from typing import Any, Dict, Iterable, List, Tuple, Union

from .events import EVENT_TYPES, TelemetryEvent

#: Current wire schema version. History:
#: - **1** — the original eight event types.
#: - **2** — adds ``CoverageObserved`` (coverage-guided exploration).
#: - **3** — adds ``ScenarioExecuted.sched`` (batch-shape scheduler
#:   counters).
#: New streams are written as the current version; older streams still
#: validate (fields introduced later are only required at or above the
#: version that introduced them).
SCHEMA_VERSION = 3
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3)

#: Keys every wire record carries besides the event's own fields.
ENVELOPE_KEYS = ("v", "seq", "type")

#: Event fields that only became part of the wire format at a later
#: schema version: ``(event type, field) -> version introduced``. Records
#: older than that version may omit the field (it decodes as the
#: dataclass default); records at or above it must carry it.
FIELDS_SINCE = {("ScenarioExecuted", "sched"): 3}


class SchemaError(ValueError):
    """A wire record that does not conform to the event schema."""


def event_to_dict(seq: int, event: TelemetryEvent) -> Dict[str, Any]:
    """Envelope + dataclass fields, JSON-ready."""
    record: Dict[str, Any] = {"v": SCHEMA_VERSION, "seq": seq, "type": event.type}
    for field in dataclasses.fields(event):
        record[field.name] = getattr(event, field.name)
    return record


def event_to_json(seq: int, event: TelemetryEvent) -> str:
    """Canonical single-line JSON (sorted keys, compact separators)."""
    return json.dumps(event_to_dict(seq, event), sort_keys=True, separators=(",", ":"))


def _type_matches(value: Any, annotation: Any) -> bool:
    """Structural type check for the narrow set of field types events use."""
    origin = typing.get_origin(annotation)
    if origin is Union:
        return any(_type_matches(value, arg) for arg in typing.get_args(annotation))
    if annotation is type(None):
        return value is None
    if annotation is float:
        # ints are acceptable floats on the wire (JSON has one number type).
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if annotation is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if annotation in (str, bool):
        return isinstance(value, annotation)
    if origin is dict:
        if not isinstance(value, dict):
            return False
        key_type, value_type = typing.get_args(annotation)
        return all(
            _type_matches(k, key_type) and _type_matches(v, value_type)
            for k, v in value.items()
        )
    if origin is list:
        if not isinstance(value, list):
            return False
        (item_type,) = typing.get_args(annotation)
        return all(_type_matches(item, item_type) for item in value)
    if annotation is object:
        return True
    return isinstance(value, annotation)  # pragma: no cover - defensive


def validate_event(record: Dict[str, Any]) -> str:
    """Validate one decoded wire record; returns the event type name.

    Raises :class:`SchemaError` on any violation: wrong/missing envelope,
    unknown event type, missing or extra fields, or a field whose value
    does not match the dataclass annotation.
    """
    if not isinstance(record, dict):
        raise SchemaError(f"event record must be an object, got {type(record).__name__}")
    version = record.get("v")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchemaError(f"unsupported schema version: {version!r}")
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise SchemaError(f"seq must be a non-negative integer, got {seq!r}")
    type_name = record.get("type")
    event_class = EVENT_TYPES.get(type_name)
    if event_class is None:
        raise SchemaError(f"unknown event type: {type_name!r}")
    fields = {field.name: field for field in dataclasses.fields(event_class)}
    hints = typing.get_type_hints(event_class)
    present = set(record) - set(ENVELOPE_KEYS)
    missing = sorted(
        name
        for name in set(fields) - present
        if version >= FIELDS_SINCE.get((type_name, name), 0)
    )
    if missing:
        raise SchemaError(f"{type_name}: missing fields {missing}")
    extra = sorted(present - set(fields))
    if extra:
        raise SchemaError(f"{type_name}: unexpected fields {extra}")
    for name in sorted(present):
        if not _type_matches(record[name], hints[name]):
            raise SchemaError(
                f"{type_name}.{name}: value {record[name]!r} does not match "
                f"the declared type {hints[name]}"
            )
    return type_name


def validate_jsonl(lines: Iterable[str]) -> List[Tuple[int, str]]:
    """Validate a whole stream; returns ``[(seq, type), ...]`` in order.

    Beyond per-line validation, checks the stream-level sequencing
    guarantee: sequence numbers must be strictly increasing.
    """
    validated: List[Tuple[int, str]] = []
    previous_seq = -1
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"line {line_number}: invalid JSON ({exc})") from exc
        try:
            type_name = validate_event(record)
        except SchemaError as exc:
            raise SchemaError(f"line {line_number}: {exc}") from exc
        if record["seq"] <= previous_seq:
            raise SchemaError(
                f"line {line_number}: seq {record['seq']} is not strictly "
                f"increasing (previous was {previous_seq})"
            )
        previous_seq = record["seq"]
        validated.append((record["seq"], type_name))
    return validated


__all__ = [
    "ENVELOPE_KEYS",
    "FIELDS_SINCE",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "SchemaError",
    "event_to_dict",
    "event_to_json",
    "validate_event",
    "validate_jsonl",
]
