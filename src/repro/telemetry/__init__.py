"""Campaign telemetry: the deterministic event stream behind ``repro explain``.

The Test Controller, the scenario executors, and the exploration strategies
publish typed events (:mod:`repro.telemetry.events`) onto a
:class:`~repro.telemetry.bus.TelemetryBus`; pluggable sinks
(:mod:`repro.telemetry.sinks`) consume them — an in-memory ring buffer for
tests and benchmarks, a schema-versioned JSONL writer for campaigns, and a
live TTY progress line for humans.

Two properties make the stream trustworthy:

1. **Determinism** — every event is derived from campaign state, never from
   wall clocks or process identity, and worker-side executions are
   re-sequenced into submission order before publication, so the stream for
   a fixed ``(seed, batch_size)`` is byte-identical regardless of worker
   count (see ``tests/telemetry/test_determinism.py``).
2. **Resumability** — the bus sequence cursor is captured in campaign
   checkpoints, so a resumed campaign appends to its JSONL stream without
   reusing or skipping sequence numbers.

``repro explain`` (:mod:`repro.telemetry.explain`) turns a recorded stream
back into per-plugin attribution tables, the best scenario's mutation
lineage, and exploration heatmaps.

Reading a stream back goes through one shared, read-only reader
(:func:`read_events` / :func:`parse_events`, :mod:`repro.telemetry.reader`)
and one shared fold (:class:`CampaignView`, :mod:`repro.telemetry.view`):
batch ``repro explain``, the live ``repro serve`` observatory
(:mod:`repro.telemetry.serve`), and resume-time stream truncation all
consume the wire format through the same code path.
"""

from .bus import TelemetryBus, TelemetrySink
from .events import (
    EVENT_TYPES,
    CheckpointWritten,
    CoverageObserved,
    FailureClassified,
    ImpactAbsorbed,
    MutationApplied,
    ParentSelected,
    PluginSampled,
    ScenarioExecuted,
    ScenarioGenerated,
    TelemetryEvent,
    key_dict,
)
from .schema import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    SchemaError,
    event_to_json,
    validate_event,
    validate_jsonl,
)
from .reader import EventStream, parse_events, read_events
from .sinks import JsonlSink, RingBufferSink, TtyProgressSink
from .view import (
    CampaignAttribution,
    CampaignView,
    attribution_to_dict,
    fold_stream,
)

__all__ = [
    "CampaignAttribution",
    "CampaignView",
    "CheckpointWritten",
    "CoverageObserved",
    "EVENT_TYPES",
    "EventStream",
    "FailureClassified",
    "ImpactAbsorbed",
    "JsonlSink",
    "MutationApplied",
    "ParentSelected",
    "PluginSampled",
    "RingBufferSink",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "ScenarioExecuted",
    "ScenarioGenerated",
    "SchemaError",
    "TelemetryBus",
    "TelemetryEvent",
    "TelemetrySink",
    "TtyProgressSink",
    "attribution_to_dict",
    "event_to_json",
    "fold_stream",
    "key_dict",
    "parse_events",
    "read_events",
    "validate_event",
    "validate_jsonl",
]
