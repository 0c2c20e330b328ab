"""Typed telemetry events: what a campaign says about itself.

Each event is a frozen dataclass whose fields are already JSON-safe
(scenario keys are stored as plain ``{dimension: position}`` dicts via
:func:`key_dict`, never as tuples), so sinks serialize them without any
target-specific knowledge. Events carry *campaign* state only — test
indices, keys, impacts, sampler statistics — never wall-clock timestamps,
process ids, or host names: the stream must be a pure function of
``(seed, batch_size)`` so the determinism harness can compare streams
byte for byte across worker counts.

Publication points (see DESIGN.md, "Telemetry"):

- ``ScenarioGenerated``  — controller, when a scenario enters Psi;
- ``ParentSelected``     — controller, for the accepted mutation attempt;
- ``PluginSampled``      — controller, for the accepted mutation attempt;
- ``MutationApplied``    — controller, when a mutation child is accepted;
- ``ScenarioExecuted``   — executors, in submission order;
- ``ImpactAbsorbed``     — controller, when a result enters Pi/Omega/mu;
- ``CoverageObserved``   — controller, when a coverage signature is
  recorded (hybrid exploration only);
- ``FailureClassified``  — controller, when a failure is quarantined;
- ``CheckpointWritten``  — controller, before each checkpoint lands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: A scenario key rendered JSON-safe: dimension name -> grid position.
KeyDict = Dict[str, int]

#: ``repro.core.hyperspace.CoordsKey`` without the import: telemetry stays
#: dependency-free of the core package so the two can import each other's
#: submodules without a cycle.
CoordsKeyLike = Iterable[Tuple[str, int]]


def key_dict(key: CoordsKeyLike) -> KeyDict:
    """Render a scenario key as a plain ``{dimension: position}`` dict."""
    return {name: position for name, position in key}


@dataclass(frozen=True)
class TelemetryEvent:
    """Base class; ``type`` is the concrete class name on the wire."""

    @property
    def type(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class ScenarioGenerated(TelemetryEvent):
    """A scenario entered the pending queue Psi."""

    key: KeyDict
    origin: str
    coords: Dict[str, int]
    plugin: Optional[str] = None
    parent_key: Optional[KeyDict] = None
    mutate_distance: float = 0.0


@dataclass(frozen=True)
class ParentSelected(TelemetryEvent):
    """The controller sampled a parent from Pi for the accepted mutation."""

    parent_key: KeyDict
    parent_impact: float
    mu: float
    top_set_size: int


@dataclass(frozen=True)
class PluginSampled(TelemetryEvent):
    """The controller sampled a plugin by fitness gain (accepted attempt)."""

    plugin: str
    weight: float
    selections: int
    total_gain: float


@dataclass(frozen=True)
class MutationApplied(TelemetryEvent):
    """A plugin mutated the parent into a fresh, unexplored child."""

    plugin: str
    parent_key: KeyDict
    child_key: KeyDict
    mutate_distance: float
    #: Dimensions whose position differs between parent and child (sorted).
    changed: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class ScenarioExecuted(TelemetryEvent):
    """One scenario ran against the target (published in submission order)."""

    test_index: int
    key: KeyDict
    impact: float
    failed: bool = False
    #: Target-specific headline figures (``Target.telemetry_summary``),
    #: computed in the parent process; None for failures / plain targets.
    summary: Optional[Dict[str, object]] = None
    #: Scheduler counters for this execution: ``{"size": batch size,
    #: "slot": position in the batch, "depth": submissions still queued
    #: behind it}``. A pure function of the batch structure (see
    #: ``repro.core.executor.batch_sched``) — never of worker count,
    #: completion order, or clocks — so streams stay byte-identical
    #: across worker counts and backends; a serial execution is a batch
    #: of one. ``repro explain`` folds these into the
    #: scheduler-efficiency rollup. (Schema v3; absent on older streams.)
    sched: Optional[Dict[str, int]] = None


@dataclass(frozen=True)
class ImpactAbsorbed(TelemetryEvent):
    """A result entered Omega (and Pi when it made the cut); mu updated."""

    test_index: int
    key: KeyDict
    impact: float
    mu: float
    best_key: Optional[KeyDict] = None


@dataclass(frozen=True)
class CoverageObserved(TelemetryEvent):
    """A scenario's coverage signature entered the seen-behaviour map.

    Published only when coverage-guided (hybrid) exploration is active.
    ``signature`` is the stable SHA-256-derived behaviour digest, so the
    event stream stays byte-identical across worker counts, fork vs
    from-scratch execution, and ``PYTHONHASHSEED`` values.
    """

    test_index: int
    key: KeyDict
    signature: str
    novel: bool
    #: Distinct signatures seen so far, including this one.
    seen_total: int
    #: 1/n for the n-th observation of this signature.
    novelty: float


@dataclass(frozen=True)
class FailureClassified(TelemetryEvent):
    """A scenario failure was classified and quarantined (zero impact)."""

    test_index: int
    key: KeyDict
    kind: str
    error: str
    attempts: int


@dataclass(frozen=True)
class CheckpointWritten(TelemetryEvent):
    """A campaign checkpoint is about to land (cursor includes this event)."""

    path: str
    results: int
    pending: int


#: Wire name -> event class, for schema validation and stream decoding.
EVENT_TYPES = {
    cls.__name__: cls
    for cls in (
        ScenarioGenerated,
        ParentSelected,
        PluginSampled,
        MutationApplied,
        ScenarioExecuted,
        ImpactAbsorbed,
        CoverageObserved,
        FailureClassified,
        CheckpointWritten,
    )
}


__all__ = [
    "EVENT_TYPES",
    "CheckpointWritten",
    "CoverageObserved",
    "FailureClassified",
    "ImpactAbsorbed",
    "KeyDict",
    "MutationApplied",
    "ParentSelected",
    "PluginSampled",
    "ScenarioExecuted",
    "ScenarioGenerated",
    "TelemetryEvent",
    "key_dict",
]
