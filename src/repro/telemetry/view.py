"""The incremental campaign view: one fold path for explain *and* serve.

:class:`CampaignView` folds schema-versioned wire records **one at a
time** (``view.fold(record)``) into the rollups ``repro explain``
reports — per-plugin fitness/impact attribution, best-scenario lineage,
exploration heatmaps, failure-kind counters, coverage, and the
scheduler rollup — and can be snapshotted to a
:class:`CampaignAttribution` (and from there to JSON) at **any prefix**
of the stream. That prefix property is the whole design: batch
``repro explain`` is just "fold the whole file, snapshot once", and the
live ``repro serve`` observatory is "fold each event as the campaign
flushes it, snapshot per request" — the same code path, so the two can
never disagree (``tests/telemetry/test_view.py`` proves fold-by-fold ≡
whole-file at every prefix).

The view is strictly read-only over the wire format: it never touches a
bus, a controller, or a target, so attaching any number of views to a
stream cannot perturb the campaign that writes it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .schema import SchemaError

#: Hashable form of a wire-format key dict.
Key = Tuple[Tuple[str, int], ...]


def freeze_key(data: Optional[Dict[str, int]]) -> Optional[Key]:
    """A wire-format ``{dimension: position}`` key as a hashable tuple."""
    if data is None:
        return None
    return tuple(sorted((str(name), int(pos)) for name, pos in data.items()))


@dataclass
class PluginAttribution:
    """What one tool plugin contributed to the campaign."""

    plugin: str
    generated: int = 0
    executed: int = 0
    failures: int = 0
    best_impact: float = 0.0
    impact_sum: float = 0.0
    #: Fitness gain actually banked: sum of max(0, child - parent).
    total_gain: float = 0.0
    improvements: int = 0
    #: Final sampling weight observed on the stream (None if never sampled).
    weight: Optional[float] = None

    @property
    def mean_impact(self) -> float:
        return self.impact_sum / self.executed if self.executed else 0.0


@dataclass
class LineageStep:
    """One link in the best scenario's mutation chain (root first)."""

    key: Key
    origin: str
    plugin: Optional[str]
    mutate_distance: float
    test_index: Optional[int]
    impact: Optional[float]
    changed: List[str] = field(default_factory=list)
    coords: Dict[str, int] = field(default_factory=dict)


@dataclass
class CampaignAttribution:
    """Everything a :class:`CampaignView` snapshot reconstructs from a stream."""

    events: int = 0
    tests: int = 0
    failures: int = 0
    checkpoints: int = 0
    best_key: Optional[Key] = None
    best_impact: float = 0.0
    best_test_index: Optional[int] = None
    plugins: Dict[str, PluginAttribution] = field(default_factory=dict)
    random_generated: int = 0
    lineage: List[LineageStep] = field(default_factory=list)
    #: False when the walk from the best scenario could not reach a
    #: founding random shot (truncated or cyclic ``parent_key`` chain).
    lineage_complete: bool = True
    #: Why the lineage walk stopped early (None when complete).
    lineage_break: Optional[str] = None
    #: True when the stream ended in a torn (half-written) final line.
    truncated_tail: bool = False
    #: CoverageObserved roll-up (zeros for impact-only campaigns).
    coverage_events: int = 0
    distinct_signatures: int = 0
    novel_signatures: int = 0
    #: Scheduler roll-up from the per-event ``sched`` counters (schema
    #: v3; all zeros for older streams). ``sched_batches`` counts
    #: dispatch rounds (events at slot 0), ``sched_max_batch`` the widest
    #: round, ``sched_depth_sum`` the summed queue depth at dispatch.
    sched_events: int = 0
    sched_batches: int = 0
    sched_max_batch: int = 0
    sched_depth_sum: int = 0
    impact_curve: List[float] = field(default_factory=list)
    #: (dimension name, positions seen) per dimension, insertion-ordered.
    dimension_positions: Dict[str, List[int]] = field(default_factory=dict)
    #: key -> coords for every generated scenario (feeds the heatmap).
    coords_by_key: Dict[Key, Dict[str, int]] = field(default_factory=dict)
    impact_by_key: Dict[Key, float] = field(default_factory=dict)
    test_index_by_key: Dict[Key, int] = field(default_factory=dict)
    #: FailureClassified roll-up: failure kind -> quarantined count.
    #: Observatory-only (not part of the ``repro explain`` output, whose
    #: bytes predate it and must stay stable).
    failure_kinds: Dict[str, int] = field(default_factory=dict)
    #: FailureClassified events folded (== quarantined scenarios).
    quarantined: int = 0
    #: Highest envelope ``seq`` folded so far (-1 before the first event).
    last_seq: int = -1


class CampaignView:
    """Folds validated wire records, one at a time, into a live attribution.

    ``fold`` takes a *decoded* record (a dict straight off
    :func:`repro.telemetry.read_events` or
    :func:`~repro.telemetry.reader.parse_events`); it assumes the record
    already passed schema validation and raises :class:`SchemaError` only
    for an unknown event type. ``snapshot`` materializes the current
    prefix as an independent :class:`CampaignAttribution` — including the
    best-scenario lineage walk, which is recomputed per snapshot because
    the best scenario can change with every fold.
    """

    def __init__(self) -> None:
        self._out = CampaignAttribution()
        self._generated: Dict[Key, Dict[str, Any]] = {}

    @property
    def events_folded(self) -> int:
        return self._out.events

    def fold(self, record: Dict[str, Any]) -> None:
        """Fold one decoded wire record into the view."""
        out = self._out
        type_name = record.get("type")
        out.events += 1
        seq = record.get("seq")
        if isinstance(seq, int) and not isinstance(seq, bool):
            out.last_seq = max(out.last_seq, seq)
        if type_name == "ScenarioGenerated":
            key = freeze_key(record["key"])
            self._generated[key] = record
            coords = {str(k): int(v) for k, v in record["coords"].items()}
            out.coords_by_key[key] = coords
            for name, pos in coords.items():
                positions = out.dimension_positions.setdefault(name, [])
                if pos not in positions:
                    positions.append(pos)
            plugin = record["plugin"]
            if plugin is None:
                out.random_generated += 1
            else:
                out.plugins.setdefault(plugin, PluginAttribution(plugin)).generated += 1
        elif type_name == "PluginSampled":
            stats = out.plugins.setdefault(
                record["plugin"], PluginAttribution(record["plugin"])
            )
            stats.weight = float(record["weight"])
        elif type_name == "ScenarioExecuted":
            key = freeze_key(record["key"])
            impact = float(record["impact"])
            out.tests += 1
            out.impact_curve.append(impact)
            out.impact_by_key[key] = impact
            out.test_index_by_key[key] = int(record["test_index"])
            sched = record.get("sched")
            if sched is not None:
                out.sched_events += 1
                if int(sched.get("slot", 0)) == 0:
                    out.sched_batches += 1
                out.sched_max_batch = max(out.sched_max_batch, int(sched.get("size", 1)))
                out.sched_depth_sum += int(sched.get("depth", 0))
            meta = self._generated.get(key)
            plugin = meta["plugin"] if meta else None
            if plugin is not None:
                stats = out.plugins.setdefault(plugin, PluginAttribution(plugin))
                stats.executed += 1
                stats.impact_sum += impact
                stats.best_impact = max(stats.best_impact, impact)
                if record["failed"]:
                    stats.failures += 1
                parent = freeze_key(meta["parent_key"])
                gain = impact - out.impact_by_key.get(parent, 0.0)
                if gain > 0:
                    stats.total_gain += gain
                    stats.improvements += 1
            if record["failed"]:
                out.failures += 1
            elif impact > out.best_impact or out.best_key is None:
                out.best_impact = impact
                out.best_key = key
                out.best_test_index = int(record["test_index"])
        elif type_name == "CoverageObserved":
            out.coverage_events += 1
            out.distinct_signatures = max(
                out.distinct_signatures, int(record["seen_total"])
            )
            if record["novel"]:
                out.novel_signatures += 1
        elif type_name == "FailureClassified":
            kind = str(record["kind"])
            out.quarantined += 1
            out.failure_kinds[kind] = out.failure_kinds.get(kind, 0) + 1
        elif type_name == "CheckpointWritten":
            out.checkpoints += 1
        elif type_name not in ("ImpactAbsorbed", "ParentSelected", "MutationApplied"):
            raise SchemaError(f"unknown event type: {type_name!r}")

    def mark_torn_tail(self) -> None:
        """Record that the stream ended in a half-written final line."""
        self._out.truncated_tail = True

    def snapshot(self) -> CampaignAttribution:
        """The current prefix as an independent attribution (with lineage).

        The returned object shares nothing mutable with the view: folding
        more events never changes an earlier snapshot, so a server thread
        can hand snapshots to request handlers while the tail thread keeps
        folding.
        """
        live = self._out
        out = dataclasses.replace(
            live,
            plugins={
                name: dataclasses.replace(stats) for name, stats in live.plugins.items()
            },
            lineage=[],
            impact_curve=list(live.impact_curve),
            dimension_positions={
                name: list(positions)
                for name, positions in live.dimension_positions.items()
            },
            coords_by_key={key: dict(coords) for key, coords in live.coords_by_key.items()},
            impact_by_key=dict(live.impact_by_key),
            test_index_by_key=dict(live.test_index_by_key),
            failure_kinds=dict(live.failure_kinds),
        )
        self._walk_lineage(out)
        return out

    def _walk_lineage(self, out: CampaignAttribution) -> None:
        # Best-scenario lineage: walk parents back to the founding random
        # shot. The walk is defensive: a resumed stream can be missing
        # pre-resume ancestry (truncated chain), and a corrupted stream
        # could even close a parent_key loop. Both terminate cleanly and
        # mark the lineage incomplete rather than walking forever or
        # silently pretending the partial chain is rooted.
        key = out.best_key
        seen: set = set()
        chain: List[LineageStep] = []
        while key is not None:
            if key in seen:
                out.lineage_complete = False
                out.lineage_break = "parent_key chain forms a cycle"
                break
            seen.add(key)
            meta = self._generated.get(key)
            if meta is None:
                out.lineage_complete = False
                out.lineage_break = "ancestry not in this stream (resumed campaign?)"
                break
            parent = freeze_key(meta["parent_key"])
            coords = out.coords_by_key.get(key, {})
            parent_coords = out.coords_by_key.get(parent, coords)
            chain.append(
                LineageStep(
                    key=key,
                    origin=str(meta["origin"]),
                    plugin=meta["plugin"],
                    mutate_distance=float(meta["mutate_distance"]),
                    test_index=out.test_index_by_key.get(key),
                    impact=out.impact_by_key.get(key),
                    changed=sorted(
                        name for name, pos in coords.items() if parent_coords.get(name) != pos
                    ),
                    coords=coords,
                )
            )
            key = parent
        out.lineage = list(reversed(chain))


def fold_stream(
    lines: Iterable[str], view: Optional[CampaignView] = None
) -> CampaignAttribution:
    """Validate and fold in-memory JSONL lines; the batch entry point.

    Equivalent to folding each event through ``view.fold`` and
    snapshotting at the end — it *is* that, via the shared reader — so
    batch explain and the live observatory cannot drift apart.
    """
    from .reader import parse_events

    view = view if view is not None else CampaignView()
    stream = parse_events(lines)
    for record in stream:
        view.fold(record)
    if stream.torn_tail:
        view.mark_torn_tail()
    return view.snapshot()


# ---------------------------------------------------------------------------
# snapshot documents
# ---------------------------------------------------------------------------
def attribution_to_dict(attribution: CampaignAttribution) -> Dict[str, Any]:
    """Machine-readable attribution document (``repro explain --json``)."""
    return {
        "schema_version": 1,
        "campaign": {
            "tests": attribution.tests,
            "events": attribution.events,
            "failures": attribution.failures,
            "checkpoints": attribution.checkpoints,
            "truncated_tail": attribution.truncated_tail,
        },
        "coverage": {
            "events": attribution.coverage_events,
            "distinct_signatures": attribution.distinct_signatures,
            "novel_signatures": attribution.novel_signatures,
        },
        "scheduler": {
            "events": attribution.sched_events,
            "batches": attribution.sched_batches,
            "max_batch": attribution.sched_max_batch,
            "mean_batch": (
                attribution.sched_events / attribution.sched_batches
                if attribution.sched_batches
                else 0.0
            ),
            "mean_queue_depth": (
                attribution.sched_depth_sum / attribution.sched_events
                if attribution.sched_events
                else 0.0
            ),
            "utilization": (
                attribution.sched_events
                / (attribution.sched_batches * attribution.sched_max_batch)
                if attribution.sched_batches and attribution.sched_max_batch
                else 0.0
            ),
        },
        "best": {
            "impact": attribution.best_impact,
            "test_index": attribution.best_test_index,
            "key": dict(attribution.best_key) if attribution.best_key else None,
            "plugin": attribution.lineage[-1].plugin if attribution.lineage else None,
        },
        "plugins": {
            name: {
                "generated": stats.generated,
                "executed": stats.executed,
                "failures": stats.failures,
                "best_impact": stats.best_impact,
                "mean_impact": stats.mean_impact,
                "total_gain": stats.total_gain,
                "improvements": stats.improvements,
                "weight": stats.weight,
            }
            for name, stats in sorted(attribution.plugins.items())
        },
        "random_generated": attribution.random_generated,
        "lineage_complete": attribution.lineage_complete,
        "lineage_break": attribution.lineage_break,
        "lineage": [
            {
                "key": dict(step.key),
                "origin": step.origin,
                "plugin": step.plugin,
                "mutate_distance": step.mutate_distance,
                "test_index": step.test_index,
                "impact": step.impact,
                "changed": list(step.changed),
                "coords": dict(step.coords),
            }
            for step in attribution.lineage
        ],
    }


def heatmap_dimensions(attribution: CampaignAttribution) -> Optional[Tuple[str, str]]:
    """The two widest dimensions actually explored (stable order)."""
    widths = [
        (len(positions), name)
        for name, positions in attribution.dimension_positions.items()
        if len(positions) > 1
    ]
    if len(widths) < 2:
        return None
    widths.sort(key=lambda item: (-item[0], item[1]))
    x_name, y_name = widths[0][1], widths[1][1]
    return x_name, y_name


def heatmap_to_dict(
    attribution: CampaignAttribution,
    x_name: Optional[str] = None,
    y_name: Optional[str] = None,
) -> Optional[Dict[str, Any]]:
    """Max impact observed per (x, y) grid cell, as a JSON-ready document.

    ``grid[row][col]`` maps row -> sorted y position, col -> sorted x
    position; both ``repro explain``'s ASCII heatmap and the observatory
    page render from this one grid.
    """
    if x_name is None or y_name is None:
        chosen = heatmap_dimensions(attribution)
        if chosen is None:
            return None
        x_name, y_name = chosen
    x_positions = sorted(attribution.dimension_positions.get(x_name, []))
    y_positions = sorted(attribution.dimension_positions.get(y_name, []))
    if not x_positions or not y_positions:
        return None
    x_index = {pos: i for i, pos in enumerate(x_positions)}
    y_index = {pos: i for i, pos in enumerate(y_positions)}
    grid = [[0.0] * len(x_positions) for _ in y_positions]
    for key, impact in attribution.impact_by_key.items():
        coords = attribution.coords_by_key.get(key, {})
        if x_name not in coords or y_name not in coords:
            continue
        row, col = y_index[coords[y_name]], x_index[coords[x_name]]
        grid[row][col] = max(grid[row][col], impact)
    return {
        "x": x_name,
        "y": y_name,
        "x_positions": x_positions,
        "y_positions": y_positions,
        "grid": grid,
    }


def explore_to_dict(attribution: CampaignAttribution) -> Dict[str, Any]:
    """The observatory's exploration document (``/api/heatmap``).

    Everything the live page needs beyond the summary document: the
    heatmap grid, the raw impact curve, and the failure-kind counters
    (which the summary cannot carry — its bytes predate them and are
    pinned by the goldens).
    """
    return {
        "heatmap": heatmap_to_dict(attribution),
        "impact_curve": list(attribution.impact_curve),
        "failure_kinds": dict(sorted(attribution.failure_kinds.items())),
        "quarantined": attribution.quarantined,
        "events": attribution.events,
        "last_seq": attribution.last_seq,
        "truncated_tail": attribution.truncated_tail,
    }


def lineage_to_dict(attribution: CampaignAttribution) -> Dict[str, Any]:
    """The observatory's lineage document (``/api/lineage``)."""
    document = attribution_to_dict(attribution)
    return {
        "lineage": document["lineage"],
        "lineage_complete": attribution.lineage_complete,
        "lineage_break": attribution.lineage_break,
        "best": document["best"],
    }


__all__ = [
    "CampaignAttribution",
    "CampaignView",
    "Key",
    "LineageStep",
    "PluginAttribution",
    "attribution_to_dict",
    "explore_to_dict",
    "fold_stream",
    "freeze_key",
    "heatmap_dimensions",
    "heatmap_to_dict",
    "lineage_to_dict",
]
