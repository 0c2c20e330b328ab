"""Saving and loading campaign results and campaign checkpoints.

Campaigns can be expensive (hundreds of simulated deployments), so results
are persistable to JSON for later analysis. Measurements are stored as
plain dictionaries (dataclass fields); loading therefore returns
measurement *dicts*, not the original target-specific classes — enough for
all reporting and analysis code, which only reads attributes by name.

Format (v5; any other version is refused by name)
-------------------------------------------------
A campaign file holds the strategy name and its results (coords, params,
origin, plugin, mutate distance, ``parent_key`` provenance, and a
``failure`` block for failures). A checkpoint (``kind: "avd-checkpoint"``)
is JSON Lines: a header line with the campaign's recipe (seed, controller
config, plugin names, caller context), then one record per checkpoint
write holding the run's ``run`` block (the spec's execution fields:
budget, workers, batch size, cadence, hosts, ``scenario_timeout``,
``max_attempts``), the results absorbed since the previous record and the
telemetry cursor. Everything else is rebuilt by replaying those results
through the controller's own loop (``restore_controller`` / ``repro
resume``), so a killed campaign resumes bit-identically. v3 introduced the
log, v4 recorded ``hosts``, v5 moved the backstop and the retry budget from
the header's config to the ``run`` block; older files are not loaded.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .campaign import CampaignResult
from .failures import ScenarioFailure
from .hyperspace import CoordsKey, coords_key
from .parallel import run_batches
from .scenario import ScenarioResult, TestScenario

FORMAT_VERSION = 5
CHECKPOINT_KIND = "avd-checkpoint"

#: Operator-facing diagnostics (stderr); never part of a result or checkpoint.
_LOG = logging.getLogger(__name__)


class _MeasurementView:
    """Attribute view over a loaded measurement dict.

    Lets analysis code written against e.g. ``PbftRunResult`` attributes
    (``result.measurement.throughput_rps``) work on loaded campaigns too.
    """

    def __init__(self, data: Dict[str, Any]) -> None:
        self._data = dict(data)

    def __getattr__(self, name: str) -> Any:
        try:
            return self._data[name]
        except KeyError:
            raise AttributeError(name) from None

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MeasurementView({sorted(self._data)})"


def _measurement_to_dict(measurement: object) -> Optional[Dict[str, Any]]:
    if measurement is None:
        return None
    if dataclasses.is_dataclass(measurement) and not isinstance(measurement, type):
        raw = dataclasses.asdict(measurement)
    elif isinstance(measurement, dict):
        raw = dict(measurement)
    elif isinstance(measurement, _MeasurementView):
        raw = measurement.as_dict()
    else:
        raw = {"repr": repr(measurement)}
    out: Dict[str, Any] = {}
    for key, value in raw.items():
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    # Property-derived figures that reports rely on.
    for prop in ("throughput_rps",):
        if prop not in out and hasattr(measurement, prop):
            out[prop] = getattr(measurement, prop)
    return out


def _key_to_jsonable(key: Optional[CoordsKey]) -> Optional[Dict[str, int]]:
    if key is None:
        return None
    return {name: position for name, position in key}


def _key_from_jsonable(data: Optional[Dict[str, Any]]) -> Optional[CoordsKey]:
    if data is None:
        return None
    return coords_key({name: int(position) for name, position in data.items()})


def _result_to_dict(result: ScenarioResult) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "test_index": result.test_index,
        "impact": result.impact,
        "coords": dict(result.scenario.coords),
        "params": {k: _json_value(v) for k, v in result.params.items()},
        "origin": result.scenario.origin,
        "plugin": result.scenario.plugin,
        "mutate_distance": result.scenario.mutate_distance,
        "parent_key": _key_to_jsonable(result.scenario.parent_key),
        "measurement": _measurement_to_dict(result.measurement),
    }
    if isinstance(result, ScenarioFailure):
        entry["failure"] = {
            "kind": result.kind,
            "error": result.error,
            "attempts": result.attempts,
        }
    return entry


def _result_from_dict(entry: Dict[str, Any]) -> ScenarioResult:
    scenario = TestScenario(
        coords={k: int(v) for k, v in entry["coords"].items()},
        parent_key=_key_from_jsonable(entry.get("parent_key")),
        plugin=entry.get("plugin"),
        mutate_distance=entry.get("mutate_distance", 0.0),
        origin=entry.get("origin", "random"),
    )
    measurement = entry.get("measurement")
    common = dict(
        scenario=scenario,
        impact=float(entry["impact"]),
        test_index=int(entry["test_index"]),
        # An empty measurement dict is falsy but real: only None means
        # "no measurement recorded".
        measurement=_MeasurementView(measurement) if measurement is not None else None,
        params=dict(entry.get("params", {})),
    )
    failure = entry.get("failure")
    if failure is not None:
        return ScenarioFailure(
            kind=failure.get("kind", "target-fault"),
            error=failure.get("error", ""),
            attempts=int(failure.get("attempts", 1)),
            **common,
        )
    return ScenarioResult(**common)


def campaign_to_dict(campaign: CampaignResult) -> Dict[str, Any]:
    """Serialize a campaign into a JSON-compatible dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "strategy": campaign.strategy,
        "results": [_result_to_dict(result) for result in campaign.results],
    }


def _json_value(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _check_version(data: Dict[str, Any]) -> None:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported campaign format version: {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )


def campaign_from_dict(data: Dict[str, Any]) -> CampaignResult:
    """Rebuild a campaign from :func:`campaign_to_dict` output."""
    _check_version(data)
    results = [_result_from_dict(entry) for entry in data["results"]]
    return CampaignResult(strategy=data["strategy"], results=results)


def _atomic_write(path: Union[str, Path], text: str) -> None:
    """Write ``text`` so a crash mid-write never leaves a torn file.

    The text goes to a sibling temp file that is moved into place with
    ``os.replace`` (atomic on POSIX): readers see either the previous
    complete file or the new complete file, never a prefix.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def save_campaign(campaign: CampaignResult, path: Union[str, Path]) -> None:
    """Write a campaign to ``path`` as JSON (atomically)."""
    _atomic_write(path, json.dumps(campaign_to_dict(campaign), indent=2))


def load_campaign(path: Union[str, Path]) -> CampaignResult:
    """Load a campaign previously written by :func:`save_campaign`."""
    return campaign_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# campaign checkpoints
# ---------------------------------------------------------------------------
def _checkpoint_header(controller) -> Dict[str, Any]:
    """The campaign's recipe: everything replay needs besides its results."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": CHECKPOINT_KIND,
        "campaign_seed": controller.campaign_seed,
        "config": dataclasses.asdict(controller.config),
        "plugins": list(controller.plugins),
        "context": dict(controller.checkpoint_context),
    }


def _record_line(results: List[ScenarioResult], log, index: int) -> str:
    """Record ``index`` of a checkpoint log, as one JSON line."""
    run, end, telemetry_seq = log[index]
    start = log[index - 1][1] if index else 0
    record = {
        "run": run,
        "results": [_result_to_dict(result) for result in results[start:end]],
        "telemetry_seq": telemetry_seq,
    }
    return json.dumps(record) + "\n"


def save_checkpoint(controller, path: Union[str, Path]) -> None:
    """Write the campaign's next checkpoint record.

    A run's first write rewrites the file atomically (temp file +
    ``os.replace``): the header plus every record so far. Its later writes
    append one line holding only the results absorbed since the previous
    write; a kill can tear that line, never an earlier one.
    """
    path = str(path)
    results = controller.results
    log = controller._checkpoint_log + [
        (dict(controller._run_params), len(results), int(controller.telemetry.seq))
    ]
    if controller._checkpoint_file == path:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(_record_line(results, log, len(log) - 1))
    else:
        lines = [_record_line(results, log, index) for index in range(len(log))]
        _atomic_write(path, json.dumps(_checkpoint_header(controller)) + "\n" + "".join(lines))
        controller._checkpoint_file = path
    controller._checkpoint_log = log


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a checkpoint written by :func:`save_checkpoint`.

    Returns the header with the ``records`` list, every recorded result
    under ``results``, and the last record's ``run`` and
    ``telemetry_seq``. An unparseable final line (a write torn by a kill)
    is dropped with one warning, so the checkpoint loads as of the
    previous record; any other corrupt line is refused.
    """
    text = Path(path).read_text(encoding="utf-8")
    header, end = json.JSONDecoder().raw_decode(text)
    _check_version(header)
    if header.get("kind") != CHECKPOINT_KIND:
        raise ValueError(
            f"not a campaign checkpoint: kind={header.get('kind')!r} "
            f"(expected {CHECKPOINT_KIND!r})"
        )
    lines = text[end:].strip().split("\n")
    records = []
    for number, line in enumerate(lines, start=1):
        try:
            records.append(json.loads(line))
        except ValueError:
            if number < len(lines):
                raise ValueError(f"checkpoint record {number} is corrupt") from None
            _LOG.warning("%s: dropped torn checkpoint record %d", path, number)
    if not records:
        raise ValueError("checkpoint holds no records")
    return dict(
        header,
        records=records,
        results=[entry for record in records for entry in record["results"]],
        run=records[-1]["run"],
        telemetry_seq=int(records[-1]["telemetry_seq"]),
    )


class _Replay:
    """Stands in for the worker pool while a checkpoint is replayed.

    It serves each recorded result to the controller's own loop after
    checking that the loop regenerated the scenario that produced it. It
    executes nothing and publishes nothing.
    """

    def __init__(self) -> None:
        self.entries: List[Dict[str, Any]] = []

    def execute_batch_isolated(self, batch, start_index: int) -> List[ScenarioResult]:
        results = []
        for index, scenario in enumerate(batch, start=start_index):
            result = _result_from_dict(self.entries[index])
            if result.scenario != scenario or result.test_index != index:
                raise ValueError(
                    f"checkpoint diverges from its campaign at test {index}: "
                    f"recorded {result.scenario.coords}, regenerated {scenario.coords}"
                )
            results.append(result)
        return results


def restore_controller(data: Dict[str, Any], target, plugins, telemetry=None):
    """Rebuild a Test Controller from :func:`load_checkpoint` output.

    ``target`` and ``plugins`` must be reconstructed by the caller exactly
    as in the original campaign (same target configuration, same plugin
    set). Every piece of controller state — Pi, Psi, Omega, mu, the plugin
    fitness stats, the quarantine, coverage and the RNG — is rebuilt by
    feeding the recorded results back through the controller's own
    campaign loop, one record at a time at that record's batch size. A
    regenerated scenario that differs from the recorded one (a stale
    checkpoint, or one resumed against a different hyperspace) raises
    ``ValueError`` naming the test index; so does a plugin-set mismatch.

    ``telemetry`` optionally attaches a
    :class:`~repro.telemetry.TelemetryBus` once the replay is done;
    whether passed here or later via a ``CampaignSpec``, the bus is
    fast-forwarded past the checkpointed sequence cursor so a resumed
    stream (e.g. a JSONL sink in append mode) continues without reusing
    sequence numbers.

    The returned controller continues exactly where the checkpoint was
    taken: calling ``run(total_budget, ...)`` with the checkpoint's
    ``batch_size`` yields the same trajectory an uninterrupted run with
    the same seed would have produced.
    """
    from .controller import ControllerConfig, TestController  # lazy: import cycle

    if data.get("kind") != CHECKPOINT_KIND:
        raise ValueError("restore_controller needs a checkpoint document")
    config_data = dict(data["config"])
    unknown = sorted(set(config_data) - {f.name for f in dataclasses.fields(ControllerConfig)})
    if unknown:
        raise ValueError(
            "checkpoint config carries settings this version does not have: "
            + ", ".join(unknown)
        )
    config = ControllerConfig(**config_data)
    controller = TestController(target, plugins, seed=int(data["campaign_seed"]), config=config)
    if set(data["plugins"]) != set(controller.plugins):
        raise ValueError(
            "checkpoint plugin set does not match the provided plugins: "
            f"saved {sorted(data['plugins'])}, got {sorted(controller.plugins)}"
        )

    replay = _Replay()
    for record in data["records"]:
        replay.entries.extend(record["results"])
        run_batches(
            replay, controller.results, len(replay.entries), int(record["run"]["batch_size"]),
            controller._next_batch, controller._absorb_batch,
        )
        if len(controller.results) < len(replay.entries):
            raise ValueError(
                "checkpoint diverges from its campaign at test "
                f"{len(controller.results)}: the hyperspace ran out of scenarios"
            )
        controller._checkpoint_log.append(
            (dict(record["run"]), len(replay.entries), int(record["telemetry_seq"]))
        )

    controller.checkpoint_context = dict(data["context"])
    controller._telemetry_seq_floor = int(data["telemetry_seq"])
    if telemetry is not None:
        controller.telemetry = telemetry
    if controller.telemetry.seq < controller._telemetry_seq_floor:
        controller.telemetry.seq = controller._telemetry_seq_floor
    return controller


__all__ = [
    "CHECKPOINT_KIND",
    "FORMAT_VERSION",
    "campaign_from_dict",
    "campaign_to_dict",
    "load_campaign",
    "load_checkpoint",
    "restore_controller",
    "save_campaign",
    "save_checkpoint",
]
