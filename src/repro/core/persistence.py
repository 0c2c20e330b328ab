"""Saving and loading campaign results and campaign checkpoints.

Campaigns can be expensive (hundreds of simulated deployments), so results
are persistable to JSON for later analysis. Measurements are stored as
plain dictionaries (dataclass fields); loading therefore returns
measurement *dicts*, not the original target-specific classes — enough for
all reporting and analysis code, which only reads attributes by name.

Format history
--------------
- **v1** — results with coords/params/origin/plugin/mutate_distance
  (no longer loaded: nothing has written it since v2 landed).
- **v2** (current) — adds per-result ``parent_key`` provenance and a
  ``failure`` block (kind/error/attempts) for crash-safe campaigns, plus
  the *campaign checkpoint* document (``kind: "avd-checkpoint"``): the
  complete Test Controller state — executed results, RNG state, plugin
  fitness stats, the pending queue Psi with its parent-impact map, and
  the quarantine — written atomically so a killed campaign resumes
  bit-identically (``restore_controller`` / ``repro resume``).
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .campaign import CampaignResult
from .failures import RetryPolicy, ScenarioFailure
from .hyperspace import CoordsKey, coords_key
from .scenario import ScenarioResult, TestScenario

FORMAT_VERSION = 2
CHECKPOINT_KIND = "avd-checkpoint"


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


def _atomic_write_json(path: Union[str, Path], data: Dict[str, Any]) -> None:
    """Write JSON so a crash mid-write never leaves a torn file.

    The document is serialized to a sibling temp file and moved into place
    with ``os.replace`` (atomic on POSIX): readers see either the previous
    complete file or the new complete file, never a prefix.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, indent=2))
    os.replace(tmp, path)


def save_campaign(campaign: CampaignResult, path: Union[str, Path]) -> None:
    """Write a campaign to ``path`` as JSON (atomically)."""
    _atomic_write_json(path, campaign_to_dict(campaign))


def load_campaign(path: Union[str, Path]) -> CampaignResult:
    """Load a campaign previously written by :func:`save_campaign`."""
    return campaign_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# campaign checkpoints
# ---------------------------------------------------------------------------
def checkpoint_to_dict(controller) -> Dict[str, Any]:
    """Serialize a Test Controller's complete campaign state.

    Everything the meta-heuristic has learned or committed to is captured:
    executed results (Pi and Omega are rebuilt from them by deterministic
    replay), the controller's RNG state, per-plugin fitness-gain stats,
    the pending queue Psi with the parent-impact map that feeds those
    stats, and the quarantine. Restoring this state and continuing is
    bit-identical to never having stopped.
    """
    config = controller.config
    rng_version, rng_internal, rng_gauss = controller.rng.getstate()
    return {
        "format_version": FORMAT_VERSION,
        "kind": CHECKPOINT_KIND,
        "campaign_seed": controller.campaign_seed,
        "config": {
            "top_set_size": config.top_set_size,
            "seed_tests": config.seed_tests,
            "random_restart_rate": config.random_restart_rate,
            "dedup_retries": config.dedup_retries,
            "fixed_mutate_distance": config.fixed_mutate_distance,
            "uniform_plugin_choice": config.uniform_plugin_choice,
            "scenario_timeout": config.scenario_timeout,
            "novelty_weight": controller.novelty_weight,
            "retry": config.retry.to_dict(),
        },
        "rng_state": [rng_version, list(rng_internal), rng_gauss],
        "max_impact": controller.max_impact,
        "plugin_stats": {
            name: {
                "selections": stats.selections,
                "total_gain": stats.total_gain,
                "improvements": stats.improvements,
            }
            for name, stats in controller.plugin_sampler.stats.items()
        },
        "pending": [
            {
                "coords": dict(scenario.coords),
                "parent_key": _key_to_jsonable(scenario.parent_key),
                "plugin": scenario.plugin,
                "mutate_distance": scenario.mutate_distance,
                "origin": scenario.origin,
            }
            for scenario in controller.pending
        ],
        "parent_impact": [
            [_key_to_jsonable(key), impact]
            for key, impact in controller._parent_impact.items()
        ],
        "quarantine": controller.quarantine.to_list(),
        # The seen-behaviour map and its per-scenario signatures. Stored
        # verbatim (not recomputed on restore): loaded measurements are
        # attribute views, and replaying extraction over them must never
        # be able to drift from what the live run observed.
        "coverage": {
            "seen": controller.coverage.to_state(),
            "signatures": [
                [_key_to_jsonable(key), signature]
                for key, signature in controller._signatures.items()
            ],
            "features": [
                [_key_to_jsonable(key), list(features)]
                for key, features in controller._features.items()
            ],
            "corpus": [_key_to_jsonable(key) for key in controller._novel_corpus],
        },
        "results": [_result_to_dict(result) for result in controller.results],
        "run": dict(controller._run_params),
        "context": dict(controller.checkpoint_context),
        # The telemetry cursor: how many events the bus has sequenced so
        # far. A resumed campaign fast-forwards its bus past this so an
        # appended JSONL stream never reuses sequence numbers. (Old v2
        # checkpoints without the key restore with a cursor of 0.)
        "telemetry": {"seq": int(controller.telemetry.seq)},
    }


def save_checkpoint(controller, path: Union[str, Path]) -> None:
    """Atomically write a campaign checkpoint (crash-safe: never torn)."""
    _atomic_write_json(path, checkpoint_to_dict(controller))


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a checkpoint document written by :func:`save_checkpoint`."""
    data = json.loads(Path(path).read_text())
    _check_version(data)
    if data.get("kind") != CHECKPOINT_KIND:
        raise ValueError(
            f"not a campaign checkpoint: kind={data.get('kind')!r} "
            f"(expected {CHECKPOINT_KIND!r})"
        )
    if "shard" in data.get("context", {}):
        # Its Pi/Omega held partner results this version no longer replays.
        raise ValueError(
            "checkpoint belongs to one shard of a sharded campaign; "
            "sharding was removed, so it cannot be continued"
        )
    return data


def restore_controller(data: Dict[str, Any], target, plugins, telemetry=None):
    """Rebuild a Test Controller from :func:`load_checkpoint` output.

    ``target`` and ``plugins`` must be reconstructed by the caller exactly
    as in the original campaign (same target configuration, same plugin
    set) — the scenario seeds derive from the campaign seed, so identical
    inputs reproduce identical measurements. Plugin names are validated
    against the checkpoint; a mismatch raises ``ValueError``.

    ``telemetry`` optionally attaches a
    :class:`~repro.telemetry.TelemetryBus` to the restored controller;
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
    retry = RetryPolicy.from_dict(config_data.pop("retry", {}))
    unknown = sorted(set(config_data) - {f.name for f in dataclasses.fields(ControllerConfig)})
    if unknown:
        raise ValueError(
            "checkpoint config carries settings this version does not have: "
            + ", ".join(unknown)
        )
    config = ControllerConfig(retry=retry, **config_data)
    controller = TestController(
        target, plugins, seed=int(data["campaign_seed"]), config=config,
        telemetry=telemetry,
    )
    controller._telemetry_seq_floor = int(data.get("telemetry", {}).get("seq", 0))
    if controller.telemetry.seq < controller._telemetry_seq_floor:
        controller.telemetry.seq = controller._telemetry_seq_floor
    saved_plugins = set(data["plugin_stats"])
    live_plugins = set(controller.plugins)
    if saved_plugins != live_plugins:
        raise ValueError(
            "checkpoint plugin set does not match the provided plugins: "
            f"saved {sorted(saved_plugins)}, got {sorted(live_plugins)}"
        )

    # Replay the executed results through the normal absorption path:
    # Pi, Omega, mu, and the quarantine are rebuilt deterministically.
    for entry in data["results"]:
        result = _result_from_dict(entry)
        controller.history.add(result.key)
        controller.results.append(result)
        if isinstance(result, ScenarioFailure):
            controller.quarantine.record(
                result.key, kind=result.kind, error=result.error, attempts=result.attempts
            )
        else:
            controller.top_set.offer(result)
            if result.impact > controller.max_impact:
                controller.max_impact = result.impact

    # Fitness-gain stats are restored verbatim, not replayed: the replay
    # above has no parent-impact map for historical mutations.
    for name, stats_data in data["plugin_stats"].items():
        stats = controller.plugin_sampler.stats[name]
        stats.selections = int(stats_data["selections"])
        stats.total_gain = float(stats_data["total_gain"])
        stats.improvements = int(stats_data["improvements"])

    # Psi: scenarios generated (RNG already consumed) but not yet executed.
    for entry in data.get("pending", []):
        scenario = TestScenario(
            coords={k: int(v) for k, v in entry["coords"].items()},
            parent_key=_key_from_jsonable(entry.get("parent_key")),
            plugin=entry.get("plugin"),
            mutate_distance=entry.get("mutate_distance", 0.0),
            origin=entry.get("origin", "random"),
        )
        controller.pending.append(scenario)
        controller._pending_keys.add(scenario.key)
    controller._parent_impact = {
        _key_from_jsonable(key): float(impact)
        for key, impact in data.get("parent_impact", [])
    }

    # Quarantine entries whose failures predate the kept results (e.g. a
    # checkpoint chain) are merged in on top of the replayed ones.
    for item in data.get("quarantine", []):
        key = tuple((str(name), int(pos)) for name, pos in item["key"])
        if key not in controller.quarantine:
            controller.quarantine.record(
                key,
                kind=item.get("kind", "target-fault"),
                error=item.get("error", ""),
                attempts=int(item.get("attempts", 1)),
            )

    # Coverage state is restored verbatim (old checkpoints without the
    # block come back with an empty map — matching their novelty_weight
    # of 0). Corpus entries are rebuilt by key lookup over the replayed
    # results; a key that no longer resolves is simply dropped.
    from .coverage import CoverageMap

    coverage_data = data.get("coverage", {})
    controller.coverage = CoverageMap.from_state(coverage_data.get("seen"))
    controller._signatures = {
        _key_from_jsonable(key): str(signature)
        for key, signature in coverage_data.get("signatures", [])
    }
    controller._features = {
        _key_from_jsonable(key): tuple(str(feature) for feature in features)
        for key, features in coverage_data.get("features", [])
    }
    by_key = {result.key: result for result in controller.results}
    controller._novel_corpus = {
        key: by_key[key]
        for key in map(_key_from_jsonable, coverage_data.get("corpus", []))
        if key in by_key
    }

    rng_version, rng_internal, rng_gauss = data["rng_state"]
    controller.rng.setstate((rng_version, tuple(rng_internal), rng_gauss))
    controller.max_impact = float(data["max_impact"])
    controller.checkpoint_context = dict(data.get("context", {}))
    return controller


__all__ = [
    "CHECKPOINT_KIND",
    "FORMAT_VERSION",
    "campaign_from_dict",
    "campaign_to_dict",
    "checkpoint_to_dict",
    "load_campaign",
    "load_checkpoint",
    "restore_controller",
    "save_campaign",
    "save_checkpoint",
]
