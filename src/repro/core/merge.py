"""Deterministic merge of sharded-campaign artifacts (``repro merge``).

Folds N shard checkpoints (and optionally their telemetry JSONL streams)
into one canonical report. Canonical means *byte-stable*: the report is
serialized with sorted keys and compact separators, every list is sorted
by an explicit rule, and nothing clock- or host-derived is included — so
the merged bytes are a pure function of the shard contents, which are
themselves a pure function of ``(campaign_seed, shards, budget,
exchange_every, batch_size)``. Re-running the campaign, changing where
its scenarios execute, or merging in a different order all produce the
same file, and CI ``cmp``'s it.

Stream stitching: each shard's events are tagged with the merge-envelope
keys ``shard`` (who produced it) and ``shard_seq`` (its original sequence
number), interleaved by ``(shard_seq, shard)``, and re-sequenced with a
fresh global ``seq`` — the stitched stream still satisfies
``validate_jsonl``'s strictly-increasing-seq rule and every line stays
schema-valid.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .shard import ShardPlan, shard_checkpoint_path, shard_telemetry_path

MERGE_KIND = "avd-merged-report"
MERGE_FORMAT_VERSION = 1


class MergeError(ValueError):
    """Shard artifacts that cannot be merged into one campaign."""


def _load_shard_checkpoints(
    directory: Union[str, Path], shards: Optional[int] = None
) -> List[Tuple[int, Dict[str, Any]]]:
    """Load ``shard-<i>.checkpoint.json`` files, ascending shard order.

    With ``shards`` given, every index below it must be present; without,
    the directory is scanned and gaps raise (a lost shard must be dropped
    explicitly via ``allow_missing``-style tooling, not silently).
    """
    from .persistence import load_checkpoint

    directory = Path(directory)
    if shards is None:
        found = sorted(
            int(path.name.split(".")[0].split("-")[1])
            for path in directory.glob("shard-*.checkpoint.json")
        )
        if not found:
            raise MergeError(f"no shard checkpoints in {directory}")
        indices = found
    else:
        indices = list(range(shards))
    out: List[Tuple[int, Dict[str, Any]]] = []
    for index in indices:
        path = shard_checkpoint_path(directory, index)
        try:
            out.append((index, load_checkpoint(path)))
        except OSError as exc:
            raise MergeError(f"missing shard checkpoint: {path} ({exc})") from exc
    return out


def _shard_plan_of(index: int, data: Dict[str, Any]) -> ShardPlan:
    shard_state = data.get("context", {}).get("shard")
    if not shard_state:
        raise MergeError(f"shard {index}: checkpoint carries no shard context")
    if int(shard_state.get("index", -1)) != index:
        raise MergeError(
            f"shard {index}: checkpoint claims index {shard_state.get('index')}"
        )
    return ShardPlan.from_dict(shard_state["plan"])


def merge_checkpoints(
    checkpoints: Sequence[Tuple[int, Dict[str, Any]]],
) -> Dict[str, Any]:
    """The canonical merged-report document for a set of shard checkpoints.

    Validates that every checkpoint belongs to the same
    :class:`~repro.core.shard.ShardPlan`, then folds:

    - **results** — every shard's *local* executions (foreign absorbs are
      partner copies, not re-counted), each tagged with its shard, sorted
      by ``(shard, test_index)``;
    - **best** — the highest-impact result overall (ties: lowest shard,
      then lowest test index);
    - **coverage** — distinct signatures/features across shards (counts
      are not summed: shards replicate each other's deltas by design);
    - **quarantine** — every shard's quarantined keys, shard-tagged.
    """
    if not checkpoints:
        raise MergeError("nothing to merge")
    plans = {index: _shard_plan_of(index, data) for index, data in checkpoints}
    plan = next(iter(plans.values()))
    for index, other in plans.items():
        if other != plan:
            raise MergeError(
                f"shard {index} belongs to a different campaign "
                f"(plan {other.to_dict()} != {plan.to_dict()})"
            )
    merged_results: List[Dict[str, Any]] = []
    quarantine: List[Dict[str, Any]] = []
    signatures: Dict[str, bool] = {}
    features: Dict[str, bool] = {}
    per_shard: List[Dict[str, Any]] = []
    mu = 0.0
    for index, data in sorted(checkpoints):
        results = data.get("results", [])
        failures = [entry for entry in results if entry.get("failure")]
        best_local = max(
            (float(entry["impact"]) for entry in results), default=0.0
        )
        per_shard.append(
            {
                "shard": index,
                "seed": plan.shard_seed(index),
                "tests": len(results),
                "budget": plan.shard_budget(index),
                "best_impact": best_local,
                "failures": len(failures),
                "rounds_done": int(
                    data.get("context", {}).get("shard", {}).get("rounds_done", 0)
                ),
            }
        )
        mu = max(mu, float(data.get("max_impact", 0.0)))
        for entry in results:
            tagged = dict(entry)
            tagged["shard"] = index
            merged_results.append(tagged)
        for item in data.get("quarantine", []):
            quarantine.append({"shard": index, **item})
        coverage = data.get("coverage", {}).get("seen", {}) or {}
        if isinstance(coverage, dict):
            for signature, _count in coverage.get("signatures", []):
                signatures[str(signature)] = True
            for feature, _count in coverage.get("features", []):
                features[str(feature)] = True
    merged_results.sort(key=lambda entry: (entry["shard"], entry["test_index"]))
    quarantine.sort(key=lambda item: (item["shard"], item["key"]))
    best = None
    for entry in merged_results:
        if best is None or float(entry["impact"]) > float(best["impact"]):
            best = entry
    return {
        "kind": MERGE_KIND,
        "format_version": MERGE_FORMAT_VERSION,
        "plan": plan.to_dict(),
        "shards": [state for state in per_shard],
        "tests": len(merged_results),
        "max_impact": mu,
        "best": (
            {
                "shard": best["shard"],
                "test_index": best["test_index"],
                "impact": best["impact"],
                "coords": best["coords"],
            }
            if best is not None
            else None
        ),
        "coverage": {
            "distinct_signatures": len(signatures),
            "distinct_features": len(features),
        },
        "quarantine": quarantine,
        "results": merged_results,
    }


def report_to_bytes(report: Dict[str, Any]) -> bytes:
    """Canonical serialization: the bytes CI compares across reruns."""
    return (
        json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _shard_records(
    stream: Iterable[Union[str, Dict[str, Any]]],
) -> Iterable[Dict[str, Any]]:
    """One shard's stream as decoded records.

    Accepts either raw JSONL lines (parsed through the shared
    :func:`repro.telemetry.read_events` machinery, ``validate=False`` so
    unknown-but-parseable records survive re-serialization verbatim) or
    already-decoded record dicts.
    """
    from ..telemetry.reader import parse_events

    items = list(stream)
    if items and isinstance(items[0], str):
        return parse_events(items, validate=False)  # type: ignore[arg-type]
    return items  # type: ignore[return-value]


def merge_streams(
    streams: Sequence[Tuple[int, Iterable[Union[str, Dict[str, Any]]]]],
) -> List[str]:
    """Stitch per-shard telemetry JSONL into one canonical stream.

    Each record gains the merge-envelope keys (``shard``, ``shard_seq``),
    the interleaving is sorted by ``(shard_seq, shard)`` — the only
    ordering that is a pure function of the streams' contents — and the
    global ``seq`` is re-assigned densely from 0.
    """
    records: List[Tuple[int, int, Dict[str, Any]]] = []
    for shard, stream in streams:
        for record in _shard_records(stream):
            records.append((int(record["seq"]), int(shard), record))
    records.sort(key=lambda item: (item[0], item[1]))
    out: List[str] = []
    for seq, (shard_seq, shard, record) in enumerate(records):
        record = dict(record)
        record["shard"] = shard
        record["shard_seq"] = shard_seq
        record["seq"] = seq
        if record.get("type") == "CheckpointWritten" and "path" in record:
            # Canonicalization: strip the directory so the stitched bytes
            # do not depend on where the shard campaign happened to live.
            record["path"] = Path(str(record["path"])).name
        out.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return out


def merge_directory(
    directory: Union[str, Path],
    shards: Optional[int] = None,
) -> Tuple[Dict[str, Any], Optional[List[str]]]:
    """Merge a shard directory: ``(report, stitched stream lines or None)``.

    Telemetry is stitched only when *every* merged shard has a stream
    file (a partial stitch would silently misrepresent the campaign).
    """
    checkpoints = _load_shard_checkpoints(directory, shards)
    report = merge_checkpoints(checkpoints)
    stream_paths = [
        (index, shard_telemetry_path(directory, index)) for index, _ in sorted(checkpoints)
    ]
    if all(path.exists() for _, path in stream_paths):
        from ..telemetry.reader import read_events

        streams = [
            (index, read_events(str(path), validate=False))
            for index, path in stream_paths
        ]
        return report, merge_streams(streams)
    return report, None


__all__ = [
    "MERGE_FORMAT_VERSION",
    "MERGE_KIND",
    "MergeError",
    "merge_checkpoints",
    "merge_directory",
    "merge_streams",
    "report_to_bytes",
]
