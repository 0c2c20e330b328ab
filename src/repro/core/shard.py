"""Sharded hyperspace campaigns: N controllers, one deterministic search.

A sharded campaign splits one hyperspace exploration across ``shards``
controller instances. Each shard

- derives its own RNG seed from the campaign seed
  (``derive_seed(campaign_seed, "shard:<i>")``), so shard trajectories are
  independent yet reproducible;
- owns a disjoint region of the hyperspace: scenario key ``k`` belongs to
  shard ``sha256(k) % shards`` (:meth:`ShardPlan.owner_of`), enforced by
  the controller's ``region_filter`` so no two shards ever execute the
  same scenario;
- runs in *rounds* of ``exchange_every`` local tests. After each round it
  writes an atomic summary file — its Pi snapshot, the round's coverage
  delta, the round's plugin fitness-gain delta, and mu — and before the
  next round absorbs every partner's summary for the previous round, in
  ascending shard order. Cross-shard knowledge therefore flows on a fixed
  round barrier, which makes the whole campaign a pure function of
  ``(campaign_seed, shards, budget, exchange_every, batch_size)`` no
  matter how the shards are scheduled;
- checkpoints independently through the PR-2 checkpoint machinery (the
  ``foreign`` block records absorbed partner results, and the shard's
  progress lives in ``checkpoint_context``), so a killed shard resumes
  bit-identically — or can be dropped and its region merged without it.

Two drivers produce identical bytes:

- :func:`run_sharded_campaign` — every shard in one process, rounds
  interleaved (shard 0 round 0, shard 1 round 0, ..., shard 0 round 1,
  ...). Reference semantics; needs no concurrency at all.
- one process per shard (``repro campaign --shards N --shard-index i``),
  shards synchronizing through the summary files on a shared directory.
  :func:`wait_for_file` polls (bounded attempts, no clock reads) until a
  partner's summary lands.

``repro merge`` (see :mod:`repro.core.merge`) folds the per-shard
checkpoints and telemetry streams into one canonical report.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..sim.rng import derive_seed
from .hyperspace import CoordsKey
from .spec import CampaignSpec

SUMMARY_KIND = "avd-shard-summary"

#: Polling cadence while waiting for a partner shard's summary file.
POLL_INTERVAL = 0.05
#: Default cap on the wait for one partner summary, in polls
#: (1200 s at :data:`POLL_INTERVAL` — a shard that silent for that long
#: is treated as lost).
DEFAULT_WAIT_POLLS = 24000


class ShardDesync(RuntimeError):
    """A partner shard's summary never arrived (crashed or wedged peer)."""


def shard_checkpoint_path(directory: Union[str, Path], index: int) -> Path:
    return Path(directory) / f"shard-{index}.checkpoint.json"


def shard_telemetry_path(directory: Union[str, Path], index: int) -> Path:
    return Path(directory) / f"shard-{index}.telemetry.jsonl"


def shard_summary_path(directory: Union[str, Path], index: int, round_no: int) -> Path:
    return Path(directory) / f"shard-{index}.round-{round_no}.summary.json"


@dataclass(frozen=True)
class ShardPlan:
    """The deterministic geometry of one sharded campaign."""

    campaign_seed: int
    shards: int
    budget: int
    exchange_every: int = 25

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.exchange_every < 1:
            raise ValueError("exchange_every must be >= 1")

    def shard_seed(self, index: int) -> int:
        """The RNG seed shard ``index`` explores with (stable derivation)."""
        self._check_index(index)
        return derive_seed(self.campaign_seed, f"shard:{index}")

    def shard_budget(self, index: int) -> int:
        """Shard ``index``'s slice of the campaign budget (difference <= 1)."""
        self._check_index(index)
        base, extra = divmod(self.budget, self.shards)
        return base + (1 if index < extra else 0)

    @property
    def rounds(self) -> int:
        """Exchange rounds until every shard's budget is spent."""
        widest = max(self.shard_budget(i) for i in range(self.shards))
        return max(1, -(-widest // self.exchange_every))

    def round_quota(self, index: int, round_no: int) -> int:
        """Cumulative local tests shard ``index`` owes after ``round_no``."""
        return min(self.shard_budget(index), (round_no + 1) * self.exchange_every)

    def owner_of(self, key: CoordsKey) -> int:
        """Which shard owns a scenario key.

        SHA-256 over a canonical length-prefixed encoding (the builtin
        ``hash()`` is process-salted; ``repro lint`` DET004), mod the
        shard count — the same disjoint partition on every host.
        """
        digest = hashlib.sha256()
        for name, position in key:
            token = f"{name}={position}".encode("utf-8")
            digest.update(str(len(token)).encode("ascii"))
            digest.update(b":")
            digest.update(token)
        return int.from_bytes(digest.digest()[:8], "big") % self.shards

    def region_filter(self, index: int):
        """The ownership predicate shard ``index`` installs on its controller."""
        self._check_index(index)
        if self.shards == 1:
            return None
        return lambda key: self.owner_of(key) == index

    def to_dict(self) -> Dict[str, int]:
        return {
            "campaign_seed": self.campaign_seed,
            "shards": self.shards,
            "budget": self.budget,
            "exchange_every": self.exchange_every,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardPlan":
        return cls(
            campaign_seed=int(data["campaign_seed"]),
            shards=int(data["shards"]),
            budget=int(data["budget"]),
            exchange_every=int(data["exchange_every"]),
        )

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.shards:
            raise ValueError(f"shard index {index} out of range [0, {self.shards})")


def wait_for_file(
    path: Union[str, Path],
    max_polls: int = DEFAULT_WAIT_POLLS,
    sleep=time.sleep,
) -> None:
    """Block until ``path`` exists (bounded polling; no clock reads)."""
    path = Path(path)
    for _ in range(max_polls):
        if path.exists():
            return
        sleep(POLL_INTERVAL)
    raise ShardDesync(f"partner summary never arrived: {path}")


class ShardRunner:
    """Drives one shard of a sharded campaign through its rounds.

    Wraps a :class:`~repro.core.controller.TestController` built with the
    shard's derived seed and region filter, runs it ``exchange_every``
    tests per round against the cumulative quota, and handles the
    summary-file exchange + independent checkpointing around each round.
    """

    def __init__(
        self,
        controller,
        plan: ShardPlan,
        index: int,
        directory: Union[str, Path],
        spec: Optional[CampaignSpec] = None,
    ) -> None:
        plan._check_index(index)
        self.controller = controller
        self.plan = plan
        self.index = index
        self.directory = Path(directory)
        #: Per-round template for worker/host/batch/telemetry choices;
        #: budget/checkpoint fields are overridden per round.
        self.spec = spec if spec is not None else CampaignSpec(budget=plan.budget)
        controller.region_filter = plan.region_filter(index)
        shard_state = controller.checkpoint_context.setdefault("shard", {})
        shard_state.setdefault("plan", plan.to_dict())
        shard_state.setdefault("index", index)
        shard_state.setdefault("rounds_done", 0)
        shard_state.setdefault("absorbed", [])
        # Snapshot for the round's coverage delta.
        self._coverage_mark = self._coverage_counts()
        self._plugin_mark = self._plugin_counts()

    # -- round bookkeeping --------------------------------------------
    @property
    def _shard_state(self) -> Dict[str, Any]:
        return self.controller.checkpoint_context["shard"]

    @property
    def rounds_done(self) -> int:
        return int(self._shard_state["rounds_done"])

    def _coverage_counts(self) -> Dict[str, Dict[str, int]]:
        coverage = self.controller.coverage
        return {"seen": dict(coverage.seen), "features": dict(coverage.features)}

    def _plugin_counts(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "selections": stats.selections,
                "total_gain": stats.total_gain,
                "improvements": stats.improvements,
            }
            for name, stats in self.controller.plugin_sampler.stats.items()
        }

    def _coverage_delta(self) -> Dict[str, List[List[Any]]]:
        """What this shard's own round added to the seen-behaviour map.

        Counts are diffed against the round-start snapshot; entries keep
        the map's first-seen order so partners merge deterministically.
        """
        out: Dict[str, List[List[Any]]] = {"signatures": [], "features": []}
        coverage = self.controller.coverage
        for bucket, current in (("signatures", coverage.seen), ("features", coverage.features)):
            mark = self._coverage_mark["seen" if bucket == "signatures" else "features"]
            for name, count in current.items():
                delta = count - mark.get(name, 0)
                if delta > 0:
                    out[bucket].append([name, delta])
        return out

    def _plugin_delta(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for name, current in self._plugin_counts().items():
            mark = self._plugin_mark.get(name, {})
            delta = {
                field: current[field] - mark.get(field, 0)
                for field in ("selections", "total_gain", "improvements")
            }
            if any(delta.values()):
                out[name] = delta
        return out

    # -- the exchange --------------------------------------------------
    def write_summary(self, round_no: int) -> Path:
        """Atomically publish this shard's summary for ``round_no``."""
        from .persistence import _atomic_write_json, _result_to_dict

        document = {
            "kind": SUMMARY_KIND,
            "plan": self.plan.to_dict(),
            "shard": self.index,
            "round": round_no,
            "mu": self.controller.max_impact,
            "executed": len(self.controller.results),
            # Pi snapshot: cumulative, so absorb is idempotent by key.
            "top": [
                _result_to_dict(entry)
                for entry in self.controller.top_set.entries
                if not entry.failed
            ],
            "coverage_delta": self._coverage_delta(),
            "plugin_delta": self._plugin_delta(),
        }
        path = shard_summary_path(self.directory, self.index, round_no)
        _atomic_write_json(path, document)
        self._coverage_mark = self._coverage_counts()
        self._plugin_mark = self._plugin_counts()
        return path

    def absorb_summary(self, path: Union[str, Path]) -> int:
        """Fold one partner summary in; returns newly absorbed Pi entries.

        Idempotent per summary file: an absorb recorded in the checkpoint
        context is skipped on resume, so a crash between absorbing and
        finishing a round never double-counts coverage or fitness deltas.
        """
        from .persistence import _result_from_dict

        data = json.loads(Path(path).read_text())
        if data.get("kind") != SUMMARY_KIND:
            raise ValueError(f"not a shard summary: {path}")
        if data.get("plan") != self.plan.to_dict():
            raise ValueError(
                f"summary {path} belongs to a different campaign plan "
                f"(got {data.get('plan')}, expected {self.plan.to_dict()})"
            )
        mark = f"{int(data['shard'])}:{int(data['round'])}"
        if mark in self._shard_state["absorbed"]:
            return 0
        absorbed = 0
        for entry in data.get("top", []):
            if self.controller.absorb_foreign(_result_from_dict(entry)):
                absorbed += 1
        delta = data.get("coverage_delta", {})
        self.controller.coverage.merge_counts(
            delta.get("signatures", ()), delta.get("features", ())
        )
        for name, fields in data.get("plugin_delta", {}).items():
            stats = self.controller.plugin_sampler.stats.get(name)
            if stats is None:
                continue
            stats.selections += int(fields.get("selections", 0))
            stats.total_gain += float(fields.get("total_gain", 0.0))
            stats.improvements += int(fields.get("improvements", 0))
        if float(data.get("mu", 0.0)) > self.controller.max_impact:
            self.controller.max_impact = float(data["mu"])
        self._shard_state["absorbed"].append(mark)
        # Absorbed foreign counts must not leak into the next round's
        # delta (they are the partner's observations, already published).
        self._coverage_mark = self._coverage_counts()
        self._plugin_mark = self._plugin_counts()
        return absorbed

    def absorb_partners(self, round_no: int, max_polls: int = DEFAULT_WAIT_POLLS) -> None:
        """Absorb every partner's summary for ``round_no``, ascending order."""
        for partner in range(self.plan.shards):
            if partner == self.index:
                continue
            path = shard_summary_path(self.directory, partner, round_no)
            wait_for_file(path, max_polls=max_polls)
            self.absorb_summary(path)

    # -- rounds --------------------------------------------------------
    def run_round(self, round_no: int, max_polls: int = DEFAULT_WAIT_POLLS) -> None:
        """One exchange round: absorb partners' round ``round_no - 1``,
        run to the cumulative quota, publish this round's summary."""
        if round_no > 0:
            self.absorb_partners(round_no - 1, max_polls=max_polls)
        quota = self.plan.round_quota(self.index, round_no)
        if quota > len(self.controller.results):
            self.controller.run(
                self.spec.with_overrides(
                    budget=quota,
                    checkpoint_path=str(shard_checkpoint_path(self.directory, self.index)),
                )
            )
        self.write_summary(round_no)
        self._shard_state["rounds_done"] = round_no + 1
        # The summary must be on disk before the checkpoint that claims
        # the round is done — a resume after a crash in between rewrites
        # the (identical) summary, which partners read unchanged.
        self.controller._write_checkpoint(
            str(shard_checkpoint_path(self.directory, self.index))
        )

    def run(self, max_polls: int = DEFAULT_WAIT_POLLS) -> List[Any]:
        """All remaining rounds (resume-aware); returns local results."""
        self.directory.mkdir(parents=True, exist_ok=True)
        for round_no in range(self.rounds_done, self.plan.rounds):
            self.run_round(round_no, max_polls=max_polls)
        return self.controller.results


def build_shard_controller(
    target,
    plugins: Sequence,
    plan: ShardPlan,
    index: int,
    config=None,
    telemetry=None,
):
    """A TestController set up as shard ``index`` of ``plan``.

    The shard explores with its derived seed, and its dedup retry budget
    scales with the shard count: region filtering rejects ~(shards-1)/shards
    of candidate keys, so without the scaling a shard would declare its
    region exhausted far too early.
    """
    from dataclasses import replace

    from .controller import ControllerConfig, TestController

    if config is None:
        config = ControllerConfig()
    if plan.shards > 1:
        config = replace(config, dedup_retries=config.dedup_retries * plan.shards)
    return TestController(
        target,
        plugins,
        seed=plan.shard_seed(index),
        config=config,
        telemetry=telemetry,
    )


def resume_shard_runner(
    directory: Union[str, Path],
    index: int,
    target,
    plugins: Sequence,
    spec: Optional[CampaignSpec] = None,
    telemetry=None,
):
    """Rebuild a ShardRunner from its on-disk checkpoint."""
    from .persistence import load_checkpoint, restore_controller

    data = load_checkpoint(shard_checkpoint_path(directory, index))
    shard_state = data.get("context", {}).get("shard")
    if not shard_state:
        raise ValueError(f"checkpoint for shard {index} carries no shard context")
    plan = ShardPlan.from_dict(shard_state["plan"])
    controller = restore_controller(data, target, plugins, telemetry=telemetry)
    return ShardRunner(controller, plan, index, directory, spec=spec)


def run_sharded_campaign(
    plan: ShardPlan,
    directory: Union[str, Path],
    controller_factory,
    spec: Optional[CampaignSpec] = None,
    telemetry_paths: Optional[Sequence[Union[str, Path]]] = None,
) -> List[ShardRunner]:
    """Run every shard in this process, rounds interleaved.

    ``controller_factory(plan, index, telemetry_bus)`` builds each shard's
    controller (see :func:`build_shard_controller`). The interleaved
    schedule — all shards finish round r before any starts round r+1 —
    produces byte-identical checkpoints, summaries, and telemetry to N
    cooperating single-shard processes, because the exchange is defined
    by the summary files, not by scheduling.
    """
    from ..telemetry import JsonlSink, TelemetryBus

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    buses: List[Optional[Any]] = []
    runners: List[ShardRunner] = []
    try:
        for index in range(plan.shards):
            bus = None
            if telemetry_paths is not None:
                bus = TelemetryBus()
                bus.attach(JsonlSink(str(telemetry_paths[index])))
            buses.append(bus)
            controller = controller_factory(plan, index, bus)
            runners.append(ShardRunner(controller, plan, index, directory, spec=spec))
        for round_no in range(plan.rounds):
            for runner in runners:
                # Summaries for round_no - 1 are all on disk (previous
                # outer iteration), so no runner ever waits here.
                runner.run_round(round_no, max_polls=1)
    finally:
        for bus in buses:
            if bus is not None:
                bus.close()
    return runners


__all__ = [
    "DEFAULT_WAIT_POLLS",
    "POLL_INTERVAL",
    "ShardDesync",
    "ShardPlan",
    "ShardRunner",
    "SUMMARY_KIND",
    "build_shard_controller",
    "resume_shard_runner",
    "run_sharded_campaign",
    "shard_checkpoint_path",
    "shard_summary_path",
    "shard_telemetry_path",
    "wait_for_file",
]
