"""CampaignSpec: one value describing how a campaign should run.

Everything ``TestController.run`` and ``run_campaign`` need to know
besides the strategy (``budget, workers, batch_size, checkpoint_path,
checkpoint_every, ...``) is one validated dataclass that every layer —
CLI, bench, exploration strategies, tests — passes along unchanged. How
the search works is the strategy's (``ControllerConfig`` for AVD); how its
scenarios execute is the spec's, read by the one executor built from it
(:func:`~repro.core.parallel.campaign_executor`).

The spec is declarative: ``workers=0``/``None`` means "one per CPU" and
``batch_size=None`` means "the strategy's batch, else the executor's
default" — resolution happens when the campaign runs, so a spec
hashes/compares the same way regardless of the machine it later runs on.
*Where* scenarios run is not a field of its own: it follows from ``hosts``
and ``workers`` (see :mod:`repro.core.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from ..telemetry import TelemetryBus

@dataclass(frozen=True)
class CampaignSpec:
    """Everything a campaign run needs besides the strategy itself."""

    #: Total tests to execute (a resumed controller runs the remainder).
    budget: int
    #: Concurrent scenario executions; 0/None = one per CPU. The
    #: exploration trajectory never depends on this.
    workers: Optional[int] = 1
    #: Scenarios generated speculatively per round; None = ``2 *
    #: max(workers, len(hosts))`` when there are hosts or ``workers > 1``,
    #: else 1. The trajectory is a pure function of ``(seed, batch_size)``.
    #: Genetic and annealing refuse any size but their own.
    batch_size: Optional[int] = None
    #: Resumable checkpoint file; None disables checkpointing.
    checkpoint_path: Optional[str] = None
    #: Checkpoint at least every this many executed scenarios.
    checkpoint_every: int = 25
    #: Telemetry bus receiving the campaign's event stream (optional).
    telemetry: Optional["TelemetryBus"] = None
    #: ``host:port`` endpoints of ``repro worker`` processes. When given,
    #: scenarios run there instead of on local workers. The exploration
    #: trajectory never depends on this (see :mod:`repro.core.backends`).
    hosts: Tuple[str, ...] = field(default_factory=tuple)
    #: Wall-clock backstop, in seconds, on one scenario in flight on a
    #: worker (None = none). In-process scenarios have none: a scenario's
    #: own deadline is its simulation's event budget.
    scenario_timeout: Optional[float] = None
    #: Executions, in all, of a scenario whose worker was lost (it died, or
    #: sat past the backstop) before it is quarantined.
    max_attempts: int = 3

    def __post_init__(self) -> None:
        # Normalize hosts to a tuple so specs stay hashable/frozen even
        # when built with a list.
        object.__setattr__(self, "hosts", tuple(self.hosts))
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0 (0 = auto), got {self.workers}")
        if self.scenario_timeout is not None and not self.scenario_timeout > 0:
            raise ValueError("scenario_timeout must be positive (or None)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


__all__ = ["CampaignSpec"]
