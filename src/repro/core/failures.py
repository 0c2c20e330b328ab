"""Scenario failure model: classification, retry policy, and quarantine.

A campaign runs hundreds to thousands of simulated deployments; the Test
Controller must survive every one of them. Injected faults routinely
surface as harness-level exceptions (Alipour & Groce's lightweight Python
fault injection makes the same observation), and a long-lived fuzzing loop
has to treat target crashes as *data* — an impact measurement of a broken
run — not as a reason to die and discard every result already paid for.

The model distinguishes four failure kinds:

``target-fault``
    ``target.execute`` raised: the system under test (or the fault being
    injected into it) blew up. Deterministic for a given scenario seed, so
    it is never retried — the scenario is recorded as a zero-impact
    :class:`ScenarioFailure` and quarantined.
``harness-bug``
    The target adapter broke its own contract: ``impact_of`` raised, or
    returned NaN / a value outside [0, 1]. Also deterministic; quarantined
    so one buggy adapter region cannot poison the whole campaign.
``timeout``
    Either the scenario spent its simulation's event budget
    (:class:`~repro.sim.simulator.EventBudgetExceeded`) — a pure function of
    the scenario, so never retried — or a worker sat past the wall-clock
    backstop on its channel, which the fabric resets and re-drives like a
    crash before quarantine.
``worker-crash``
    A worker died mid-scenario (``os._exit``, segfault, OOM kill, torn
    connection). Transient from the campaign's point of view: the workers
    are reset and the scenario re-driven before quarantine.

Failures are first-class results: a :class:`ScenarioFailure` *is* a
:class:`~repro.core.scenario.ScenarioResult` with ``impact == 0.0``, so
campaign aggregation, persistence, and reporting handle it unchanged,
while ``result.failed`` lets callers filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List

from .hyperspace import CoordsKey
from .scenario import ScenarioResult

#: Failure kinds (the classification in the module docstring).
TARGET_FAULT = "target-fault"
HARNESS_BUG = "harness-bug"
TIMEOUT = "timeout"
WORKER_CRASH = "worker-crash"


@dataclass(frozen=True)
class ScenarioFailure(ScenarioResult):
    """A scenario whose execution failed, recorded as a zero-impact result.

    ``kind`` is one of the module-level failure kinds; ``error`` is a
    human-readable description of the last failure; ``attempts`` counts how
    many executions were tried before giving up: 1 for a scenario that
    failed where it ran, up to ``RetryPolicy.max_attempts`` for one whose
    worker was lost and re-driven.
    """

    kind: str = TARGET_FAULT
    error: str = ""
    attempts: int = 1

    @property
    def failed(self) -> bool:
        return True


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and exponential backoff for re-driving lost workers."""

    #: Total execution attempts (1 = no retries).
    max_attempts: int = 3
    #: Backoff before the second attempt, in seconds.
    backoff_base: float = 0.05
    #: Multiplier applied per further attempt.
    backoff_factor: float = 2.0
    #: Upper bound on any single backoff sleep, in seconds.
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff after the ``attempt``-th failed execution (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.backoff_max, self.backoff_base * self.backoff_factor ** (attempt - 1))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RetryPolicy":
        return cls(**{key: data[key] for key in cls().to_dict() if key in data})


@dataclass
class QuarantineEntry:
    key: CoordsKey
    kind: str
    error: str = ""
    attempts: int = 1


class Quarantine:
    """Scenario keys banned from further execution, with their reasons.

    The controller records every terminal :class:`ScenarioFailure` here;
    since a quarantined key is also in Omega, the generator never proposes
    it again. The set is serialized into campaign checkpoints so a resumed
    campaign does not re-pay for known crashers.
    """

    def __init__(self) -> None:
        self._entries: Dict[CoordsKey, QuarantineEntry] = {}

    def record(self, key: CoordsKey, kind: str, error: str = "", attempts: int = 1) -> None:
        existing = self._entries.get(key)
        if existing is not None:
            existing.attempts += attempts
            existing.kind = kind
            existing.error = error
        else:
            self._entries[key] = QuarantineEntry(key, kind, error, attempts)

    def __contains__(self, key: CoordsKey) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CoordsKey]:
        return iter(self._entries)

    @property
    def entries(self) -> List[QuarantineEntry]:
        return list(self._entries.values())

    def to_list(self) -> List[Dict[str, Any]]:
        return [
            {
                "key": [list(pair) for pair in entry.key],
                "kind": entry.kind,
                "error": entry.error,
                "attempts": entry.attempts,
            }
            for entry in self._entries.values()
        ]

    @classmethod
    def from_list(cls, data: List[Dict[str, Any]]) -> "Quarantine":
        quarantine = cls()
        for item in data:
            key: CoordsKey = tuple((str(name), int(pos)) for name, pos in item["key"])
            quarantine.record(
                key,
                kind=item.get("kind", TARGET_FAULT),
                error=item.get("error", ""),
                attempts=int(item.get("attempts", 1)),
            )
        return quarantine


class FailureSignal(Exception):
    """Internal carrier of a classified scenario failure (kind + message)."""

    def __init__(self, kind: str, error: str) -> None:
        super().__init__(error)
        self.kind = kind
        self.error = error


def describe_exception(exc: BaseException) -> str:
    """``Type: message [module.function:line]``, the frame that raised.

    The innermost traceback frame is named by module, never by file path:
    results, checkpoints and ``FailureClassified.error`` must read the same
    on every host. An exception that was never raised has no frame.
    """
    text = str(exc)
    described = f"{type(exc).__name__}: {text}" if text else type(exc).__name__
    tb = exc.__traceback__
    if tb is None:
        return described
    while tb.tb_next is not None:
        tb = tb.tb_next
    module = tb.tb_frame.f_globals.get("__name__", "?")
    return f"{described} [{module}.{tb.tb_frame.f_code.co_name}:{tb.tb_lineno}]"


__all__ = [
    "HARNESS_BUG",
    "FailureSignal",
    "Quarantine",
    "QuarantineEntry",
    "RetryPolicy",
    "ScenarioFailure",
    "TARGET_FAULT",
    "TIMEOUT",
    "WORKER_CRASH",
    "describe_exception",
]
