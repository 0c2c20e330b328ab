"""Lightweight event tracing and coverage-mode capture.

Tracing is off by default (a single branch per trace point). When enabled it
records ``TraceRecord`` tuples that tests and debugging sessions can inspect.

This module also hosts the *coverage capture* layer used by
:mod:`repro.core.coverage`: a process-wide toggle (:func:`set_kind_capture`)
and a bounded, deterministic accumulator of delivered-message kinds and
their 2-gram transitions (:class:`KindTrail`). It lives here rather than in
``repro.core`` because the capture points sit inside ``repro.sim`` (the
network delivery funnel) and ``sim`` must not import ``core``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence inside a simulation."""

    time: int
    source: str
    kind: str
    detail: Any = None


class Tracer:
    """Collects :class:`TraceRecord` objects when enabled.

    ``predicate`` (if set) filters records by kind before storage, and
    ``max_records`` (if set) keeps only the newest records — either keeps
    long simulations from accumulating unbounded trace memory.

    ``records`` is always a plain ``list`` (sliceable, picklable), whatever
    the configuration; bounded mode evicts from the front in amortized
    constant time. ``recorded`` counts every *accepted* record — including
    records a bounded tracer has since evicted, and records supplied at
    construction time (which go through the same predicate/bound handling
    as live ones).
    """

    def __init__(
        self,
        enabled: bool = False,
        predicate: Optional[Callable[[str], bool]] = None,
        records: Optional[List[TraceRecord]] = None,
        max_records: Optional[int] = None,
    ) -> None:
        if max_records is not None and max_records < 1:
            raise ValueError("max_records must be >= 1 (or None for unbounded)")
        self.enabled = enabled
        self.predicate = predicate
        self.max_records = max_records
        self._records: List[TraceRecord] = []
        #: Total records accepted, including any a bounded tracer evicted.
        self.recorded = 0
        for record in records or ():
            self._accept(record)

    def _accept(self, record: TraceRecord) -> None:
        if self.predicate is not None and not self.predicate(record.kind):
            return
        records = self._records
        records.append(record)
        self.recorded += 1
        cap = self.max_records
        if cap is not None and len(records) >= cap * 2:
            # Amortized O(1) front eviction: let the backlog grow to twice
            # the cap, then drop the stale half in one slice delete.
            del records[: len(records) - cap]

    def _compact(self) -> None:
        cap = self.max_records
        if cap is not None and len(self._records) > cap:
            del self._records[: len(self._records) - cap]

    @property
    def records(self) -> List[TraceRecord]:
        """The stored records, oldest first (at most ``max_records``)."""
        self._compact()
        return self._records

    def record(self, time: int, source: str, kind: str, detail: Any = None) -> None:
        """Record one occurrence (no-op unless tracing is enabled)."""
        if not self.enabled:
            return
        self._accept(TraceRecord(time, source, kind, detail))

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All stored records whose kind equals ``kind``."""
        return [record for record in self.records if record.kind == kind]

    def clear(self) -> None:
        self._records.clear()
        self.recorded = 0

    def __getstate__(self) -> dict:
        self._compact()
        return self.__dict__.copy()


# ---------------------------------------------------------------------------
# Coverage-mode capture
# ---------------------------------------------------------------------------

#: Process-wide capture toggle; ``None`` (never set) means off.
_KIND_CAPTURE: Optional[bool] = None

#: Bound on distinct keys a :class:`KindTrail` tracks. Message-kind
#: vocabularies are tiny (a dozen protocol message classes → at most a few
#: hundred 2-grams), so the cap exists purely as a memory safety net; hits
#: are counted in ``truncated`` so tests can assert it never fires.
TRAIL_MAX_KEYS = 512


def set_kind_capture(enabled: Optional[bool]) -> Optional[bool]:
    """Set (or clear, with ``None``) the process-wide capture toggle.

    Returns the previous value so callers can restore it. Components
    sample the toggle at *construction*, so flipping it mid-simulation
    never changes an existing deployment.
    """
    global _KIND_CAPTURE
    previous = _KIND_CAPTURE
    _KIND_CAPTURE = enabled
    return previous


def kind_capture_enabled() -> bool:
    """True when coverage-mode message-kind capture is on.

    That is, when :func:`set_kind_capture` turned it on in this process: a
    hybrid campaign's controller does for its run, and worker processes
    receive the setting in the session hello (see :mod:`repro.core.worker`).
    """
    return bool(_KIND_CAPTURE)


class KindTrail:
    """Bounded, deterministic accumulator of delivered-message kinds.

    Records per-kind delivery counts and 2-gram transition counts
    (``"A>B"`` meaning a ``B`` was delivered immediately after an ``A``,
    in global delivery order). Both maps are bounded by ``max_keys``;
    overflowing keys are dropped (never partially counted) and tallied in
    ``truncated`` so the loss is visible.

    Delivery order is deterministic for a fixed seed, so the trail — and
    every coverage signature derived from it — is a pure function of the
    scenario. The trail is part of the simulation state on purpose: a
    snapshot-forked run restores the benign prefix's trail and continues
    it, making fork and from-scratch executions indistinguishable.
    """

    def __init__(self, max_keys: int = TRAIL_MAX_KEYS) -> None:
        if max_keys < 1:
            raise ValueError("max_keys must be >= 1")
        self.max_keys = max_keys
        self.counts: Dict[str, int] = {}
        self.grams: Dict[str, int] = {}
        self.truncated = 0
        self._prev: Optional[str] = None

    def add(self, kind: str) -> None:
        """Record one delivery of ``kind`` (and the transition into it)."""
        counts = self.counts
        if kind in counts:
            counts[kind] += 1
        elif len(counts) < self.max_keys:
            counts[kind] = 1
        else:
            self.truncated += 1
        prev = self._prev
        if prev is not None:
            gram = prev + ">" + kind
            grams = self.grams
            if gram in grams:
                grams[gram] += 1
            elif len(grams) < self.max_keys:
                grams[gram] = 1
            else:
                self.truncated += 1
        self._prev = kind

    def merged(self) -> Dict[str, int]:
        """Counts and grams as one namespaced, deterministically-ordered dict.

        Kind counts land under ``net.msg.<Kind>`` and transition counts
        under ``net.seq.<A>><B>``, both sorted by key — ready to fold into
        a result's ``counters`` mapping.
        """
        out: Dict[str, int] = {}
        for kind in sorted(self.counts):
            out[f"net.msg.{kind}"] = self.counts[kind]
        for gram in sorted(self.grams):
            out[f"net.seq.{gram}"] = self.grams[gram]
        if self.truncated:
            out["net.trail_truncated"] = self.truncated
        return out


__all__ = [
    "KindTrail",
    "TRAIL_MAX_KEYS",
    "TraceRecord",
    "Tracer",
    "kind_capture_enabled",
    "set_kind_capture",
]
