"""Telemetry sinks: where the event stream lands.

- :class:`RingBufferSink` — bounded in-memory buffer for tests, benches,
  and post-run inspection; keeps the most recent ``capacity`` events.
- :class:`JsonlSink` — schema-versioned JSONL file, one canonical line
  per event (see :mod:`repro.telemetry.schema`); supports append mode so
  a resumed campaign continues the same stream.
- :class:`TtyProgressSink` — a live single-line progress display driven
  by ``ScenarioExecuted``/``ImpactAbsorbed`` events; purely cosmetic and
  deliberately free of wall-clock reads so attaching it never perturbs
  campaign state.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Deque, IO, List, Optional, Tuple, Union

from .events import ImpactAbsorbed, ScenarioExecuted, TelemetryEvent
from .schema import event_to_json


class RingBufferSink:
    """Keeps the last ``capacity`` sequenced events in memory."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self._events: Deque[Tuple[int, TelemetryEvent]] = deque(maxlen=capacity)
        #: Total events ever emitted (including ones the ring evicted).
        self.emitted = 0

    def emit(self, seq: int, event: TelemetryEvent) -> None:
        self._events.append((seq, event))
        self.emitted += 1

    def events(self) -> List[Tuple[int, TelemetryEvent]]:
        """The buffered ``(seq, event)`` pairs, oldest first."""
        return list(self._events)

    def to_lines(self) -> List[str]:
        """The buffered events rendered as canonical JSONL lines."""
        return [event_to_json(seq, event) for seq, event in self._events]

    def clear(self) -> None:
        self._events.clear()

    def close(self) -> None:
        """Nothing to release; the buffer stays readable after close."""

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink:
    """Writes one canonical JSON line per event to a file.

    Every line is flushed as it is written, so the file is complete up to
    the last published event even if the process is killed — in
    particular, a ``CheckpointWritten`` event (published before the
    checkpoint itself is saved) is always on disk by the time the
    checkpoint's telemetry cursor refers to it.

    ``append=True`` continues an existing stream (``repro resume``).
    ``resume_seq`` is the checkpoint's telemetry cursor: any tail lines
    with ``seq >= resume_seq`` are orphans from a killed run — the
    resumed controller republishes those sequence numbers — so they are
    truncated before appending (along with any partial final line).
    """

    def __init__(
        self,
        path: str,
        append: bool = False,
        resume_seq: Optional[int] = None,
    ) -> None:
        self.path = path
        if append and resume_seq is not None:
            self._truncate_orphan_tail(path, resume_seq)
        self._handle: Optional[IO[str]] = open(
            path, "a" if append else "w", encoding="utf-8"
        )
        self.written = 0

    @staticmethod
    def _truncate_orphan_tail(path: str, resume_seq: int) -> None:
        """Drop the orphan tail atomically: the kept prefix goes to a sibling
        temp file that replaces the stream, so a kill at any point leaves
        either the old complete stream or the new one, never a shorter one."""
        import os

        from .reader import complete_prefix_lines

        if not os.path.exists(path):
            return
        kept = "".join(f"{line}\n" for line in complete_prefix_lines(path, resume_seq))
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(kept)
        os.replace(tmp, path)

    def emit(self, seq: int, event: TelemetryEvent) -> None:
        if self._handle is None:
            raise ValueError(f"JsonlSink({self.path!r}) is closed")
        self._handle.write(event_to_json(seq, event))
        self._handle.write("\n")
        self._handle.flush()
        self.written += 1

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TtyProgressSink:
    """A live one-line campaign progress display.

    Renders ``tests done / best impact / last impact`` on a carriage-return
    overwritten line for TTYs and falls back to occasional full lines on
    dumb streams. Reads nothing but the events themselves (no clocks), so
    the campaign trajectory and the rest of the event stream are identical
    with or without it attached.
    """

    def __init__(self, stream: Optional[IO[str]] = None, every: int = 1) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.stream = stream if stream is not None else sys.stderr
        self.every = every
        self.tests = 0
        self.best = 0.0
        self.last = 0.0
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._dirty = False

    def emit(self, seq: int, event: TelemetryEvent) -> None:
        if isinstance(event, ScenarioExecuted):
            self.tests += 1
            self.last = event.impact
        elif isinstance(event, ImpactAbsorbed):
            self.best = max(self.best, event.mu)
        else:
            return
        if self.tests % self.every:
            return
        line = f"test {self.tests:>5d}  best impact {self.best:.3f}  last {self.last:.3f}"
        if self._is_tty:
            self.stream.write(f"\r{line}")
        else:
            self.stream.write(f"{line}\n")
        self._dirty = self._is_tty

    def close(self) -> None:
        if self._dirty:
            self.stream.write("\n")
            self._dirty = False
        try:
            self.stream.flush()
        except (ValueError, OSError):  # pragma: no cover - closed stream
            pass


__all__ = ["JsonlSink", "RingBufferSink", "TtyProgressSink"]
