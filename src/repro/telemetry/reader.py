"""The one JSONL stream reader behind every telemetry consumer.

``repro explain``, ``repro serve``, the resume-time
orphan-tail truncation in :class:`~repro.telemetry.sinks.JsonlSink`, and
the test helpers all read the same schema-versioned wire format — so
they all read it through here instead of growing private copies of the
same strip/parse/validate loop.

Two entry points:

- :func:`parse_events` — fold an in-memory iterable of lines (what a
  :class:`~repro.telemetry.sinks.RingBufferSink` hands back).
- :func:`read_events` — read a JSONL file from disk; with
  ``follow=True`` it tails the file like ``tail -f``, yielding each
  event as the writing campaign flushes it.

Both return an :class:`EventStream` iterator of decoded wire records
(plain dicts) with the shared semantics the stream format demands:

- **torn-tail tolerance** — a crash mid-write leaves a half-written
  final line; the complete prefix is still a valid stream, so the
  reader yields it and flags ``torn_tail`` instead of refusing. A
  malformed line anywhere *before* the tail is real corruption and
  raises :class:`~repro.telemetry.schema.SchemaError` with its line
  number. In follow mode an unterminated tail is simply a write in
  progress: the reader waits for the rest of the line.
- **resumability by seq** — ``from_seq=N`` skips records below N, so a
  consumer that already folded a prefix (``repro serve`` reconnecting,
  an incremental ``CampaignView``) continues where it stopped.
- **validation** — every record passes
  :func:`~repro.telemetry.schema.validate_event`.

Reading is strictly read-only — the reader never writes, locks, or
truncates the stream file — which is what lets ``repro serve`` attach
to a live campaign without being able to perturb it.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from .schema import SchemaError, validate_event

#: Default delay between polls of a followed stream file (seconds).
FOLLOW_POLL_INTERVAL = 0.25


class EventStream:
    """Iterator over decoded wire records, with end-of-stream metadata.

    Iterate it like any generator; the attributes are live:

    - ``torn_tail`` — the stream ended in a half-written final line
      (the complete prefix was yielded). Meaningful once iteration
      finishes.
    - ``last_seq`` — highest ``seq`` yielded so far (-1 before the
      first record).
    - ``count`` — records yielded so far (after ``from_seq`` filtering).
    """

    def __init__(self) -> None:
        self._records: Iterator[Dict[str, Any]] = iter(())
        self.torn_tail = False
        self.last_seq = -1
        self.count = 0

    def __iter__(self) -> "EventStream":
        return self

    def __next__(self) -> Dict[str, Any]:
        record = next(self._records)
        seq = record.get("seq")
        if isinstance(seq, int) and not isinstance(seq, bool):
            self.last_seq = max(self.last_seq, seq)
        self.count += 1
        return record


def _decode(stream_line: str, line_number: int) -> Dict[str, Any]:
    """One wire line -> record dict; SchemaError carries the line number."""
    try:
        record = json.loads(stream_line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {line_number}: {exc}") from exc
    if not isinstance(record, dict):
        raise SchemaError(
            f"line {line_number}: event record must be an object, "
            f"got {type(record).__name__}"
        )
    try:
        validate_event(record)
    except SchemaError as exc:
        raise SchemaError(f"line {line_number}: {exc}") from exc
    return record


def _skip(record: Dict[str, Any], from_seq: int) -> bool:
    seq = record.get("seq")
    if isinstance(seq, int) and not isinstance(seq, bool):
        return seq < from_seq
    return False


def parse_events(lines: Iterable[str], *, from_seq: int = 0) -> EventStream:
    """Decode an in-memory iterable of JSONL lines into an event stream."""
    stream = EventStream()

    def generate() -> Iterator[Dict[str, Any]]:
        entries = [
            (line_number, stripped)
            for line_number, stripped in (
                (number, line.strip()) for number, line in enumerate(lines, start=1)
            )
            if stripped
        ]
        for position, (line_number, line) in enumerate(entries):
            try:
                record = _decode(line, line_number)
            except SchemaError as exc:
                not_json = isinstance(exc.__cause__, json.JSONDecodeError)
                if not_json and position == len(entries) - 1:
                    # A crash mid-write leaves a half-written final line;
                    # the complete prefix is still a valid stream. Yield
                    # what we have and flag the truncation. (A final line
                    # that parses but fails validation is corruption.)
                    stream.torn_tail = True
                    return
                raise
            if not _skip(record, from_seq):
                yield record

    stream._records = generate()
    return stream


def read_events(
    path: str,
    *,
    from_seq: int = 0,
    follow: bool = False,
    poll_interval: float = FOLLOW_POLL_INTERVAL,
    stop: Optional[Callable[[], bool]] = None,
) -> EventStream:
    """Read a telemetry JSONL file; the public reader behind every consumer.

    Without ``follow``, the file is read once (it must exist; ``OSError``
    propagates). With ``follow=True``, the reader tails the file — waiting
    for it to appear if necessary — and blocks between polls until
    ``stop()`` returns true; a trailing line without a newline is treated
    as a write in progress and completed on a later poll.
    """
    if not follow:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        return parse_events(lines, from_seq=from_seq)

    stream = EventStream()

    def generate() -> Iterator[Dict[str, Any]]:
        handle = None
        buffer = ""
        line_number = 0
        try:
            while True:
                if handle is None:
                    try:
                        handle = open(path, "r", encoding="utf-8")
                    except FileNotFoundError:
                        if stop is not None and stop():
                            return
                        time.sleep(poll_interval)
                        continue
                chunk = handle.read()
                if chunk:
                    buffer += chunk
                    while True:
                        newline = buffer.find("\n")
                        if newline < 0:
                            break
                        line, buffer = buffer[:newline], buffer[newline + 1 :]
                        line_number += 1
                        stripped = line.strip()
                        if not stripped:
                            continue
                        record = _decode(stripped, line_number)
                        if not _skip(record, from_seq):
                            yield record
                    continue  # drain any data written while we decoded
                if stop is not None and stop():
                    if buffer.strip():
                        stream.torn_tail = True
                    return
                time.sleep(poll_interval)
        finally:
            if handle is not None:
                handle.close()

    stream._records = generate()
    return stream


def complete_prefix_lines(path: str, before_seq: int) -> List[str]:
    """Raw stream lines with ``seq < before_seq``, stopping at the first
    torn or out-of-range line.

    This is the resume-time truncation read: a killed run's stream may
    carry orphan events at or past the checkpoint's telemetry cursor
    (the resumed controller republishes those sequence numbers) plus a
    possibly half-written final line; everything from the first such
    line on is dropped. Returns ``[]`` for a missing file.
    """
    kept: List[str] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return kept
    with handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except ValueError:
                break  # partial line from a kill; drop it and the rest
            seq = record.get("seq", before_seq) if isinstance(record, dict) else before_seq
            if not isinstance(seq, int) or isinstance(seq, bool) or seq >= before_seq:
                break
            kept.append(stripped)
    return kept


__all__ = [
    "FOLLOW_POLL_INTERVAL",
    "EventStream",
    "complete_prefix_lines",
    "parse_events",
    "read_events",
]
