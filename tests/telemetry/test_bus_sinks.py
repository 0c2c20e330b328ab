"""Unit tests for the telemetry bus and its sinks."""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.telemetry import (
    SCHEMA_VERSION,
    ImpactAbsorbed,
    JsonlSink,
    RingBufferSink,
    ScenarioExecuted,
    TelemetryBus,
    TelemetrySink,
    TtyProgressSink,
)


def _executed(index: int, impact: float = 0.5) -> ScenarioExecuted:
    return ScenarioExecuted(test_index=index, key={"mask": index}, impact=impact)


class TestBus:
    def test_sequences_start_at_zero_and_increment(self):
        sink = RingBufferSink()
        bus = TelemetryBus(sinks=(sink,))
        assert [bus.publish(_executed(i)) for i in range(3)] == [0, 1, 2]
        assert [seq for seq, _ in sink.events()] == [0, 1, 2]
        assert bus.seq == 3

    def test_inert_without_sinks(self):
        bus = TelemetryBus()
        assert not bus.active
        # Publishing still sequences (callers are expected to guard on
        # .active themselves; the bus stays consistent either way).
        assert bus.publish(_executed(0)) == 0

    def test_attach_activates(self):
        bus = TelemetryBus()
        bus.attach(RingBufferSink())
        assert bus.active

    def test_fans_out_to_every_sink(self):
        first, second = RingBufferSink(), RingBufferSink()
        bus = TelemetryBus(sinks=(first, second))
        bus.publish(_executed(0))
        assert len(first) == len(second) == 1

    def test_seq_cursor_restorable(self):
        sink = RingBufferSink()
        bus = TelemetryBus(sinks=(sink,), seq=17)
        assert bus.publish(_executed(0)) == 17

    def test_negative_seq_rejected(self):
        with pytest.raises(ValueError):
            TelemetryBus(seq=-1)

    def test_ring_buffer_satisfies_sink_protocol(self):
        assert isinstance(RingBufferSink(), TelemetrySink)


class TestRingBufferSink:
    def test_unbounded_by_default(self):
        sink = RingBufferSink()
        for index in range(100):
            sink.emit(index, _executed(index))
        assert len(sink) == sink.emitted == 100

    def test_bounded_keeps_newest(self):
        sink = RingBufferSink(capacity=3)
        for index in range(10):
            sink.emit(index, _executed(index))
        assert [seq for seq, _ in sink.events()] == [7, 8, 9]
        assert sink.emitted == 10

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_to_lines_is_canonical_json(self):
        sink = RingBufferSink()
        sink.emit(0, _executed(4, impact=0.25))
        (line,) = sink.to_lines()
        record = json.loads(line)
        assert record["v"] == SCHEMA_VERSION
        assert record["seq"] == 0
        assert record["type"] == "ScenarioExecuted"
        assert record["impact"] == 0.25
        # Canonical: re-encoding with sorted keys reproduces the bytes.
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))


class TestJsonlSink:
    def test_writes_one_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        sink.emit(0, _executed(0))
        sink.emit(1, _executed(1))
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2 == sink.written
        assert json.loads(lines[1])["seq"] == 1

    def test_append_continues_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.emit(0, _executed(0))
        with JsonlSink(str(path), append=True) as sink:
            sink.emit(1, _executed(1))
        assert [json.loads(l)["seq"] for l in path.read_text().splitlines()] == [0, 1]

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "events.jsonl"))
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError):
            sink.emit(0, _executed(0))

    def test_every_line_is_flushed_as_written(self, tmp_path):
        # Kill-durability: a SIGKILLed campaign must leave every published
        # event on disk, not sitting in a stdio buffer.
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        sink.emit(0, _executed(0))
        assert len(path.read_text().splitlines()) == 1  # visible pre-close
        sink.close()

    def test_resume_seq_truncates_the_orphan_tail(self, tmp_path, caplog):
        # A killed run can leave events past the checkpoint cursor; the
        # resumed controller republishes those seqs, so append mode must
        # drop them first.
        path = tmp_path / "events.jsonl"
        with JsonlSink(str(path)) as sink:
            for seq in range(5):
                sink.emit(seq, _executed(seq))
        with caplog.at_level(logging.WARNING, logger="repro.telemetry.sinks"):
            with JsonlSink(str(path), append=True, resume_seq=3) as sink:
                sink.emit(3, _executed(30))
        assert [json.loads(l)["seq"] for l in path.read_text().splitlines()] == [
            0, 1, 2, 3,
        ]
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: dropped 2 line(s) at or past telemetry seq 3"
        ]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.telemetry.sinks"):
            JsonlSink(str(path), append=True, resume_seq=4).close()
        assert caplog.records == []  # nothing dropped, nothing said

    def test_resume_seq_drops_a_partial_final_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.emit(0, _executed(0))
            sink.emit(1, _executed(1))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "seq": 2, "ty')  # torn mid-write
        with JsonlSink(str(path), append=True, resume_seq=2) as sink:
            sink.emit(2, _executed(2))
        assert [json.loads(l)["seq"] for l in path.read_text().splitlines()] == [
            0, 1, 2,
        ]

    def test_interrupted_truncation_leaves_the_stream_intact(self, tmp_path, monkeypatch):
        # A kill while the orphan tail is being dropped must not leave a
        # stream shorter than the checkpoint's cursor: the next resume
        # would append after the hole and no reader would notice.
        path = tmp_path / "events.jsonl"
        with JsonlSink(str(path)) as sink:
            for seq in range(5):
                sink.emit(seq, _executed(seq))
        original = path.read_bytes()

        def dies_after_one_line(stream_path, before_seq):
            yield original.decode("utf-8").splitlines()[0]
            raise KeyboardInterrupt

        monkeypatch.setattr(
            "repro.telemetry.reader.complete_prefix_lines", dies_after_one_line
        )
        with pytest.raises(KeyboardInterrupt):
            JsonlSink(str(path), append=True, resume_seq=3)
        assert path.read_bytes() == original


class TestTtyProgressSink:
    def test_renders_progress_lines_on_dumb_stream(self):
        stream = io.StringIO()
        sink = TtyProgressSink(stream=stream)
        sink.emit(0, _executed(0, impact=0.2))
        sink.emit(1, ImpactAbsorbed(test_index=0, key={"mask": 0}, impact=0.2, mu=0.2))
        sink.emit(2, _executed(1, impact=0.9))
        sink.close()
        output = stream.getvalue()
        assert "test     1" in output
        assert "best impact 0.200" in output
        assert "last 0.900" in output

    def test_best_is_the_highest_non_failed_execution(self):
        # A baseline publishes no ImpactAbsorbed: executions alone carry it.
        stream = io.StringIO()
        sink = TtyProgressSink(stream=stream)
        sink.emit(0, _executed(0, impact=0.3))
        sink.emit(1, ScenarioExecuted(test_index=1, key={"mask": 1}, impact=0.8, failed=True))
        sink.emit(2, _executed(2, impact=0.1))
        assert stream.getvalue().splitlines()[-1] == "test     3  best impact 0.300  last 0.100"

    def test_every_throttles(self):
        stream = io.StringIO()
        sink = TtyProgressSink(stream=stream, every=5)
        for index in range(9):
            sink.emit(index, _executed(index))
        assert stream.getvalue().count("\n") == 1  # only test 5 rendered

    def test_bad_every_rejected(self):
        with pytest.raises(ValueError):
            TtyProgressSink(stream=io.StringIO(), every=0)
