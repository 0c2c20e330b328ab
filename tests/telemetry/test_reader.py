"""The shared stream reader: batch, follow, torn tails, seq resume."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.telemetry.reader import (
    EventStream,
    complete_prefix_lines,
    parse_events,
    read_events,
)
from repro.telemetry.schema import SchemaError

from tests.telemetry._harness import run_recorded_campaign

SEED = 47
BUDGET = 12


@pytest.fixture(scope="module")
def lines():
    recorded, _ = run_recorded_campaign(seed=SEED, budget=BUDGET)
    return recorded


class TestParseEvents:
    def test_yields_every_record_decoded(self, lines):
        stream = parse_events(lines)
        records = list(stream)
        assert records == [json.loads(line) for line in lines]
        assert stream.count == len(lines)
        assert stream.last_seq == len(lines) - 1
        assert stream.torn_tail is False

    def test_from_seq_resumes_mid_stream(self, lines):
        records = list(parse_events(lines, from_seq=10))
        assert records[0]["seq"] == 10
        assert len(records) == len(lines) - 10

    def test_blank_lines_are_skipped(self, lines):
        padded = [lines[0], "", "   ", lines[1]]
        assert [r["seq"] for r in parse_events(padded)] == [0, 1]

    def test_torn_final_line_flags_not_raises(self, lines):
        stream = parse_events(list(lines) + ['{"v":1,"seq":999,"type":"Scen'])
        records = list(stream)
        assert len(records) == len(lines)
        assert stream.torn_tail is True

    def test_mid_stream_corruption_raises_with_line_number(self, lines):
        corrupted = list(lines)
        corrupted.insert(2, "{not json")
        with pytest.raises(SchemaError, match="line 3"):
            list(parse_events(corrupted))

    def test_invalid_final_record_still_raises(self, lines):
        # Torn-tail tolerance covers half-written JSON only; a line that
        # parses but fails schema validation is corruption wherever it is.
        bad = list(lines) + ['{"v":1,"seq":999,"type":"Nope"}']
        with pytest.raises(SchemaError, match="Nope"):
            list(parse_events(bad))

    def test_returns_event_stream(self, lines):
        assert isinstance(parse_events(lines), EventStream)


class TestReadEvents:
    def test_batch_read_matches_parse(self, tmp_path, lines):
        path = tmp_path / "campaign.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert list(read_events(str(path))) == list(parse_events(lines))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_events(str(tmp_path / "nope.jsonl"))

    def test_follow_tails_a_growing_file(self, tmp_path, lines):
        path = tmp_path / "live.jsonl"
        done = threading.Event()

        def writer():
            # The file does not even exist when the reader attaches.
            time.sleep(0.05)
            with open(path, "w", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(line + "\n")
                    handle.flush()
                    time.sleep(0.002)
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        stream = read_events(
            str(path),
            follow=True,
            poll_interval=0.01,
            stop=lambda: done.is_set(),
        )
        records = list(stream)
        thread.join()
        assert records == [json.loads(line) for line in lines]
        assert stream.torn_tail is False

    def test_follow_treats_unterminated_tail_as_in_progress(self, tmp_path, lines):
        path = tmp_path / "live.jsonl"
        path.write_text(lines[0] + "\n" + lines[1][:10])  # no trailing newline
        stopping = threading.Event()

        collected = []

        def consume():
            for record in read_events(
                str(path), follow=True, poll_interval=0.01, stop=stopping.is_set
            ):
                collected.append(record)

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.1)
        assert collected == [json.loads(lines[0])]  # tail not yielded yet
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(lines[1][10:] + "\n")
        time.sleep(0.1)
        stopping.set()
        thread.join(timeout=5.0)
        assert collected == [json.loads(lines[0]), json.loads(lines[1])]

    def test_follow_flags_torn_tail_on_stop(self, tmp_path, lines):
        path = tmp_path / "live.jsonl"
        path.write_text(lines[0] + "\n" + '{"v":1,"seq":1,"ty')
        stopping = threading.Event()
        stream = read_events(
            str(path), follow=True, poll_interval=0.01, stop=stopping.is_set
        )
        iterator = iter(stream)
        assert next(iterator) == json.loads(lines[0])
        stopping.set()
        assert list(iterator) == []
        assert stream.torn_tail is True


class TestCompletePrefixLines:
    def test_keeps_lines_below_the_cursor(self, tmp_path, lines):
        path = tmp_path / "stream.jsonl"
        path.write_text("\n".join(lines) + "\n")
        kept = complete_prefix_lines(str(path), before_seq=5)
        assert kept == lines[:5]

    def test_stops_at_partial_tail(self, tmp_path, lines):
        path = tmp_path / "stream.jsonl"
        path.write_text(lines[0] + "\n" + '{"half')
        assert complete_prefix_lines(str(path), before_seq=100) == [lines[0]]

    def test_missing_file_is_empty(self, tmp_path):
        assert complete_prefix_lines(str(tmp_path / "nope.jsonl"), 10) == []
