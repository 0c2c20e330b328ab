"""Clock helpers, RNG derivation, and the tracer."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    MS,
    SECOND,
    RngRegistry,
    Tracer,
    US,
    derive_seed,
    format_time,
    millis,
    seconds,
    to_seconds,
)
from repro.sim.trace import (
    KindTrail,
    TraceRecord,
    kind_capture_enabled,
    set_kind_capture,
)


def test_time_constants_relate():
    assert MS == 1000 * US
    assert SECOND == 1000 * MS


def test_seconds_millis_roundtrip():
    assert seconds(1.5) == 1_500_000
    assert millis(2.5) == 2_500
    assert to_seconds(seconds(3.25)) == 3.25


def test_format_time():
    assert format_time(1_250_000) == "1.250000s"


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(42, "a") == derive_seed(42, "a")
    assert derive_seed(42, "a") != derive_seed(42, "b")
    assert derive_seed(42, "a") != derive_seed(43, "a")


def test_registry_streams_are_cached():
    registry = RngRegistry(1)
    assert registry.stream("x") is registry.stream("x")


def test_fork_creates_independent_universe():
    parent = RngRegistry(1)
    child_a = parent.fork("scenario-1")
    child_b = parent.fork("scenario-2")
    assert child_a.stream("x").random() != child_b.stream("x").random()
    # Forking is deterministic.
    again = RngRegistry(1).fork("scenario-1")
    assert again.stream("x").random() == RngRegistry(1).fork("scenario-1").stream("x").random()


@given(st.integers(), st.text(max_size=40))
def test_derive_seed_in_64_bit_range(root, name):
    value = derive_seed(root, name)
    assert 0 <= value < 2**64


def test_tracer_disabled_by_default():
    tracer = Tracer()
    tracer.record(0, "n", "kind")
    assert tracer.records == []


def test_tracer_records_when_enabled():
    tracer = Tracer(enabled=True)
    tracer.record(5, "n", "kind", "detail")
    assert tracer.of_kind("kind")[0].detail == "detail"
    assert tracer.of_kind("other") == []


def test_tracer_predicate_filters():
    tracer = Tracer(enabled=True, predicate=lambda kind: kind.startswith("keep"))
    tracer.record(0, "n", "keep-this")
    tracer.record(0, "n", "drop-this")
    assert len(tracer.records) == 1


def test_tracer_clear():
    tracer = Tracer(enabled=True)
    tracer.record(0, "n", "x")
    tracer.clear()
    assert tracer.records == []
    assert tracer.recorded == 0


class TestTracerRingBuffer:
    """Regression tests for the bounded-tracer rewrite.

    The old implementation switched ``_records`` between ``list`` and
    ``deque`` depending on ``max_records``, ignored the bound (and the
    predicate) for construction-supplied records, and double-counted
    ``recorded`` on some paths.
    """

    def test_max_records_keeps_only_newest(self):
        tracer = Tracer(enabled=True, max_records=3)
        for i in range(10):
            tracer.record(i, "n", f"k{i}")
        assert [r.time for r in tracer.records] == [7, 8, 9]

    def test_recorded_counts_evicted_records(self):
        tracer = Tracer(enabled=True, max_records=2)
        for i in range(7):
            tracer.record(i, "n", "k")
        assert tracer.recorded == 7
        assert len(tracer.records) == 2

    def test_recorded_excludes_filtered_records(self):
        tracer = Tracer(enabled=True, predicate=lambda kind: kind == "keep")
        tracer.record(0, "n", "keep")
        tracer.record(1, "n", "drop")
        assert tracer.recorded == 1

    def test_construction_records_respect_bound_and_counter(self):
        supplied = [TraceRecord(i, "n", "k") for i in range(5)]
        tracer = Tracer(enabled=True, max_records=2, records=supplied)
        assert [r.time for r in tracer.records] == [3, 4]
        assert tracer.recorded == 5

    def test_construction_records_respect_predicate(self):
        supplied = [TraceRecord(0, "n", "keep"), TraceRecord(1, "n", "drop")]
        tracer = Tracer(enabled=True, predicate=lambda k: k == "keep", records=supplied)
        assert [r.kind for r in tracer.records] == ["keep"]
        assert tracer.recorded == 1

    def test_records_is_a_plain_sliceable_list(self):
        bounded = Tracer(enabled=True, max_records=4)
        unbounded = Tracer(enabled=True)
        for tracer in (bounded, unbounded):
            for i in range(6):
                tracer.record(i, "n", "k")
            assert isinstance(tracer.records, list)
            assert tracer.records[-2:] == tracer.records[len(tracer.records) - 2 :]

    def test_bounded_tracer_round_trips_through_pickle(self):
        tracer = Tracer(enabled=True, max_records=3)
        for i in range(9):
            tracer.record(i, "n", f"k{i}")
        clone = pickle.loads(pickle.dumps(tracer))
        assert [r.time for r in clone.records] == [r.time for r in tracer.records]
        assert clone.recorded == tracer.recorded
        clone.record(99, "n", "after")
        assert clone.records[-1].time == 99

    def test_invalid_max_records_rejected(self):
        with pytest.raises(ValueError, match="max_records"):
            Tracer(max_records=0)
        with pytest.raises(ValueError, match="max_records"):
            Tracer(max_records=-3)

    def test_eviction_is_amortized_not_per_record(self):
        # The backlog may exceed the cap internally, but never reaches
        # twice the cap, and the public view always trims to the cap.
        tracer = Tracer(enabled=True, max_records=5)
        for i in range(100):
            tracer.record(i, "n", "k")
            assert len(tracer._records) < 10
        assert [r.time for r in tracer.records] == list(range(95, 100))


class TestKindCaptureToggle:
    def test_override_wins_and_restores(self):
        previous = set_kind_capture(True)
        try:
            assert kind_capture_enabled() is True
            assert set_kind_capture(False) is True
            assert kind_capture_enabled() is False
        finally:
            set_kind_capture(previous)

    def test_cleared_toggle_is_off_whatever_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_COVERAGE", "1")  # the environment is not consulted
        previous = set_kind_capture(None)
        try:
            assert kind_capture_enabled() is False
            assert set_kind_capture(True) is None
            assert kind_capture_enabled() is True
            assert set_kind_capture(None) is True
            assert kind_capture_enabled() is False
        finally:
            set_kind_capture(previous)


class TestKindTrail:
    def test_counts_and_grams(self):
        trail = KindTrail()
        for kind in ("A", "B", "B", "A"):
            trail.add(kind)
        assert trail.merged() == {
            "net.msg.A": 2,
            "net.msg.B": 2,
            "net.seq.A>B": 1,
            "net.seq.B>A": 1,
            "net.seq.B>B": 1,
        }

    def test_merged_order_is_sorted(self):
        trail = KindTrail()
        for kind in ("z", "a", "m"):
            trail.add(kind)
        assert list(trail.merged()) == sorted(trail.merged())

    def test_truncation_is_counted_not_silent(self):
        trail = KindTrail(max_keys=2)
        for kind in ("A", "B", "C", "D"):
            trail.add(kind)
        merged = trail.merged()
        assert merged["net.trail_truncated"] > 0
        assert set(merged) >= {"net.msg.A", "net.msg.B"}

    def test_invalid_max_keys_rejected(self):
        with pytest.raises(ValueError, match="max_keys"):
            KindTrail(max_keys=0)

    def test_trail_round_trips_through_pickle(self):
        trail = KindTrail()
        for kind in ("A", "B", "A"):
            trail.add(kind)
        clone = pickle.loads(pickle.dumps(trail))
        assert clone.merged() == trail.merged()
        # A restored trail continues the 2-gram chain (snapshot-fork path).
        clone.add("C")
        assert "net.seq.A>C" in clone.merged()
