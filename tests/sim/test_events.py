"""Event queue ordering, cancellation, and FIFO tie-breaking."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.events import EventQueue


def test_pop_returns_events_in_time_order():
    queue = EventQueue()
    fired = []
    for time in (30, 10, 20):
        queue.push(time, fired.append, (time,))
    times = []
    while queue:
        handle = queue.pop()
        times.append(handle.time)
    assert times == [10, 20, 30]


def test_same_time_events_pop_in_push_order():
    queue = EventQueue()
    handles = [queue.push(5, lambda: None) for _ in range(10)]
    popped = [queue.pop() for _ in range(10)]
    assert [h.seq for h in popped] == [h.seq for h in handles]


def test_cancelled_event_never_pops():
    queue = EventQueue()
    keep = queue.push(1, lambda: None)
    drop = queue.push(0, lambda: None)
    queue.cancel(drop)
    assert queue.pop() is keep
    assert queue.pop() is None


def test_cancel_is_idempotent():
    queue = EventQueue()
    handle = queue.push(1, lambda: None)
    queue.cancel(handle)
    queue.cancel(handle)
    assert len(queue) == 0


def test_len_counts_only_live_events():
    queue = EventQueue()
    first = queue.push(1, lambda: None)
    queue.push(2, lambda: None)
    assert len(queue) == 2
    queue.cancel(first)
    assert len(queue) == 1


def test_peek_time_skips_cancelled_heads():
    queue = EventQueue()
    early = queue.push(1, lambda: None)
    queue.push(9, lambda: None)
    queue.cancel(early)
    assert queue.peek_time() == 9


def test_negative_time_rejected():
    queue = EventQueue()
    with pytest.raises(ValueError):
        queue.push(-1, lambda: None)


def test_clear_empties_queue():
    queue = EventQueue()
    queue.push(1, lambda: None)
    queue.clear()
    assert not queue
    assert queue.pop() is None


def test_cancelled_handle_drops_callback_reference():
    queue = EventQueue()
    handle = queue.push(1, lambda: None)
    queue.cancel(handle)
    assert handle.callback is None
    assert handle.args == ()


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_pop_order_is_sorted_for_any_push_sequence(times):
    queue = EventQueue()
    for time in times:
        queue.push(time, lambda: None)
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == sorted(times)


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=100),
    st.data(),
)
def test_cancelling_any_subset_preserves_order_of_rest(times, data):
    queue = EventQueue()
    handles = [queue.push(time, lambda: None) for time in times]
    to_cancel = data.draw(st.sets(st.integers(0, len(handles) - 1), max_size=len(handles)))
    for index in to_cancel:
        queue.cancel(handles[index])
    expected = sorted(
        (handle.time, handle.seq) for i, handle in enumerate(handles) if i not in to_cancel
    )
    popped = []
    while queue:
        handle = queue.pop()
        popped.append((handle.time, handle.seq))
    assert popped == expected


def test_clear_marks_outstanding_handles_cancelled():
    queue = EventQueue()
    handles = [queue.push(time, lambda: None) for time in (1, 2, 3)]
    queue.clear()
    assert len(queue) == 0
    assert not queue
    assert all(handle.cancelled for handle in handles)


def test_cancel_after_clear_does_not_corrupt_live_count():
    # Regression: clear() used to leave handles uncancelled, so a later
    # cancel(handle) drove the live count negative and __bool__ lied.
    queue = EventQueue()
    stale = [queue.push(time, lambda: None) for time in (1, 2, 3)]
    queue.clear()
    for handle in stale:
        queue.cancel(handle)  # must be a no-op on every stale handle
    assert len(queue) == 0
    replacement = queue.push(5, lambda: None)
    assert len(queue) == 1
    assert queue
    assert queue.pop() is replacement
    assert len(queue) == 0


def test_cancel_after_pop_does_not_corrupt_live_count():
    # Regression: pop() left the handle looking pending, so cancelling an
    # event that had already been handed out decremented the live count a
    # second time and hid the events still queued behind it.
    queue = EventQueue()
    fired = queue.push(5, lambda: None)
    queue.push(50, lambda: None)
    assert queue.pop() is fired
    queue.cancel(fired)  # must be a no-op: the event already ran
    assert len(queue) == 1
    assert queue
    assert queue.pop().time == 50
    assert len(queue) == 0
