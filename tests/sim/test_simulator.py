"""Simulator execution semantics: clock, horizons, stop, determinism."""

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.simulator import EventBudgetExceeded
from tests._reference import in_mode


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.schedule(100, lambda: seen.append(sim.now))
    sim.schedule(50, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [50, 100]
    assert sim.now == 100


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(1000, fired.append, "late")
    executed = sim.run(until=500)
    assert fired == ["early"]
    assert executed == 1
    assert sim.now == 500  # clock advances to the horizon


def test_remaining_events_run_on_second_call():
    sim = Simulator()
    fired = []
    sim.schedule(1000, fired.append, "late")
    sim.run(until=500)
    sim.run(until=2000)
    assert fired == ["late"]


def test_quiescent_run_advances_clock_to_horizon():
    sim = Simulator()
    sim.run(until=1234)
    assert sim.now == 1234


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(i, fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_stop_from_inside_event():
    sim = Simulator()
    fired = []

    def stopper():
        fired.append("stop")
        sim.stop()

    sim.schedule(1, stopper)
    sim.schedule(2, fired.append, "never")
    sim.run()
    assert fired == ["stop"]


def test_events_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 5:
            sim.schedule(1, chain, depth + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == list(range(6))


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    handle = sim.schedule(5, fired.append, "x")
    sim.cancel(handle)
    sim.run()
    assert fired == []


@pytest.mark.parametrize("optimized", [True, False], ids=["optimized", "reference"])
def test_cancel_after_fire_is_a_noop(optimized):
    # Regression: neither run loop marked a fired event's handle, so a late
    # cancel() decremented the live count again — the queue read as empty
    # (the quiescence test in run()) with an event still pending, and
    # len() went negative once that event ran.
    with in_mode(optimized):
        sim = Simulator()
        fired = []
        handle = sim.schedule(5, fired.append, "early")
        sim.schedule(50, fired.append, "late")
        sim.run(until=10)
        sim.cancel(handle)
        assert len(sim.queue) == 1
        assert sim.queue
        sim.run(until=100)
    assert fired == ["early", "late"]
    assert len(sim.queue) == 0
    assert sim.now == 100


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


@pytest.mark.parametrize("pending", [True, False], ids=["pending-event", "drained-queue"])
def test_run_into_the_past_rejected(pending):
    # Regression: run(until=t) with t < now set the clock back to t, so a
    # later schedule() fired before a time the simulation had already reached.
    sim = Simulator()
    if pending:
        sim.schedule(500, lambda: None)
    sim.run(until=100)
    with pytest.raises(SimulationError):
        sim.run(until=50)
    assert sim.now == 100
    assert len(sim.queue) == (1 if pending else 0)
    fired = []
    sim.schedule(10, lambda: fired.append(sim.now))
    sim.run(until=200)
    assert fired == [110]


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1, reenter)
    sim.run()
    assert len(errors) == 1


def test_rng_streams_are_independent_and_deterministic():
    sim_a = Simulator(seed=7)
    sim_b = Simulator(seed=7)
    assert sim_a.rng("x").random() == sim_b.rng("x").random()
    # Draws on one stream must not shift another stream.
    sim_c = Simulator(seed=7)
    sim_c.rng("y").random()
    assert sim_c.rng("x").random() == Simulator(seed=7).rng("x").random()


def test_events_executed_counter_accumulates():
    sim = Simulator()
    for i in range(4):
        sim.schedule(i, lambda: None)
    sim.run(max_events=2)
    sim.run()
    assert sim.events_executed == 4


def spaced(budget, count=10):
    """A simulator with ``count`` events 10us apart and ``budget`` to spend."""
    sim = Simulator()
    sim.event_budget = budget
    for i in range(count):
        sim.schedule(i * 10, lambda: None)
    return sim


@pytest.mark.parametrize("optimized", [True, False], ids=["optimized", "reference"])
def test_event_budget_trips_only_with_an_event_due(optimized):
    with in_mode(optimized):
        sim = spaced(budget=4)
        assert sim.run(until=35) == 4  # spent, but nothing else is due by 35
        with pytest.raises(EventBudgetExceeded, match=r"budget of 4 events at t=30us$"):
            sim.run(until=45)
        assert sim.events_executed == 4
        exact = spaced(budget=10)
        assert exact.run() == 10  # spending it on the last event is no overrun


@pytest.mark.parametrize("optimized", [True, False], ids=["optimized", "reference"])
def test_event_budget_skips_cancelled_events_and_max_events(optimized):
    with in_mode(optimized):
        sim = spaced(budget=3, count=3)
        sim.cancel(sim.schedule(25, lambda: None))
        assert sim.run(max_events=2) == 2  # the caller's cap, not the budget
        assert sim.run() == 1  # the cancelled event at 25 is not due work
        assert sim.events_executed == 3 and sim.now == 20
