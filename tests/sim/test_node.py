"""Node timers, crash gating, and library-call interception."""

import gc

import pytest

from repro.injection import FaultPlan
from repro.sim import CrashAwareNode, FixedLatency, Network, Node, Simulator


class Pinger(CrashAwareNode):
    def __init__(self, name, simulator, network):
        super().__init__(name, simulator, network)
        self.handled = []

    def handle_message(self, payload, src):
        self.handled.append(payload)


def build():
    sim = Simulator(seed=5)
    net = Network(sim, FixedLatency(10))
    a = Pinger("a", sim, net)
    b = Pinger("b", sim, net)
    return sim, net, a, b


def test_timer_fires_with_arguments():
    sim, net, a, b = build()
    seen = []
    a.set_timer(100, seen.append, "tick")
    sim.run()
    assert seen == ["tick"]


def test_cancelled_timer_does_not_fire():
    sim, net, a, b = build()
    seen = []
    handle = a.set_timer(100, seen.append, "tick")
    a.cancel_timer(handle)
    sim.run()
    assert seen == []


def test_cancel_timer_tolerates_none():
    sim, net, a, b = build()
    a.cancel_timer(None)  # must not raise


def test_crashed_node_timers_are_inert():
    sim, net, a, b = build()
    seen = []
    a.set_timer(100, seen.append, "tick")
    a.crash()
    sim.run()
    assert seen == []


def test_crashed_node_ignores_incoming_messages():
    sim, net, a, b = build()
    b.crash()
    a.send("b", "hello")
    sim.run()
    assert b.handled == []


def test_send_fault_injection_suppresses_message():
    sim, net, a, b = build()
    a.lib.install(FaultPlan("send", "ECONNRESET", 1))
    assert a.send("b", "x") is False
    sim.run()
    assert b.handled == []
    # The next send call (call #2) succeeds.
    assert a.send("b", "y") is True
    sim.run()
    assert b.handled == ["y"]


def test_broadcast_counts_successful_sends():
    sim, net, a, b = build()
    c = Pinger("c", sim, net)
    a.lib.install(FaultPlan("send", "EPIPE", 2))
    assert a.broadcast(["b", "c"], "x") == 1
    sim.run()
    assert b.handled == ["x"] and c.handled == []


def test_trace_records_via_node_helper():
    sim, net, a, b = build()
    sim.tracer.enabled = True
    a.trace("custom", {"k": 1})
    records = sim.tracer.of_kind("custom")
    assert len(records) == 1 and records[0].source == "a"


@pytest.fixture
def collector_off():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_cancelled_timers_leave_no_cyclic_garbage(collector_off):
    """A cancelled timer is freed by refcount once it leaves the heap: its
    handle and heap entry hold no reference cycle for the collector."""
    sim, net, a, b = build()
    fired = []
    for i in range(3000):
        handle = a.set_timer(10 + i, fired.append, i)
        if i % 3:
            a.cancel_timer(handle)
        scheduled = sim.schedule(10 + i, fired.append, -i)
        sim.cancel(scheduled)
    sim.run()
    assert fired == list(range(0, 3000, 3))
    assert not sim.queue and not sim.queue._heap
    assert gc.collect() == 0
