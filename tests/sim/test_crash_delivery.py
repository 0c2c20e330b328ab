"""One-hop delivery: a crash swaps the node's handler for a drop, and the
network's bookkeeping counts deliveries to a crashed node as before."""

from __future__ import annotations

import pytest

from repro.pbft import PbftDeployment
from repro.sim import CrashAwareNode, FixedLatency, LanLatency, Network, Node, Simulator
from repro.sim.trace import set_kind_capture
from tests._reference import reference_mode
from tests.conftest import tiny_pbft_config


class Pinger(CrashAwareNode):
    def __init__(self, name, simulator, network):
        super().__init__(name, simulator, network)
        self.handled = []

    def handle_message(self, payload, src):
        self.handled.append(payload)


class Plain(Node):
    def __init__(self, name, simulator, network):
        super().__init__(name, simulator, network)
        self.seen = []

    def on_message(self, payload, src):
        self.seen.append((payload, self.crashed))


@pytest.fixture
def kind_capture():
    previous = set_kind_capture(True)
    yield
    set_kind_capture(previous)


@pytest.mark.parametrize("latency", [FixedLatency(10), LanLatency()], ids=["envelope", "fused"])
def test_crashed_node_drops_deliveries_but_they_are_counted(latency, kind_capture):
    sim = Simulator(seed=5)
    net = Network(sim, latency)
    a, b = Pinger("a", sim, net), Pinger("b", sim, net)
    a.send("b", "before")
    sim.run()
    b.crash()
    a.send("b", "after")
    a.send("b", 3)
    sim.run()
    assert b.handled == ["before"]
    assert net.messages_sent == net.messages_delivered == 3
    assert net.delivered_per_endpoint == {"a": 0, "b": 3}
    assert net.kind_trail.counts == {"str": 2, "int": 1}


def test_crash_is_immediate_for_messages_already_in_flight():
    sim = Simulator(seed=5)
    net = Network(sim, FixedLatency(10))
    a, b = Pinger("a", sim, net), Pinger("b", sim, net)
    a.send("b", "in flight")
    b.crash()
    sim.run()
    assert b.handled == [] and net.delivered_per_endpoint["b"] == 1


def test_plain_nodes_keep_on_message_and_see_their_own_crash():
    sim = Simulator(seed=5)
    net = Network(sim, FixedLatency(10))
    a, b = Pinger("a", sim, net), Plain("b", sim, net)
    b.crash()
    a.send("b", "x")
    sim.run()
    assert b.seen == [("x", True)]


def test_a_crashed_node_that_re_registers_still_drops():
    sim = Simulator(seed=5)
    net = Network(sim, FixedLatency(10))
    a, b = Pinger("a", sim, net), Pinger("b", sim, net)
    b.crash()
    net.unregister("b")
    net.register(b)
    a.send("b", "x")
    sim.run()
    assert b.handled == [] and net.delivered_per_endpoint["b"] == 1


def test_a_crashed_replica_receives_nothing_but_is_counted():
    deployment = PbftDeployment(tiny_pbft_config(), 2, 0, 3)
    crashed = deployment.replicas[3]
    crashed.crash()
    result = deployment.run()
    assert result.completed_requests > 0 and result.crashed_replicas == 1
    assert deployment.network.delivered_per_endpoint[crashed.name] > 0
    assert crashed.last_executed == 0 and crashed.requests_executed == 0
    assert all(replica.last_executed > 0 for replica in deployment.replicas[:3])


class Tripwire(Pinger):
    """An endpoint that fails any attribute read while armed (as one that
    is not yet restored would)."""

    armed = False

    def __getattribute__(self, attr):
        if type(self).armed:
            raise AssertionError(f"endpoint state read during restore: {attr}")
        return super().__getattribute__(attr)


def test_network_setstate_reads_no_endpoint_state():
    """During an unpickle the endpoints may not be restored yet, so the
    delivery handlers are rebuilt by ``rebind_fast_paths``, not here."""
    sim = Simulator(seed=5)
    net = Network(sim, LanLatency())
    a, b = Pinger("a", sim, net), Tripwire("b", sim, net)
    b.crash()
    state = net.__getstate__()
    restored = Network.__new__(Network)
    Tripwire.armed = True
    try:
        restored.__setstate__(state)
    finally:
        Tripwire.armed = False
    restored.rebind_fast_paths()
    restored.send("a", "b", "x")
    restored.send("b", "a", "y")
    sim.run()
    assert b.handled == [] and a.handled == ["y"]


def churn_trace(early_bound_seen):
    """Deliveries in flight across a crash, an unregister and a re-register,
    with every counter read mid-flight."""
    sim = Simulator(seed=11)
    net = Network(sim, LanLatency())
    a, b, c = Pinger("a", sim, net), Pinger("b", sim, net), Plain("c", sim, net)
    trace = []

    def observe():
        early_bound_seen.append(sum(type(entry[4]) is str for entry in sim.queue._heap))
        trail = net.kind_trail
        trace.append((
            sim.now, net.messages_sent, net.messages_delivered, net.messages_dropped,
            net.delivered_per_endpoint, list(a.handled), list(b.handled), list(c.seen),
            None if trail is None else (dict(trail.counts), dict(trail.grams)),
        ))

    for step in range(4):
        for i in range(5):
            a.send("b", i)
            a.send("c", str(i))
            b.send("a", step)
        sim.run(until=sim.now + 160)  # base latency 150 us: some still in flight
        observe()
        if step == 0:
            b.crash()
        elif step == 1:
            net.unregister("c")
        elif step == 2:
            net.register(c)
    sim.run()
    observe()
    return trace


@pytest.mark.parametrize("capture", [False, True], ids=["no-trail", "kind-trail"])
def test_early_bound_deliveries_count_as_if_counted_on_arrival(capture):
    """The fused path binds a delivery to its handler at send time; every
    counter, drop and trail still reads as the late-bound reference's."""
    previous = set_kind_capture(capture)
    try:
        early_bound = []
        fused = churn_trace(early_bound)
        with reference_mode():
            reference = churn_trace([])
    finally:
        set_kind_capture(previous)
    assert fused == reference
    # Without a trail the fused run really had early-bound entries in flight.
    assert any(early_bound) is not capture
