"""The oracle itself: ``tests/_reference.py`` patches, restores, and bites.

The equivalence sweeps are only as good as the reference they compare
against, so this file checks that the block really swaps the kernel out,
that it puts the real one back (also when its body raises), and that the
kernel comparison fails for a kernel that is wrong.
"""

from __future__ import annotations

import pytest

from repro.core import snapshot
from repro.sim import EventHandle, LanLatency, Network, Simulator
from tests._reference import reference_mode
from tests.perf.test_trace_equivalence import kernel_cascade


def patched_attributes():
    return (
        Simulator.__dict__["_run_loop"],
        Simulator.__dict__["defer"],
        Network.__dict__["_make_lan"],
    )


def test_block_swaps_the_run_loop_defer_fused_send_and_forking():
    run_loop, defer, make_lan = patched_attributes()
    assert Network(Simulator(), LanLatency())._lan is not None
    with reference_mode():
        assert Simulator.__dict__["_run_loop"] is not run_loop
        assert Simulator.__dict__["defer"] is not defer
        assert Network.__dict__["_make_lan"] is not make_lan
        assert not snapshot.enabled()
        simulator = Simulator()
        assert Network(simulator, LanLatency())._lan is None
        fired = []
        assert simulator.defer(5, fired.append, "deferred") is None
        (entry,) = simulator.queue._heap
        assert isinstance(entry[4], EventHandle), "defer did not go through schedule"
        simulator.run()
        assert fired == ["deferred"] and simulator.now == 5


@pytest.mark.parametrize("snapshots_on", [True, False], ids=["forking-on", "forking-off"])
@pytest.mark.parametrize("body_raises", [False, True], ids=["clean-exit", "body-raises"])
def test_block_restores_everything_it_patched(snapshots_on, body_raises):
    before = patched_attributes()
    previous = snapshot.set_enabled(snapshots_on)
    try:
        if body_raises:
            with pytest.raises(ZeroDivisionError):
                with reference_mode():
                    1 / 0
        else:
            with reference_mode():
                pass
        assert all(now is was for now, was in zip(patched_attributes(), before))
        assert snapshot.enabled() is snapshots_on
    finally:
        snapshot.set_enabled(previous)


def lifo_among_ties(self, until, max_events):
    """A wrong kernel: same-time events run last-scheduled-first."""
    queue = self.queue
    executed = 0
    while (time := queue.peek_time()) is not None:
        tied = []
        while queue.peek_time() == time:
            tied.append(queue.pop())
        self.now = time
        for handle in reversed(tied):
            if handle.callback is not None:  # cancelled by an earlier tie
                handle.callback(*handle.args)
                executed += 1
    return executed


def test_kernel_comparison_fails_for_a_wrong_kernel(monkeypatch):
    with reference_mode():
        reference = kernel_cascade()
    assert kernel_cascade() == reference
    monkeypatch.setattr(Simulator, "_run_loop", lifo_among_ties)
    assert kernel_cascade() != reference, "the kernel cascade cannot tell FIFO from LIFO among ties"
