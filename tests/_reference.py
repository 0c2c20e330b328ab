"""The reference kernel: the oracle the equivalence sweeps compare against.

``src/`` has one implementation of each hot loop. This module is the
straightforward one they must stay bit-identical to, for any seed:

* a run loop over the event queue's public ``peek_time()`` / ``pop()``
  instead of the inlined raw-heap loop;
* ``defer`` through ``schedule``, so every event allocates a handle;
* no fused LAN send: every message takes the ``Envelope`` path (live code
  in ``src/`` — it is what any scenario with a network fault installed runs);
* no snapshot forking: a reference run is always from scratch.

The patches are class-level, so build *and* run inside the block (a network
built outside it has already captured its fused send); forked local workers
inherit them, a fresh interpreter must enter the block itself.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

from repro.core import snapshot
from repro.sim.network import Network
from repro.sim.simulator import Simulator


def _run_loop(self, until, max_events):
    queue = self.queue
    executed = 0
    while not self._stop_requested:
        if max_events is not None and executed >= max_events:
            break
        next_time = queue.peek_time()
        if next_time is None:
            break
        if next_time > until:
            self.now = until
            break
        handle = queue.pop()
        self.now = handle.time
        handle.callback(*handle.args)
        executed += 1
    return executed


def _defer(self, delay, callback, *args):
    self.schedule(delay, callback, *args)


def _no_lan(self):
    return None


@contextmanager
def reference_mode():
    """Run the block on the reference kernel; always restores the real one."""
    originals = (Simulator._run_loop, Simulator.defer, Network._make_lan)
    Simulator._run_loop = _run_loop
    Simulator.defer = _defer
    Network._make_lan = _no_lan
    try:
        with snapshot.disabled():
            yield
    finally:
        Simulator._run_loop, Simulator.defer, Network._make_lan = originals


def in_mode(optimized: bool):
    """Context manager for one leg of an optimized-vs-reference comparison."""
    return nullcontext() if optimized else reference_mode()
