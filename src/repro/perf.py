"""The hot-path optimization toggle.

Two fast paths are left behind it, each kept because turning it off *alone*
costs measurably (EXPERIMENTS.md "fast-path ablation", CPU per simulated
event over five campaign-scale scenarios, ten alternating pairs):

* the kernel's inlined run loop plus handle-free ``defer``
  (:class:`repro.sim.simulator.Simulator`): +21.7 % when off, 10/10 pairs;
* the fused LAN send (:class:`repro.sim.network.Network`): +13.7 %, 9/10.

Both are **behaviour-preserving**: for any seed they produce bit-identical
traces, impacts, and campaign trajectories to the straightforward
implementation (``tests/perf/test_trace_equivalence.py`` proves it on every
run). Snapshot forking (:func:`repro.core.snapshot.enabled`) follows the
toggle, so a reference-mode run never forks a prefix captured in optimized
mode. Everything else — MAC tags, execution folds, request digests, benign
baselines — has one implementation in both modes.

The toggle exists for two reasons:

1. **Equivalence.** The reference implementation is what the
   ``tests/perf`` and ``tests/snapshot`` sweeps compare both fast paths
   against, in the same process.
2. **Bisection.** When a determinism regression appears, flipping
   ``REPRO_UNOPTIMIZED=1`` immediately tells you whether a fast path or
   the protocol logic is to blame.

Components read the toggle at *construction* time (a simulator or network
samples it once and never re-checks), so flipping it mid-run never produces
a half-optimized hybrid; build fresh objects after :func:`set_enabled`.
"""

from __future__ import annotations

import os

#: Module state: optimizations on unless REPRO_UNOPTIMIZED is set at import.
_ENABLED = os.environ.get("REPRO_UNOPTIMIZED", "") in ("", "0")


def enabled() -> bool:
    """Whether the hot-path optimizations are active for new objects."""
    return _ENABLED


def set_enabled(value: bool) -> bool:
    """Flip the toggle (tests only); returns the old value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(value)
    return previous


class use_optimizations:
    """Context manager pinning the toggle for a measurement block.

    ::

        with use_optimizations(False):
            reference = run_deployment(config, 20, seed=7)
    """

    def __init__(self, value: bool) -> None:
        self.value = value
        self._previous = None

    def __enter__(self) -> "use_optimizations":
        self._previous = set_enabled(self.value)
        return self

    def __exit__(self, *exc_info) -> None:
        set_enabled(self._previous)


__all__ = ["enabled", "set_enabled", "use_optimizations"]
