"""The hot-path optimization toggle.

The simulation kernel, the crypto layer, and the PBFT target each carry a
profiling-guided fast path (handle-free event scheduling, memoized MAC
tags, shared benign baselines, deployment templates). Every fast path is
**behaviour-preserving**: for any seed it produces bit-identical traces,
impacts, and campaign trajectories to the straightforward implementation
(``tests/perf/test_trace_equivalence.py`` proves it on every run).

The toggle exists for two reasons:

1. **Equivalence.** The reference implementation is what the
   ``tests/perf`` and ``tests/snapshot`` sweeps compare every fast path
   against, in the same process.
2. **Bisection.** When a determinism regression appears, flipping
   ``REPRO_UNOPTIMIZED=1`` immediately tells you whether a fast path or
   the protocol logic is to blame.

Components read the toggle at *construction* time (a simulator, keystore,
or target samples it once and never re-checks), so flipping it mid-run
never produces a half-optimized hybrid; build fresh objects after
:func:`set_enabled`.
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
