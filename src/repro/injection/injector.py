"""LFI-style call-site interception.

Simulated nodes route their "library calls" (network send, memory
allocation, ...) through a :class:`LibraryRuntime`. The runtime counts calls
per function and consults the installed :class:`FaultPlan` objects; when a
plan triggers, the call raises :class:`InjectedFault` instead of succeeding.
Node code is expected to contain recovery paths for these errors — exactly
the paths the paper's fault-injection tool class is designed to exercise.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .profiles import FaultPlan, validate_plan


class InjectedFault(Exception):
    """A library call failed because a fault plan triggered."""

    def __init__(self, function: str, error: str, call_number: int) -> None:
        super().__init__(f"{function} failed with {error} (call #{call_number})")
        self.function = function
        self.error = error
        self.call_number = call_number


class LibraryRuntime:
    """Per-node library-call shim with fault injection.

    Usage from node code::

        self.lib.call("send")       # raises InjectedFault if a plan triggers
        count = self.lib.calls_made("send")
    """

    def __init__(self, plans: Optional[Iterable[FaultPlan]] = None, validate: bool = True) -> None:
        self._plans: Dict[str, List[FaultPlan]] = {}
        self._counts: Dict[str, int] = {}
        self.injected: List[InjectedFault] = []
        for plan in plans or ():
            self.install(plan, validate=validate)

    def install(self, plan: FaultPlan, validate: bool = True) -> None:
        """Install a fault plan (optionally validated against the profiles)."""
        if validate:
            validate_plan(plan)
        self._plans.setdefault(plan.function, []).append(plan)

    def install_relative(self, plan: FaultPlan, validate: bool = True) -> None:
        """Install a plan whose call numbers count from *now*, not from zero.

        Used by attack activation: the node may already have made library
        calls during the benign prefix, so the plan's 1-based ``call_number``
        is shifted by the calls made so far (none at t=0). Installing at
        activation therefore triggers on the same post-activation call in a
        forked run and a from-scratch run.
        """
        base = self._counts.get(plan.function, 0)
        if base:
            plan = FaultPlan(plan.function, plan.error, plan.call_number + base, plan.repeat)
        self.install(plan, validate=validate)

    def clear(self) -> None:
        """Remove all plans and reset call counters."""
        self._plans.clear()
        self._counts.clear()
        self.injected.clear()

    def calls_made(self, function: str) -> int:
        """How many times ``function`` has been called on this node."""
        return self._counts.get(function, 0)

    def call(self, function: str) -> int:
        """Record one call to ``function``; raise if a fault plan triggers.

        Returns the 1-based call number on success so callers can log it.
        """
        number = self._counts.get(function, 0) + 1
        self._counts[function] = number
        for plan in self._plans.get(function, ()):
            if plan.triggers(number):
                fault = InjectedFault(function, plan.error, number)
                self.injected.append(fault)
                raise fault
        return number

    def try_call(self, function: str) -> Optional[InjectedFault]:
        """Like :meth:`call` but returns the fault instead of raising.

        Convenient for hot paths where exceptions would dominate runtime
        (this is also why it does not delegate to :meth:`call`: the common
        no-plans case is one counter bump and one dict probe).
        Returns ``None`` on success.
        """
        counts = self._counts
        number = counts.get(function, 0) + 1
        counts[function] = number
        if self._plans:
            return self.check(function, number)
        return None

    def check(self, function: str, number: int) -> Optional[InjectedFault]:
        """Consult the plans for call ``number`` without counting it.

        Callers that inline the counter bump (the node send path) use this
        to keep the trigger/record semantics in one place.
        """
        plans = self._plans.get(function)
        if plans:
            for plan in plans:
                if plan.triggers(number):
                    fault = InjectedFault(function, plan.error, number)
                    self.injected.append(fault)
                    return fault
        return None


__all__ = ["InjectedFault", "LibraryRuntime"]
