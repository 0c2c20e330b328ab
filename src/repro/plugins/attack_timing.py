"""Attack-timing plugin: *when* in the run the attack switches on.

Adds an ``attack_start_pct`` dimension — the percentage of the measurement
window that elapses benignly before the scenario's attack activates. Two
reasons to explore it:

1. **Coverage.** Some faults only matter against a warmed-up system (full
   logs, stable view, saturated pipelines); an attack armed at t=0 never
   exercises that state. The paper's AVD explores *what* to inject;
   this dimension explores *when*.
2. **Throughput.** Every scenario that shares an activation point shares a
   benign prefix, which the snapshot-and-fork executor captures once and
   forks per scenario (see :mod:`repro.core.snapshot`) — the later the
   activation, the larger the shared prefix.

Both shipped targets understand the resulting ``spec.attack_start_pct``
field. Every scenario arms its attack with the same single priority event;
without this plugin that event runs at t=0, before every ordinary event, and
nothing is forked.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..core.hyperspace import ChoiceDimension, Dimension
from ..core.plugin import ToolPlugin
from ..core.power import AccessLevel, ControlLevel

ATTACK_START_DIMENSION = "attack_start_pct"

#: Default activation points: late fractions of the measurement window,
#: where the shared benign prefix (and thus the fork saving) is largest.
DEFAULT_START_CHOICES = (50, 60, 70, 80)


class AttackTimingPlugin(ToolPlugin):
    """Controls the activation time of the scenario's attack."""

    name = "attack_timing"
    # Timing an attack needs no more power than mounting it: the attacker
    # simply stays dormant until its chosen moment.
    required_access = AccessLevel.NOTHING
    required_control = ControlLevel.CLIENT

    def __init__(self, start_choices: Sequence[int] = DEFAULT_START_CHOICES) -> None:
        choices = sorted(set(int(choice) for choice in start_choices))
        for choice in choices:
            if not 0 <= choice <= 100:
                raise ValueError(f"attack start must be a percentage in [0, 100]: {choice}")
        self._dimensions = [ChoiceDimension(ATTACK_START_DIMENSION, choices)]

    def dimensions(self) -> Sequence[Dimension]:
        return list(self._dimensions)

    def configure(self, params: Dict[str, object], spec) -> None:
        spec.attack_start_pct = int(params[ATTACK_START_DIMENSION])


__all__ = ["ATTACK_START_DIMENSION", "AttackTimingPlugin", "DEFAULT_START_CHOICES"]
