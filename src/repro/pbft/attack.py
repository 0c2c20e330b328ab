"""Attack activation for PBFT deployments.

A :class:`PbftAttack` bundles everything a scenario injects into a benign
deployment — malicious client behaviour, malicious replica behaviours,
network fault stages, and library fault plans. Every deployment is
constructed fully benign (malicious designates run as correct nodes), and
the attack is applied by a single *priority* activation event at
``attack_start_us`` (see :meth:`repro.sim.simulator.Simulator.schedule_priority`).
At ``attack_start_us=0`` that event runs before every ordinary event, so the
attack is in force for the whole run.

This is also the injection point the snapshot-and-fork executor keys on: the
simulation up to the activation event is a pure function of (config, client
population, seed) — independent of every attack parameter — so its state can
be captured once and forked for every scenario that shares the prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..injection import FaultPlan
from ..sim import NetworkFault
from .behaviors import CORRECT_CLIENT, ClientBehavior, ReplicaBehavior


@dataclass(frozen=True)
class PbftAttack:
    """Everything a PBFT scenario injects at its activation point."""

    #: Behaviour installed on every malicious-designate client.
    client_behavior: ClientBehavior = CORRECT_CLIENT
    #: Malicious replica behaviours by replica index.
    replica_behaviors: Dict[int, ReplicaBehavior] = field(default_factory=dict)
    #: Network fault stages added to the pipeline at activation.
    network_faults: Tuple[NetworkFault, ...] = ()
    #: Library fault plans by node name, installed *relative* to the calls
    #: each node already made during the benign prefix.
    injection_plans: Dict[str, Tuple[FaultPlan, ...]] = field(default_factory=dict)


__all__ = ["PbftAttack"]
