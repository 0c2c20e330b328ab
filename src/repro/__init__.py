"""repro — Automated Vulnerability Discovery in Distributed Systems.

A from-scratch reproduction of Banabic, Candea & Guerraoui (HotDep/DSN
2011): the AVD platform that synthesizes malicious nodes in a distributed
system and searches, feedback-driven, for the parameter combinations that
damage the correct nodes the most.

Packages
--------
``repro.core``      — AVD itself: hyperspace, Algorithm 1 controller,
                      plugins API, exploration strategies, power model.
``repro.plugins``   — concrete tool plugins (MAC corruption, reordering,
                      library fault injection, message synthesis, ...).
``repro.targets``   — system-under-test adapters (PBFT, DHT).
``repro.pbft``      — a full PBFT implementation, including the shared
                      view-change-timer bug the paper discovered.
``repro.dht``       — a Kademlia-style DHT with a routing-poisoning attacker
                      (the BitTorrent redirection-DoS motivating example).
``repro.sim``       — deterministic discrete-event simulation kernel.
``repro.crypto``    — simulated MACs/authenticators (the attack surface).
``repro.injection`` — LFI-style library-call fault injection substrate.
``repro.analysis``  — hyperspace-structure and convergence analysis.

Quickstart
----------
>>> from repro import (
...     AvdExploration, CampaignSpec, MacCorruptionPlugin, PbftTarget, run_campaign,
... )
>>> plugin = MacCorruptionPlugin()
>>> target = PbftTarget([plugin])
>>> campaign = run_campaign(AvdExploration(target, [plugin], seed=1), CampaignSpec(budget=25))
>>> campaign.best.impact > 0  # the strongest attack found
True
"""

from .core import (
    AccessLevel,
    AttackerPower,
    AvdExploration,
    CampaignResult,
    CampaignSpec,
    ControlLevel,
    ControllerConfig,
    ExhaustiveExploration,
    GeneticExploration,
    Hyperspace,
    POWER_LADDER,
    ParallelScenarioExecutor,
    Quarantine,
    RandomExploration,
    ScenarioFailure,
    ScenarioResult,
    TestController,
    TestScenario,
    ToolPlugin,
    available_plugins,
    compare_campaigns,
    estimate_difficulty,
    load_campaign,
    load_checkpoint,
    restore_controller,
    run_campaign,
    save_campaign,
    save_checkpoint,
)
from .dht import DhtAttack, DhtConfig, DhtDeployment, run_dht_deployment
from .pbft import (
    ClientBehavior,
    DefenseConfig,
    PbftAttack,
    PbftConfig,
    PbftDeployment,
    PbftRunResult,
    ReplicaBehavior,
    SlowPrimaryPolicy,
    run_deployment,
)
from .plugins import (
    ClientCountPlugin,
    LibraryFaultPlugin,
    MacCorruptionPlugin,
    MessageReorderPlugin,
    MessageSynthesisPlugin,
    NetworkFaultPlugin,
    PrimaryBehaviorPlugin,
)
from .targets import DhtTarget, PbftTarget, RoutingPoisonPlugin

__version__ = "1.0.0"

__all__ = [
    "AccessLevel",
    "AttackerPower",
    "AvdExploration",
    "CampaignResult",
    "CampaignSpec",
    "ClientBehavior",
    "ClientCountPlugin",
    "ControlLevel",
    "ControllerConfig",
    "DefenseConfig",
    "DhtAttack",
    "DhtConfig",
    "DhtDeployment",
    "DhtTarget",
    "ExhaustiveExploration",
    "GeneticExploration",
    "Hyperspace",
    "LibraryFaultPlugin",
    "MacCorruptionPlugin",
    "MessageReorderPlugin",
    "MessageSynthesisPlugin",
    "NetworkFaultPlugin",
    "POWER_LADDER",
    "ParallelScenarioExecutor",
    "PbftAttack",
    "PbftConfig",
    "PbftDeployment",
    "PbftRunResult",
    "PbftTarget",
    "PrimaryBehaviorPlugin",
    "Quarantine",
    "RandomExploration",
    "ReplicaBehavior",
    "RoutingPoisonPlugin",
    "ScenarioFailure",
    "ScenarioResult",
    "SlowPrimaryPolicy",
    "TestController",
    "TestScenario",
    "ToolPlugin",
    "available_plugins",
    "compare_campaigns",
    "estimate_difficulty",
    "load_campaign",
    "load_checkpoint",
    "restore_controller",
    "run_campaign",
    "save_campaign",
    "save_checkpoint",
    "run_deployment",
    "run_dht_deployment",
    "__version__",
]
