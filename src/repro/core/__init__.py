"""AVD core: the paper's primary contribution.

The Test Controller (:mod:`repro.core.controller`) explores the hyperspace
of test scenarios (:mod:`repro.core.hyperspace`) through tool plugins
(:mod:`repro.core.plugin`), guided by measured impact on the correct nodes.
Baseline strategies and the attacker power model live alongside.
"""

from .backends import WorkStealingScheduler
from .campaign import CampaignResult, compare_campaigns, run_campaign
from .controller import ControllerConfig, TestController
from .coverage import CoverageMap, extract_features, signature_of
from .executor import ScenarioExecutor, publish_executed
from .failures import Quarantine, ScenarioFailure
from .exploration import (
    AnnealingExploration,
    AvdExploration,
    ExhaustiveExploration,
    ExplorationStrategy,
    GeneticExploration,
    HybridExploration,
    RandomExploration,
)
from .hyperspace import (
    ChoiceDimension,
    Coords,
    CoordsKey,
    Dimension,
    GrayBitmaskDimension,
    Hyperspace,
    IntRangeDimension,
    coords_key,
)
from .parallel import ParallelScenarioExecutor, WorkerStartError, resolve_workers
from .persistence import (
    load_campaign,
    load_checkpoint,
    restore_controller,
    save_campaign,
    save_checkpoint,
)
from .plugin import ToolPlugin
from .power import (
    AccessLevel,
    AttackerPower,
    ControlLevel,
    DifficultyEstimate,
    POWER_LADDER,
    available_plugins,
    estimate_difficulty,
)
from .report import describe_best, format_table, heatmap, sparkline
from .sampling import PluginSampler, PluginStats, TopSet, weighted_choice
from .scenario import ScenarioResult, TestScenario
from .snapshot import (
    SimSnapshot,
    SnapshotCache,
    SnapshotError,
    SnapshotRestoreError,
)
from . import snapshot
from .spec import CampaignSpec
from .target import Target, verify_target
from .worker import WorkerServer, parse_host

__all__ = [
    "AccessLevel",
    "AnnealingExploration",
    "AttackerPower",
    "AvdExploration",
    "CampaignResult",
    "CampaignSpec",
    "ChoiceDimension",
    "ControlLevel",
    "ControllerConfig",
    "Coords",
    "CoordsKey",
    "CoverageMap",
    "DifficultyEstimate",
    "Dimension",
    "ExhaustiveExploration",
    "ExplorationStrategy",
    "GeneticExploration",
    "GrayBitmaskDimension",
    "HybridExploration",
    "Hyperspace",
    "IntRangeDimension",
    "POWER_LADDER",
    "ParallelScenarioExecutor",
    "PluginSampler",
    "PluginStats",
    "Quarantine",
    "RandomExploration",
    "ScenarioExecutor",
    "ScenarioFailure",
    "ScenarioResult",
    "SimSnapshot",
    "SnapshotCache",
    "SnapshotError",
    "SnapshotRestoreError",
    "snapshot",
    "Target",
    "TestController",
    "TestScenario",
    "ToolPlugin",
    "TopSet",
    "WorkStealingScheduler",
    "WorkerServer",
    "WorkerStartError",
    "available_plugins",
    "compare_campaigns",
    "coords_key",
    "describe_best",
    "estimate_difficulty",
    "extract_features",
    "format_table",
    "heatmap",
    "load_campaign",
    "load_checkpoint",
    "parse_host",
    "publish_executed",
    "resolve_workers",
    "restore_controller",
    "save_campaign",
    "save_checkpoint",
    "signature_of",
    "sparkline",
    "verify_target",
    "weighted_choice",
]
