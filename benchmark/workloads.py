"""The four campaign workloads and the loop that measures one of them.

A workload is a pinned list of campaigns. One *round* is what an operator
does for one campaign: build the target and warm its caches from cold
(``setup_s``), then call ``run_campaign`` (the timed section). Rounds run
one at a time — a closed loop — and each end-to-end figure is the median
over the rounds of a run.

The library is driven through its public API only, with one exception: the
process-wide benign-baseline memo is cleared before every set-up, so that
set-up is cold in every round and not just in the first.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import (
    AvdExploration,
    CampaignSpec,
    HybridExploration,
    load_checkpoint,
    restore_controller,
    run_campaign,
    snapshot,
)
from repro.pbft import PbftConfig
from repro.plugins import (
    AttackTimingPlugin,
    ClientCountPlugin,
    MacCorruptionPlugin,
    PrimaryBehaviorPlugin,
)
from repro.targets import PbftTarget, pbft_target
from repro.telemetry import (
    CampaignView,
    FailureClassified,
    ImpactAbsorbed,
    JsonlSink,
    TelemetryBus,
    attribution_to_dict,
    read_events,
)

from . import trace as tracing
from . import verify

#: Added to a pinned campaign seed each time the seed list wraps around.
SEED_STRIDE = 1009

#: Batch size shared by ``paper_serial`` and ``paper_pool``: the trajectory
#: is a function of ``(seed, batch_size)``, so the two must agree on it.
PAPER_BATCH = 8


def discovery_config():
    """The sub-second PBFT scale of the discovery race.

    Copied from ``repro.bench._discovery_config``: the same ratios as
    ``campaign_scale`` (view-change timer = 10x the client retransmission
    timeout), shrunk so a scenario costs milliseconds.
    """
    return PbftConfig(
        view_change_timer_us=80_000,
        client_retransmit_us=8_000,
        client_retransmit_max_us=64_000,
        batch_interval_us=1_000,
        checkpoint_interval=16,
        watermark_window=64,
        warmup_us=50_000,
        measurement_us=300_000,
    )


def _race_space(small: bool):
    plugins = [MacCorruptionPlugin(), PrimaryBehaviorPlugin(), ClientCountPlugin(4, 8, 2)]
    return plugins, discovery_config()


def _paper_space(small: bool):
    plugins = [MacCorruptionPlugin(), ClientCountPlugin(10, 10 if small else 30, 10)]
    return plugins, PbftConfig.campaign_scale()


def _fork_space(small: bool):
    # One client count: a fork's cost follows the payload size and a
    # suffix's follows the client count, so mixing sizes would tie the
    # workload's cost to where each seed's search happens to converge.
    plugins = [
        MacCorruptionPlugin(),
        ClientCountPlugin(10, 10, 10),
        AttackTimingPlugin((60, 80)),
    ]
    return plugins, PbftConfig.campaign_scale()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``small`` (the self-test) -> (plugins, PbftConfig).
    space: Callable[[bool], Tuple[list, object]]
    #: Scenarios per campaign.
    budget: int
    #: Pinned campaign seeds; the core of a run is one round per seed.
    seeds: Tuple[int, ...]
    hybrid: bool = False
    batch_size: Optional[int] = None
    pool: bool = False
    #: JSONL telemetry stream plus a checkpoint every 25 tests.
    stream: bool = False
    #: What "found" means for time-to-find (see verify.CRITERIA).
    criteria: Tuple[str, ...] = ("collapse",)

    def campaign_seed(self, round_index: int, seed: int) -> int:
        wraps, position = divmod(round_index, len(self.seeds))
        return self.seeds[position] + SEED_STRIDE * wraps + seed


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="race_small",
            why=(
                "cheap scenarios with telemetry and checkpoints on: the search loop's "
                "share of a test is largest here, and it yields time-to-find"
            ),
            space=_race_space,
            budget=120,
            seeds=(17, 123, 1, 2, 3, 4),
            hybrid=True,
            stream=True,
            criteria=("bigmac", "quiet_slow_primary"),
        ),
        Workload(
            name="paper_serial",
            why=(
                "the paper's MAC x client-count campaign in one process: nearly all "
                "sim+pbft+crypto, so kernel work shows here and harness work does not"
            ),
            space=_paper_space,
            budget=16,
            seeds=(0, 1),
            batch_size=PAPER_BATCH,
        ),
        Workload(
            name="paper_pool",
            why=(
                "paper_serial's trajectories on the process pool: pool start, target "
                "pickling and result transfer are the only difference"
            ),
            space=_paper_space,
            budget=16,
            seeds=(0, 1),
            batch_size=PAPER_BATCH,
            pool=True,
        ),
        Workload(
            name="timed_fork",
            why=(
                "timed attacks served by snapshot forks: restore replaces build, "
                "captures land in setup_s and forks in the timed section"
            ),
            space=_fork_space,
            budget=48,
            seeds=(0, 1, 2, 3),
        ),
    )
}

#: (name, unit, better) of every metric a ``--trace 0`` run reports.
E2E_METRICS = (
    ("events_per_s", "1/s", "higher"),
    ("cpu_us_per_event", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: (name, unit, better) of every metric a ``--trace 1`` run reports.
LAYER_METRICS = (
    ("sim.run_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.msgs_delivered", "count", "lower"),
    ("pbft.build_s", "s", "lower"),
    ("pbft.builds", "count", "lower"),
    ("pbft.collect_s", "s", "lower"),
    ("crypto.mac_probe_ops_per_s", "1/s", "higher"),
    ("targets.execute_s", "s", "lower"),
    ("targets.spec_build_s", "s", "lower"),
    ("targets.impact_s", "s", "lower"),
    ("targets.baseline_s", "s", "lower"),
    ("targets.features_s", "s", "lower"),
    ("snapshot.fork_s", "s", "lower"),
    ("snapshot.forks", "count", "higher"),
    ("snapshot.fork_ms_p50", "ms", "lower"),
    ("snapshot.payload_kb_mean", "KB", "lower"),
    ("snapshot.capture_s", "s", "lower"),
    ("snapshot.captures", "count", "lower"),
    ("snapshot.hit_ratio", "ratio", "higher"),
    ("snapshot.evictions", "count", "lower"),
    ("executor.scenario_ms_p50", "ms", "lower"),
    ("executor.scenario_ms_tail", "ms", "lower"),
    ("executor.tail_percentile", "%", "higher"),
    ("executor.self_s", "s", "lower"),
    ("executor.retries", "count", "lower"),
    ("controller.generate_s", "s", "lower"),
    ("controller.generated", "count", "lower"),
    ("controller.self_s", "s", "lower"),
    ("coverage.extract_s", "s", "lower"),
    ("coverage.signature_s", "s", "lower"),
    ("coverage.observe_s", "s", "lower"),
    ("coverage.novel_ratio", "ratio", "higher"),
    ("parallel.batches", "count", "lower"),
    ("parallel.batch_ms_p50", "ms", "lower"),
    ("parallel.wait_s", "s", "lower"),
    ("parallel.startup_s", "s", "lower"),
    ("parallel.worker_utilization", "ratio", "higher"),
    ("parallel.target_blob_kb", "KB", "lower"),
    ("parallel.result_kb_mean", "KB", "lower"),
    ("parallel.result_pickle_us_mean", "us", "lower"),
    ("parallel.pool_rebuilds", "count", "lower"),
    ("parallel.fallback_serial", "count", "lower"),
    ("persistence.checkpoint_s", "s", "lower"),
    ("persistence.checkpoints", "count", "lower"),
    ("persistence.checkpoint_ms_last", "ms", "lower"),
    ("persistence.checkpoint_kb_last", "KB", "lower"),
    ("persistence.resume_s", "s", "lower"),
    ("telemetry.publish_s", "s", "lower"),
    ("telemetry.events", "count", "lower"),
    ("telemetry.stream_kb", "KB", "lower"),
    ("telemetry.view_fold_events_per_s", "1/s", "higher"),
    ("search.time_to_find_s", "s", "lower"),
    ("search.tests_to_find", "tests", "lower"),
    ("campaign.tests_per_s", "1/s", "higher"),
    ("campaign.events_per_test", "count", "lower"),
    ("host.calibration_loops_per_s", "1/s", "higher"),
    ("trace.coverage_share", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)


def pool_workers() -> int:
    """Scenarios ``paper_pool`` keeps in flight: one per core, 2 to 4.

    Never 1: with one worker the pool backend runs in-process and the
    workload would stop measuring what it exists to measure.
    """
    return max(2, min(len(os.sched_getaffinity(0)), 4))


@contextlib.contextmanager
def working_directory():
    """Enter a fresh directory under ``benchmark/.work``; remove it on exit.

    Telemetry streams and checkpoints are written here under relative
    names, because ``CheckpointWritten`` events record the path they were
    given and the stream's bytes are part of the outcome checksum.
    """
    workdir = Path(__file__).resolve().parent / ".work" / str(os.getpid())
    workdir.mkdir(parents=True)
    origin = os.getcwd()
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(origin)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # leave the checkout clean once the last run is done


class AbsorbClock:
    """Telemetry sink that clocks when each test's result was absorbed."""

    def __init__(self) -> None:
        self.absorbed_at: Dict[int, float] = {}

    def emit(self, seq: int, event: object) -> None:
        if isinstance(event, (ImpactAbsorbed, FailureClassified)):
            self.absorbed_at[event.test_index] = time.perf_counter()

    def close(self) -> None:
        """Nothing to release."""


@dataclass
class Round:
    """What one round measured, and what checking its outputs found."""

    campaign_seed: int
    tests: int
    setup_s: float
    wall_s: float
    cpu_s: float
    child_cpu_s: float
    events: int
    failures: int
    retries: int
    find_tests: int
    find_s: float
    digest: str
    problems: List[str]
    setup_spans: Optional[tracing.Harvest] = None
    timed_spans: Optional[tracing.Harvest] = None
    #: Post-run probe readings and cache statistics (traced runs only).
    probes: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """A round whose outputs did not check out fails every scenario."""
        return self.tests if self.problems else self.failures


def _cpu_s() -> Tuple[float, float]:
    """(this process, reaped children) user+sys CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def run_round(
    workload: Workload,
    round_index: int,
    seed: int,
    small: bool,
    budget: int,
    installed: tracing.Instrumentation,
) -> Round:
    meter, tracer = installed.meter, installed.tracer
    campaign_seed = workload.campaign_seed(round_index, seed)
    plugins, config = workload.space(small)

    snapshot.reset_cache()
    pbft_target._BASELINE_CACHE.clear()
    gc.collect()
    started = time.perf_counter()
    target = PbftTarget(plugins, config=config)
    target.warm_caches(campaign_seed=campaign_seed)
    setup_s = time.perf_counter() - started
    setup_spans = tracer.harvest() if tracer is not None else None

    if workload.hybrid:
        strategy = HybridExploration(target, plugins, seed=campaign_seed, novelty_weight=0.4)
    else:
        strategy = AvdExploration(target, plugins, seed=campaign_seed)
    clock = AbsorbClock()
    stream_path = f"round{round_index}.jsonl" if workload.stream else None
    checkpoint_path = f"round{round_index}.ckpt" if workload.stream else None
    sinks = [clock] if stream_path is None else [JsonlSink(stream_path), clock]
    bus = TelemetryBus(sinks)
    spec = CampaignSpec(
        budget=budget,
        workers=pool_workers() if workload.pool else 1,
        batch_size=workload.batch_size,
        checkpoint_path=checkpoint_path,
        checkpoint_every=25,
        telemetry=bus,
    )

    events_before = meter.read()
    cpu_before = _cpu_s()
    started = time.perf_counter()
    try:
        campaign = run_campaign(strategy, spec)
        wall_s = time.perf_counter() - started
    finally:
        bus.close()
    cpu_after = _cpu_s()
    events = meter.read() - events_before
    results = campaign.results
    timed_spans = tracer.harvest() if tracer is not None else None

    find_tests, find_s = 0, 0.0
    for criterion in workload.criteria:
        found = verify.tests_to(results, verify.CRITERIA[criterion])
        find_tests += found if found is not None else budget
        # A miss costs the campaign's whole wall, as it costs the whole budget.
        find_s += clock.absorbed_at[found - 1] - started if found is not None else wall_s

    if tracer is not None:
        tracer.active = False  # checks and probes are outside the timed section
    try:
        stream_bytes = b""
        problems = verify.check_results(results, budget)
        if stream_path is not None:
            problems += verify.check_stream(stream_path)
            with open(stream_path, "rb") as handle:
                stream_bytes = handle.read()
        problems += verify.check_reexecution(target, campaign_seed, results)
        probes: Dict[str, float] = {}
        if tracer is not None:
            _, hits, misses, evictions = snapshot.cache().stats()
            probes.update(snapshot_hits=hits, snapshot_lookups=hits + misses, evictions=evictions)
            if workload.stream:
                probes.update(_stream_probes(stream_path, checkpoint_path, target, plugins))
            if workload.pool:
                probes.update(_transfer_probes(target, results))
    finally:
        if tracer is not None:
            tracer.active = True

    child_cpu_s = cpu_after[1] - cpu_before[1]
    return Round(
        campaign_seed=campaign_seed,
        tests=len(results),
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_after[0] - cpu_before[0] + child_cpu_s,
        child_cpu_s=child_cpu_s,
        events=events,
        failures=sum(1 for result in results if result.failed),
        retries=sum(getattr(result, "attempts", 1) - 1 for result in results),
        find_tests=find_tests,
        find_s=find_s,
        digest=verify.trajectory_digest(results, stream_bytes),
        problems=problems,
        setup_spans=setup_spans,
        timed_spans=timed_spans,
        probes=probes,
    )


def _stream_probes(stream_path: str, checkpoint_path: str, target, plugins) -> Dict[str, float]:
    """Read side of telemetry and persistence, over what the round wrote."""
    started = time.perf_counter()
    view = CampaignView()
    for record in read_events(stream_path):
        view.fold(record)
    attribution_to_dict(view.snapshot())
    fold_s = time.perf_counter() - started

    started = time.perf_counter()
    restore_controller(load_checkpoint(checkpoint_path), target, plugins)
    resume_s = time.perf_counter() - started
    return {
        "stream_kb": os.path.getsize(stream_path) / 1024.0,
        "fold_events": view.events_folded,
        "fold_s": fold_s,
        "resume_s": resume_s,
    }


def _transfer_probes(target, results: Sequence) -> Dict[str, float]:
    """What crossing the process boundary costs: target out, results back."""
    blob_kb = len(pickle.dumps(target)) / 1024.0
    result_bytes = 0
    started = time.perf_counter()
    for result in results:
        blob = pickle.dumps(result)
        pickle.loads(blob)
        result_bytes += len(blob)
    pickle_s = time.perf_counter() - started
    return {
        "target_blob_kb": blob_kb,
        "result_kb": result_bytes / 1024.0,
        "result_pickle_s": pickle_s,
        "results_pickled": len(results),
    }


# ---------------------------------------------------------------------------
# one run: rounds -> metrics
# ---------------------------------------------------------------------------
def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    small: bool = False,
) -> Dict[str, object]:
    """Run one workload and return its record.

    The core — one round per pinned seed — always runs, and every exact
    figure (counts, checksum, tests-to-find) covers the core only, so it
    repeats bit for bit. An untraced run then keeps adding rounds while one
    more fits into ``seconds``; those only add samples to the medians.
    ``small`` is the self-test's scale.
    """
    budget = 6 if small else workload.budget
    core = 1 if small else len(workload.seeds)
    meter = tracing.WorkMeter()
    tracer = tracing.Tracer() if trace else None
    calibration = [tracing.calibration_loops_per_s()]
    installed = tracing.install(meter, tracer)
    rounds: List[Round] = []
    try:
        while True:
            timed = sum(r.wall_s for r in rounds)
            if len(rounds) >= core and (
                trace or timed + timed / len(rounds) > seconds
            ):
                break
            rounds.append(run_round(workload, len(rounds), seed, small, budget, installed))
            calibration.append(tracing.calibration_loops_per_s())
    finally:
        installed.uninstall()

    core_rounds = rounds[:core]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workload.pool else 0
    core_tests = sum(r.tests for r in core_rounds)
    core_wall = sum(r.wall_s for r in core_rounds)
    core_events = sum(r.events for r in core_rounds)
    tests_to_find = sum(r.find_tests for r in core_rounds)
    record: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "trace": bool(trace),
        "rounds": len(rounds),
        "core_rounds": core,
        "attempted": sum(r.tests for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": [problem for r in rounds for problem in r.problems],
        "outcome_checksum": verify.outcome_checksum([r.digest for r in core_rounds]),
        "round_stats": [
            {"campaign_seed": r.campaign_seed, "tests": r.tests, "events": r.events,
             "wall_s": r.wall_s, "cpu_s": r.cpu_s, "setup_s": r.setup_s}
            for r in rounds
        ],
        "exact": {
            "sim.events": core_events,
            "search.tests_to_find": tests_to_find,
        },
        "extras": {
            "tests_per_s": _metric(core_tests / core_wall, "1/s"),
            "time_to_find_s": _metric(sum(r.find_s for r in core_rounds), "s"),
            "tests_to_find": _metric(tests_to_find, "tests"),
            "failed_share": _metric(
                sum(r.failed for r in rounds) / sum(r.tests for r in rounds), "ratio"
            ),
            "host.calibration_loops_per_s": _metric(statistics.median(calibration), "1/s"),
        },
        "e2e": {
            "events_per_s": _metric(statistics.median(r.events / r.wall_s for r in rounds), "1/s"),
            "cpu_us_per_event": _metric(
                statistics.median(r.cpu_s / r.events * 1e6 for r in rounds), "us"
            ),
            "peak_rss_mb": _metric((own + children) / 1024.0, "MB"),
            "setup_s": _metric(statistics.median(r.setup_s for r in rounds), "s"),
        },
    }
    if trace:
        record["layers"] = _layer_metrics(workload, core_rounds, installed, calibration)
        record["exact"].update(
            {
                name: record["layers"][name]["value"]
                for name in ("snapshot.forks", "telemetry.events", "pbft.builds")
            }
        )
    return record


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _percentile(samples: Sequence[float], percent: int) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, len(ordered) * percent // 100)]


def _tail_percentile(samples: Sequence[float]) -> int:
    """The highest of p95/p90/p75/p50 with at least ten samples beyond it."""
    for percent in (95, 90, 75):
        if len(samples) * (100 - percent) // 100 >= 10:
            return percent
    return 50


def _layer_metrics(
    workload: Workload,
    rounds: Sequence[Round],
    installed: tracing.Instrumentation,
    calibration: Sequence[float],
) -> Dict[str, Dict[str, object]]:
    timed = rounds[0].timed_spans
    setup = rounds[0].setup_spans
    for r in rounds[1:]:
        timed = timed.merged(r.timed_spans)
        setup = setup.merged(r.setup_spans)
    probes: Dict[str, float] = {}
    for r in rounds:
        for name, value in r.probes.items():
            probes[name] = probes.get(name, 0.0) + value

    wall = sum(r.wall_s for r in rounds)
    tests = sum(r.tests for r in rounds)
    events = sum(r.events for r in rounds)
    scenario = timed.samples["executor.scenario"]
    tail = _tail_percentile(scenario)
    batches = timed.samples["parallel.batch"]
    # Pool start shows as a campaign's first batch running longer than its
    # median batch; summed over the rounds' campaigns.
    startup_s = 0.0
    for r in rounds:
        own_batches = r.timed_spans.samples["parallel.batch"]
        if own_batches:
            startup_s += max(0.0, own_batches[0] - statistics.median(own_batches))
    forks = timed.count("snapshot.fork")
    observed = timed.count("coverage.observe")
    lookups = probes.get("snapshot_lookups", 0.0)
    pickled = probes.get("results_pickled", 0.0)
    workers = pool_workers() if workload.pool else 1

    values = {
        "sim.run_s": timed.self_s("sim.run"),
        "sim.events": events,
        "sim.events_per_s": events / timed.self_s("sim.run"),
        "sim.msgs_delivered": timed.count("sim.msgs_delivered"),
        "pbft.build_s": timed.self_s("pbft.build"),
        "pbft.builds": timed.count("pbft.build"),
        "pbft.collect_s": timed.self_s("pbft.run"),
        "crypto.mac_probe_ops_per_s": tracing.mac_probe_ops_per_s(),
        "targets.execute_s": timed.self_s("targets.execute"),
        "targets.spec_build_s": timed.self_s("targets.spec_build"),
        "targets.impact_s": timed.self_s("targets.impact"),
        "targets.baseline_s": timed.self_s("targets.baseline"),
        "targets.features_s": timed.self_s("targets.features"),
        "snapshot.fork_s": timed.self_s("snapshot.fork"),
        "snapshot.forks": forks,
        "snapshot.fork_ms_p50": _percentile(timed.samples["snapshot.fork"], 50) * 1e3,
        "snapshot.payload_kb_mean": (
            timed.count("snapshot.fork_bytes") / forks / 1024.0 if forks else 0.0
        ),
        "snapshot.capture_s": setup.self_s("snapshot.capture") + timed.self_s("snapshot.capture"),
        "snapshot.captures": setup.count("snapshot.capture") + timed.count("snapshot.capture"),
        "snapshot.hit_ratio": probes.get("snapshot_hits", 0.0) / lookups if lookups else 0.0,
        "snapshot.evictions": probes.get("evictions", 0.0),
        "executor.scenario_ms_p50": _percentile(scenario, 50) * 1e3,
        "executor.scenario_ms_tail": _percentile(scenario, tail) * 1e3,
        "executor.tail_percentile": tail,
        "executor.self_s": timed.self_s("executor.scenario"),
        "executor.retries": sum(r.retries for r in rounds),
        "controller.generate_s": timed.self_s("controller.generate"),
        "controller.generated": timed.count("controller.generate"),
        "controller.self_s": timed.self_s("controller.run"),
        "coverage.extract_s": timed.self_s("coverage.extract"),
        "coverage.signature_s": timed.self_s("coverage.signature"),
        "coverage.observe_s": timed.self_s("coverage.observe"),
        "coverage.novel_ratio": timed.count("coverage.novel") / observed if observed else 0.0,
        "parallel.batches": len(batches),
        "parallel.batch_ms_p50": _percentile(batches, 50) * 1e3,
        "parallel.wait_s": timed.self_s("parallel.batch"),
        "parallel.startup_s": startup_s,
        "parallel.worker_utilization": (
            sum(r.child_cpu_s for r in rounds) / (workers * wall) if workload.pool else 0.0
        ),
        "parallel.target_blob_kb": probes.get("target_blob_kb", 0.0) / len(rounds),
        "parallel.result_kb_mean": probes.get("result_kb", 0.0) / pickled if pickled else 0.0,
        "parallel.result_pickle_us_mean": (
            probes.get("result_pickle_s", 0.0) / pickled * 1e6 if pickled else 0.0
        ),
        "parallel.pool_rebuilds": sum(state[0] for state in installed.pool_states.values()),
        "parallel.fallback_serial": sum(state[1] for state in installed.pool_states.values()),
        "persistence.checkpoint_s": timed.self_s("persistence.checkpoint"),
        "persistence.checkpoints": timed.count("persistence.checkpoint"),
        "persistence.checkpoint_ms_last": timed.gauges.get("checkpoint_ms_last", 0.0),
        "persistence.checkpoint_kb_last": timed.gauges.get("checkpoint_kb_last", 0.0),
        "persistence.resume_s": probes.get("resume_s", 0.0) / len(rounds),
        "telemetry.publish_s": timed.self_s("telemetry.publish"),
        "telemetry.events": timed.count("telemetry.publish"),
        "telemetry.stream_kb": probes.get("stream_kb", 0.0),
        "telemetry.view_fold_events_per_s": (
            probes["fold_events"] / probes["fold_s"] if probes.get("fold_s") else 0.0
        ),
        "search.time_to_find_s": sum(r.find_s for r in rounds),
        "search.tests_to_find": sum(r.find_tests for r in rounds),
        "campaign.tests_per_s": tests / wall,
        "campaign.events_per_test": events / tests,
        "host.calibration_loops_per_s": statistics.median(calibration),
        "trace.coverage_share": timed.owner_self_s() / wall,
        "trace.overhead_share": timed.spans_closed * tracing.span_cost_s() / wall,
    }
    return {name: _metric(values[name], unit) for name, unit, _ in LAYER_METRICS}
