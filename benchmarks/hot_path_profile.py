"""Where a PBFT event's time goes: self time by function, the cyclic
collector's CPU by generation, and what a round leaves for the collector.

Runs one pinned ``paper_serial`` round — ``AvdExploration`` over MAC
corruption x ``ClientCount(10, 30, 10)`` at ``PbftConfig.campaign_scale()``,
batch 8, in-process, the shape of the repo benchmark's workload — and
profiles its campaign (set-up, the benign baselines, runs before sampling
starts, as the benchmark times it):

- a ``SIGPROF`` sampler attributes each sample of process CPU to the Python
  function executing when it fires (time in C calls lands on their Python
  caller, so ``heappop`` shows inside the run loop);
- ``gc.callbacks`` time every collector pass and count what it freed;
  the objects freed per test are what finished deployments left in
  reference cycles (none, once every deployment is closed where its life
  ends);
- ``ru_maxrss`` gives the process's peak RSS after the round.

This is the layer breakdown a kernel optimization is aimed with; the
benchmark (``benchmark/run.py``) is what measures it. Sampling costs a few
percent of CPU, so the ``us/event`` printed here runs above the
benchmark's ``cpu_us_per_event``.

    PYTHONPATH=src python benchmarks/hot_path_profile.py [--seed 0] [--budget 16]
        [--interval-ms 1] [--top 25] [--json]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import sys
import time
from collections import Counter
from typing import List, Optional

from repro.core import AvdExploration, CampaignSpec, run_campaign
from repro.pbft import PbftConfig
from repro.plugins import ClientCountPlugin, MacCorruptionPlugin
from repro.sim import Simulator
from repro.targets import PbftTarget

#: ``paper_serial``'s batch size: the trajectory is a function of it.
BATCH_SIZE = 8


def _function_name(code) -> str:
    path = code.co_filename.replace("\\", "/")
    if "/repro/" in path:
        path = "repro/" + path.rsplit("/repro/", 1)[1]
    else:
        path = path.rsplit("/", 1)[-1]
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


class CollectorClock:
    """``gc.callbacks`` hook: CPU seconds, passes and objects freed per
    generation."""

    def __init__(self) -> None:
        self.cpu_s = [0.0, 0.0, 0.0]
        self.passes = [0, 0, 0]
        self.freed = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.process_time()
            return
        generation = info["generation"]
        self.cpu_s[generation] += time.process_time() - self._started
        self.passes[generation] += 1
        self.freed[generation] += info["collected"]


def profile_round(seed: int = 0, budget: int = 16, interval_s: float = 0.001) -> dict:
    """Profile one ``paper_serial``-shaped campaign; returns the report."""
    plugins = [MacCorruptionPlugin(), ClientCountPlugin(10, 30, 10)]
    target = PbftTarget(plugins, config=PbftConfig.campaign_scale())
    target.warm_caches()
    strategy = AvdExploration(target, plugins, seed=seed)
    spec = CampaignSpec(budget=budget, workers=1, batch_size=BATCH_SIZE)

    events = [0]
    run = Simulator.run

    def counted_run(simulator, *args, **kwargs):
        executed = run(simulator, *args, **kwargs)
        events[0] += executed
        return executed

    samples: Counter = Counter()

    def sample(signum, frame) -> None:
        samples[frame.f_code if frame is not None else None] += 1

    collector = CollectorClock()
    gc.collect()
    previous_handler = signal.signal(signal.SIGPROF, sample)
    Simulator.run = counted_run
    gc.callbacks.append(collector)
    cpu_before = time.process_time()
    signal.setitimer(signal.ITIMER_PROF, interval_s, interval_s)
    try:
        campaign = run_campaign(strategy, spec)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        cpu_s = time.process_time() - cpu_before
        gc.callbacks.remove(collector)
        Simulator.run = run
        signal.signal(signal.SIGPROF, previous_handler)

    tests = len(campaign.results)
    total = sum(samples.values())
    by_function: Counter = Counter()
    for code, count in samples.items():
        by_function["<native>" if code is None else _function_name(code)] += count
    return {
        "seed": seed,
        "tests": tests,
        "events": events[0],
        "cpu_s": cpu_s,
        "us_per_event": 1e6 * cpu_s / events[0] if events[0] else 0.0,
        "samples": total,
        "self_share": {
            name: count / total for name, count in by_function.most_common()
        } if total else {},
        "collector": {
            "cpu_s": collector.cpu_s,
            "passes": collector.passes,
            "freed": collector.freed,
            "freed_per_test": sum(collector.freed) / tests if tests else 0.0,
        },
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def format_report(report: dict, top: int) -> str:
    lines = [
        f"paper_serial round, seed {report['seed']}: {report['tests']} tests, "
        f"{report['events']:,} events, {report['cpu_s']:.2f} s CPU, "
        f"{report['us_per_event']:.2f} us/event, {report['samples']:,} samples",
        "",
        f"self time by function (top {top}):",
        "   share  function",
    ]
    for name, share in list(report["self_share"].items())[:top]:
        lines.append(f"  {100 * share:5.1f} %  {name}")
    collector = report["collector"]
    lines += ["", "cyclic collector by generation:", "  gen  passes    cpu_s      freed"]
    for generation in range(3):
        lines.append(
            f"  {generation:>3}  {collector['passes'][generation]:>6}  "
            f"{collector['cpu_s'][generation]:>7.3f}  {collector['freed'][generation]:>9,}"
        )
    lines.append(
        f"  all  {sum(collector['passes']):>6}  {sum(collector['cpu_s']):>7.3f}  "
        f"{sum(collector['freed']):>9,}"
    )
    lines += [
        "",
        f"collector freed per test: {collector['freed_per_test']:,.1f} objects",
        f"peak RSS (ru_maxrss): {report['peak_rss_mb']:.1f} MB",
    ]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    parser.add_argument(
        "--budget", type=int, default=16, help="tests in the round (default 16)"
    )
    parser.add_argument(
        "--interval-ms", type=float, default=1.0, help="sampling period in CPU ms (default 1)"
    )
    parser.add_argument("--top", type=int, default=25, help="functions to list (default 25)")
    parser.add_argument("--json", action="store_true", help="print the report as JSON")
    args = parser.parse_args(argv)
    if args.budget < 1:
        parser.error("--budget must be >= 1")
    if args.interval_ms <= 0:
        parser.error("--interval-ms must be > 0")
    report = profile_round(args.seed, args.budget, args.interval_ms / 1000.0)
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(format_report(report, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
