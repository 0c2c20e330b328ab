"""Output checks, outcome checksums and the discovery criteria.

A workload reports numbers only for outputs it has checked. Every check
returns a list of problems (empty = passed); one problem makes the whole
round's scenarios count as failed, so a speed-up that breaks results can
never read as a gain.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import ScenarioExecutor, snapshot
from repro.telemetry import SchemaError, validate_jsonl

#: Scenarios re-executed from scratch per round.
REEXECUTED_PER_ROUND = 4


# ---------------------------------------------------------------------------
# discovery criteria (copied from repro.bench._found_*; the benchmark owns
# its copy so a change to `repro bench` cannot move the headline)
# ---------------------------------------------------------------------------
def found_bigmac(result) -> bool:
    """Big-MAC with fallout: near-total collapse via the MAC path."""
    m = result.measurement
    return (
        m is not None
        and result.impact >= 0.9
        and m.view_changes >= 1
        and m.bad_mac_rejections >= 64
    )


def found_quiet_slow_primary(result) -> bool:
    """Collapse with no view change, no crash and (almost) no MAC rejections."""
    m = result.measurement
    return (
        m is not None
        and result.impact >= 0.95
        and m.view_changes == 0
        and m.crashed_replicas == 0
        and m.bad_mac_rejections <= 8
    )


def found_collapse(result) -> bool:
    """Near-total loss of service, by whatever path."""
    return result.impact >= 0.9


CRITERIA: Dict[str, Callable[[object], bool]] = {
    "bigmac": found_bigmac,
    "quiet_slow_primary": found_quiet_slow_primary,
    "collapse": found_collapse,
}


def tests_to(results: Sequence, predicate: Callable[[object], bool]) -> Optional[int]:
    """1-based index of the first result meeting ``predicate``."""
    for index, result in enumerate(results, 1):
        if predicate(result):
            return index
    return None


# ---------------------------------------------------------------------------
# checksums
# ---------------------------------------------------------------------------
def trajectory_digest(results: Sequence, stream_bytes: bytes = b"") -> str:
    """SHA-256 of one campaign's ``(test_index, key, impact, origin)`` rows."""
    trajectory = [(r.test_index, r.key, r.impact, r.scenario.origin) for r in results]
    digest = hashlib.sha256(repr(trajectory).encode("utf-8"))
    digest.update(stream_bytes)
    return digest.hexdigest()


def outcome_checksum(round_digests: Sequence[str]) -> str:
    """One checksum over a workload's rounds, in round order."""
    return hashlib.sha256("|".join(round_digests).encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------
def check_results(results: Sequence, budget: int) -> List[str]:
    """Budget met, indices in order, every impact a number in [0, 1]."""
    problems = []
    if len(results) != budget:
        problems.append(f"executed {len(results)} scenarios, budget was {budget}")
    for position, result in enumerate(results):
        if result.test_index != position:
            problems.append(f"result {position} carries test_index {result.test_index}")
            break
    for result in results:
        impact = result.impact
        if not isinstance(impact, (int, float)) or math.isnan(impact) or not 0.0 <= impact <= 1.0:
            problems.append(f"test {result.test_index}: impact {impact!r} outside [0, 1]")
            break
    return problems


def check_stream(path: str) -> List[str]:
    """The telemetry stream validates and its sequence numbers have no gap."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    try:
        validated = validate_jsonl(lines)
    except SchemaError as exc:
        return [f"telemetry stream invalid: {exc}"]
    if [seq for seq, _ in validated] != list(range(len(validated))):
        return ["telemetry stream has a gap in its sequence numbers"]
    return []


def check_reexecution(target, campaign_seed: int, results: Sequence) -> List[str]:
    """Sampled scenarios, re-run from scratch in this process, must agree.

    From scratch means snapshot forking off, so on ``timed_fork`` this is
    the fork ≡ scratch check; on ``paper_pool`` it compares what crossed the
    process boundary with an in-process execution; elsewhere it is a plain
    determinism check. Impact and the target's headline summary are
    compared, not raw counters: those also hold the coverage-capture trail,
    which only a hybrid campaign records.
    """
    candidates = [result for result in results if not result.failed]
    sample = random.Random(campaign_seed).sample(
        candidates, min(REEXECUTED_PER_ROUND, len(candidates))
    )
    executor = ScenarioExecutor(target, campaign_seed=campaign_seed)
    problems = []
    with snapshot.disabled():
        for original in sample:
            again = executor.execute(original.scenario, original.test_index)
            same = again.impact == original.impact and target.telemetry_summary(
                again.measurement
            ) == target.telemetry_summary(original.measurement)
            if not same:
                problems.append(
                    f"test {original.test_index}: re-execution from scratch "
                    f"gave impact {again.impact!r}, campaign had {original.impact!r}"
                )
    return problems
