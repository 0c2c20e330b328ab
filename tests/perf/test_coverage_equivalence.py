"""Coverage signatures are invariant across kernel and snapshot modes.

A coverage signature feeds parent selection, so any divergence between
the ``src/`` kernel and the test-local reference (``tests/_reference.py``)
— or between snapshot-forked and from-scratch scenario execution — would
silently change exploration trajectories depending on how the campaign
happened to be executed. These sweeps pin the contract: identical
signatures, seen-behaviour maps, and trajectories in every mode,
in-process and in fresh interpreters (one as shipped, one that enters the
reference block, one with snapshot forking switched off).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import CampaignSpec, HybridExploration, snapshot
from repro.pbft import PbftConfig
from repro.plugins import ClientCountPlugin, MacCorruptionPlugin
from repro.targets import PbftTarget
from tests._reference import reference_mode
from tests._strategies import trajectory
from tests.conftest import tiny_pbft_config

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def _restore_modes():
    snap_before = snapshot.enabled()
    yield
    snapshot.set_enabled(snap_before)


def run_hybrid_campaign():
    plugins = [MacCorruptionPlugin(), ClientCountPlugin(4, 8, 2)]
    target = PbftTarget(plugins, config=tiny_pbft_config())
    strategy = HybridExploration(target, plugins, seed=22)
    strategy.run(CampaignSpec(budget=6))
    return (
        trajectory(strategy.results),
        sorted(strategy._signatures.items()),
        list(strategy.coverage.seen.items()),
        list(strategy.coverage.features.items()),
    )


def pbft_hybrid_digest() -> str:
    """Subprocess hook: digest of the campaign identity above."""
    payload = repr(run_hybrid_campaign())
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_signatures_identical_across_perf_and_snapshot_modes():
    outcomes = {}
    snapshot.set_enabled(True)
    outcomes["optimized+fork"] = run_hybrid_campaign()
    snapshot.set_enabled(False)
    outcomes["optimized+scratch"] = run_hybrid_campaign()
    with reference_mode():
        outcomes["reference"] = run_hybrid_campaign()
    assert outcomes["optimized+fork"] == outcomes["optimized+scratch"]
    assert outcomes["optimized+fork"] == outcomes["reference"]
    # The sweep actually observed behaviour (not a vacuous pass).
    assert outcomes["reference"][1]


_SUBPROCESS_SCRIPT = """
import tests.perf.test_coverage_equivalence as equiv
print(equiv.pbft_hybrid_digest())
"""

_REFERENCE_SUBPROCESS_SCRIPT = """
import tests.perf.test_coverage_equivalence as equiv
with equiv.reference_mode():
    print(equiv.pbft_hybrid_digest())
"""

_NO_FORK_SUBPROCESS_SCRIPT = """
import tests.perf.test_coverage_equivalence as equiv
with equiv.snapshot.disabled():
    print(equiv.pbft_hybrid_digest())
"""


def _digest_in_fresh_interpreter(script: str = _SUBPROCESS_SCRIPT) -> str:
    root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + root
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        check=True,
    )
    return result.stdout.strip()


def test_signatures_identical_in_fresh_interpreters_across_env_modes():
    optimized = _digest_in_fresh_interpreter()
    reference = _digest_in_fresh_interpreter(_REFERENCE_SUBPROCESS_SCRIPT)
    no_fork = _digest_in_fresh_interpreter(_NO_FORK_SUBPROCESS_SCRIPT)
    assert optimized == reference == no_fork
