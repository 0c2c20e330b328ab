"""The paper-claim benchmarks stay collectable.

Tier-1 runs ``tests/`` only (``testpaths`` in pyproject.toml), so a
``benchmarks/bench_*.py`` module that no longer imports, or a helper that
pytest mistakes for a test, would otherwise go unnoticed until someone runs
the claims.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_benchmarks_collect_fourteen_tests_and_no_error():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "--collect-only", "-q",
         "-o", "addopts=", "-p", "no:cacheprovider"],
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    summary = result.stdout.splitlines()[-1]
    assert summary.startswith("14 tests collected in "), result.stdout + result.stderr
