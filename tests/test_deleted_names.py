"""Deleted names stay deleted: one table, one checker.

Each row names a pattern that a simplification removed, the paths it must
not come back under, why, and the PR that deleted it. A row with
``allowed`` set is a count gate: the pattern must match exactly that many
lines, so a row whose target has moved or vanished fails instead of
passing on zero matches. A row whose path does not exist fails too.

The patterns are the ones the CI grep gates used, written as Python
regular expressions: BRE ``\\|`` became ``|``, a BRE ``(`` became ``\\(``,
and a POSIX bracket's backslash, which grep takes literally, is spelled
``\\\\``. The bracket classes (``benc[h]``) are kept as they were. This
file holds every pattern and its ``plant``, so the checker skips it.

A new deletion adds one row here; see README "Deleted names".
"""

from __future__ import annotations

import re
import shutil
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import List, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
#: This file, relative to the root a checker scans: the table's own
#: patterns and plants would match it.
SELF = Path(__file__).resolve().relative_to(REPO_ROOT)


@dataclass(frozen=True)
class Gone:
    """One deleted name: where it must not appear, and why."""

    pattern: str
    paths: Tuple[str, ...]
    reason: str
    pr: int
    #: A line the pattern matches; the tests plant it to prove the row bites.
    plant: str
    #: Only files whose name matches this glob are scanned.
    glob: str = "*"
    #: Exactly how many matching lines the paths hold (0: the name is gone).
    allowed: int = 0


GONE = (
    Gone(
        r"concurrent.futures|ProcessPoolExecutor",
        ("src/repro/core",),
        "every worker is a WorkerSession behind a Channel; a pool would be a "
        "second execution path",
        13,
        plant="from concurrent.futures import ProcessPoolExecutor",
    ),
    Gone(
        r"repro[.]benc[h]|run_benc[h]|BENCH_(kerne[l]|campaig[n])",
        ("src", "tests", "benchmarks", ".github"),
        "benchmark/run.py is the only perf harness; the in-package one is retired",
        15,
        plant="from repro.bench import run_bench",
    ),
    Gone(
        r"FoldMemo|_fold_cache|_memoize_tags|_share_baselines",
        ("src", "tests"),
        "the deployment-wide MAC/fold memo and the baseline toggle did not pay",
        17,
        plant="memo = FoldMemo()",
        glob="*.py",
    ),
    Gone(
        r"BACKEND_NAME[S]|backend_nam[e]|supports_(spe[c]|checkpoint[s]|telemetr[y])",
        ("src", "tests"),
        "where scenarios run follows from workers/hosts; no backend name or "
        "strategy capability boolean says it twice",
        18,
        plant="if strategy.supports_checkpoints:",
    ),
    Gone(
        r"--backen[d]",
        ("src", ".github", "README.md"),
        "the backend flag is derived from workers/hosts",
        18,
        plant="repro campaign --backend process",
    ),
    Gone(
        r"ShardPlan|ShardRunner|absorb_foreig[n]|region_filte[r]|merge_count[s]"
        r"|MERGE_ENVELOP[E]|core[.](shard|merge)",
        ("src", "tests"),
        "workers/hosts is the one way to spread a campaign; the shard/merge "
        "stack lost its decision race",
        20,
        plant="from repro.core.shard import ShardPlan",
    ),
    Gone(
        r"--shard[s-]|--exchange-ever[y]|repro merg[e]",
        ("src", ".github", "README.md"),
        "the shard flags and the merge subcommand went with the shard stack",
        20,
        plant="repro campaign --shards 2",
    ),
    Gone(
        r'fault_isolatio[n]|no-fault-isolatio[n]|SERIAL_SCHE[D]|_picklable_exceptio[n]|"rais[e]"',
        ("src", "README.md", ".github"),
        "every scenario runs isolated: the fail-loud path, its flag, its wire "
        "frame and the executor-level publisher are gone",
        23,
        plant='spec = CampaignSpec(fault_isolation="raise")',
    ),
    Gone(
        r"perf[.]enabled|REPRO_UNOPTIMIZE[D]|_run_referenc[e]",
        ("src", ".github", "README.md", "DESIGN.md"),
        "src/ has one kernel; the reference loop is a test-local oracle",
        24,
        plant="if perf.enabled():",
    ),
    Gone(
        r"_build_time[d]|_dormant_deploymen[t]|build_rat[e]|malicious_clients=[\\[]"
        r"|replica_behaviors=",
        ("src",),
        "every scenario is a benign deployment plus one activation event",
        25,
        plant="deployment = build(malicious_clients=[0])",
    ),
    Gone(
        r"_warm_snapshot[s]|scope_see[d]",
        ("src/repro/targets",),
        "no target warms prefixes ahead of time or derives scope seeds itself",
        27,
        plant="self._warm_snapshots()",
    ),
    Gone(
        r"def build_prefi[x]",
        ("src",),
        "the prefix path is spelled once, in core/snapshot.py",
        27,
        plant="def build_prefix(self, seed):",
        allowed=1,
    ),
    Gone(
        r"import signa[l]|SIGALR[M]|setitime[r]|scenario_deadlin[e]|_alarm_usabl[e]"
        r"|TRANSIENT_KIND[S]|warm_prefixe[s]|_wait_budge[t]",
        ("src",),
        "a scenario's deadline is its event budget: no wall-clock deadline, "
        "in-executor retry loop or prefix warm-up",
        28,
        plant="import signal",
    ),
    Gone(
        r"rng_stat[e]|plugin_stat[s]|from_stat[e]|from_lis[t]|to_lis[t]",
        (
            "src/repro/core/persistence.py",
            "src/repro/core/coverage.py",
            "src/repro/core/failures.py",
        ),
        "a checkpoint is the recipe plus a log of results: resume is replay",
        32,
        plant='"rng_state": strategy.rng.getstate(),',
    ),
    Gone(
        r"\.tag[s]\b|Authenticator\([{]|tags\[verifie[r]\]",
        ("src/repro/crypto", "src/repro/pbft"),
        "an authenticator is a recipe; the eager tag vector is gone",
        33,
        plant="valid = auth.tags[verifier] == tag",
    ),
    Gone(
        r"_degrade[\\(]|fallback_reaso[n]|degraded to in-proces[s]|RetryPolic[y]|backoff_bas[e]",
        ("src",),
        "placement is declared: workers that cannot start raise, never degrade",
        34,
        plant="return self._degrade(error)",
    ),
    Gone(
        r"ParallelScenarioExecuto[r]\(",
        ("src",),
        "parallel.campaign_executor is the one place a campaign's executor is built",
        35,
        plant="pool = ParallelScenarioExecutor(target, workers=2)",
        allowed=1,
    ),
    Gone(
        r"default_la[n]|remove_faul[t]|clear_fault[s]|skip_fault[s]",
        ("src", "tests", "benchmarks", "examples"),
        "sim API nothing called: a fault stage is added for a deployment's "
        "life, and a held-back envelope always bypasses the pipeline",
        43,
        plant="network = default_lan(simulator)",
    ),
)


def _files(root: Path, rel: str, glob: str):
    """The files a row scans under ``root / rel``, in a stable order."""
    top = root / rel
    if top.is_file():
        yield top
        return
    for path in sorted(top.rglob("*")):
        if (
            path.is_file()
            and fnmatch(path.name, glob)
            and "__pycache__" not in path.relative_to(root).parts
            and path.relative_to(root) != SELF
        ):
            yield path


def matches(row: Gone, root: Path) -> List[Tuple[str, int, str]]:
    """``(file, line, text)`` for every line under the row's paths that
    its pattern matches; binary files are skipped, as grep -I would."""
    pattern = re.compile(row.pattern)
    found = []
    for rel in row.paths:
        for path in _files(root, rel, row.glob):
            data = path.read_bytes()
            if b"\0" in data:
                continue
            for number, line in enumerate(data.decode("utf-8", "replace").splitlines(), 1):
                if pattern.search(line):
                    found.append((path.relative_to(root).as_posix(), number, line.strip()))
    return found


def problems(row: Gone, root: Path) -> List[str]:
    """Why ``root`` breaks the row (empty: it holds)."""
    missing = [rel for rel in row.paths if not (root / rel).exists()]
    if missing:
        return [f"missing path {rel}: the gate has lost its target" for rel in missing]
    found = matches(row, root)
    if len(found) == row.allowed:
        return []
    hits = [f"{path}:{line}: {text}" for path, line, text in found]
    if row.allowed:
        return [f"{len(found)} lines match, exactly {row.allowed} allowed"] + hits
    return hits


def _row_id(row: Gone) -> str:
    return f"PR{row.pr}-" + re.sub(r"[^A-Za-z0-9]+", "-", row.plant).strip("-")[:32]


def _copy(row: Gone, root: Path) -> None:
    for rel in row.paths:
        source, dest = REPO_ROOT / rel, root / rel
        if source.is_file():
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, dest)
        else:
            shutil.copytree(source, dest, ignore=shutil.ignore_patterns("__pycache__"))


def _plant(root: Path, rel: str, text: str) -> str:
    """Write ``text`` as a new line under ``root / rel``; return ``file:line``."""
    target = root / rel
    if target.is_dir():
        target = target / "planted.py"
        target.write_text(text + "\n")
        return f"{rel}/planted.py:1"
    body = target.read_text()
    if body and not body.endswith("\n"):
        body += "\n"
    target.write_text(body + text + "\n")
    return f"{rel}:{body.count(chr(10)) + 1}"


@pytest.mark.parametrize("row", GONE, ids=_row_id)
def test_the_tree_holds_every_row(row):
    found = problems(row, REPO_ROOT)
    assert not found, f"{row.reason} (PR {row.pr}):\n" + "\n".join(found)


@pytest.mark.parametrize("row", GONE, ids=_row_id)
def test_a_planted_name_fails_its_row_at_its_file_and_line(row, tmp_path):
    _copy(row, tmp_path)
    assert problems(row, tmp_path) == []
    planted = [_plant(tmp_path, rel, row.plant) for rel in row.paths]
    found = problems(row, tmp_path)
    for where in planted:
        assert f"{where}: {row.plant}" in found
    if row.allowed:
        # Every path planted once: exactly that many sites too many.
        assert found[0] == (
            f"{row.allowed + len(row.paths)} lines match, exactly {row.allowed} allowed"
        )


@pytest.mark.parametrize("row", [row for row in GONE if row.allowed], ids=_row_id)
def test_a_count_row_fails_one_site_short(row, tmp_path):
    _copy(row, tmp_path)
    path, line, _ = matches(row, tmp_path)[0]
    lines = (tmp_path / path).read_text().splitlines(keepends=True)
    lines[line - 1] = "\n"
    (tmp_path / path).write_text("".join(lines))
    assert problems(row, tmp_path) == [
        f"{row.allowed - 1} lines match, exactly {row.allowed} allowed"
    ]


def test_a_row_whose_path_is_missing_fails(tmp_path):
    for row in GONE:
        assert problems(row, tmp_path) == [
            f"missing path {rel}: the gate has lost its target" for rel in row.paths
        ]
    (tmp_path / "src").mkdir()
    moved = Gone(r"gon[e]", ("src", "src/renamed"), "-", 0, plant="gone")
    assert problems(moved, tmp_path) == [
        "missing path src/renamed: the gate has lost its target"
    ]


def test_the_checker_skips_bytecode_binaries_and_this_file(tmp_path):
    row = Gone(r"ProcessPoolExecuto[r]", ("src", "tests"), "-", 0, plant="-")
    (tmp_path / "src" / "__pycache__").mkdir(parents=True)
    (tmp_path / "src" / "__pycache__" / "mod.py").write_text("ProcessPoolExecutor\n")
    (tmp_path / "src" / "blob.bin").write_bytes(b"\0ProcessPoolExecutor\n")
    (tmp_path / SELF).parent.mkdir(parents=True)
    (tmp_path / SELF).write_text("ProcessPoolExecutor\n")
    assert problems(row, tmp_path) == []
    (tmp_path / "tests" / "other.py").write_text("x = 1\nProcessPoolExecutor\n")
    assert problems(row, tmp_path) == ["tests/other.py:2: ProcessPoolExecutor"]


def test_every_row_records_why_and_when():
    for row in GONE:
        assert row.reason and row.pr and row.paths
        assert re.search(row.pattern, row.plant), _row_id(row)
    assert len({_row_id(row) for row in GONE}) == len(GONE)
