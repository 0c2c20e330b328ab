"""The suite (every workload, each run in a fresh interpreter) and ``--compare``.

End-to-end figures come from untraced runs and are reported as the median
over ``--repeats``, with their quartiles; one extra traced run per workload
gives the per-layer figures. Runs are launched one at a time and the
workload order alternates between repeats, so slow machine drift does not
land on one workload.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from .workloads import pool_workers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Metrics the suite reports beside BENCHMARK.json's end-to-end ones. They
#: follow the search trajectory, so they compare only between runs at the
#: same ``--seed``; the bound is the one ``events_per_s`` has, or 0 for
#: exact figures.
SUITE_METRICS = (
    ("tests_per_s", "higher", False),
    ("time_to_find_s", "lower", False),
    ("tests_to_find", "lower", True),
    ("failed_share", "lower", True),
)


def _quartiles(values: Sequence[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _spread(entry: Dict[str, float]) -> float:
    """Distance between the quartiles as a share of the median."""
    return (entry["q3"] - entry["q1"]) / entry["median"] if entry["median"] else 0.0


def _commit() -> str:
    try:
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def _run_child(
    name: str, seed: int, seconds: float, trace: int, scratch: Path, env: Dict[str, str]
) -> dict:
    out = scratch / f"{name}-{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(out),
    ]
    done = subprocess.run(command, env=env, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        sys.exit(f"benchmark: {name} (trace {trace}) exited with {done.returncode}")
    return json.loads(out.read_text())


def suite(args, spec: dict, env: Dict[str, str]) -> int:
    """Run every workload ``args.repeats`` times under ``env`` and report."""
    names = [entry["name"] for entry in spec["workloads"]]
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    scratch = HERE / ".work" / f"suite-{os.getpid()}"
    scratch.mkdir(parents=True)
    untraced: Dict[str, List[dict]] = {name: [] for name in names}
    traced: Dict[str, dict] = {}
    try:
        for repeat in range(args.repeats):
            for name in names if repeat % 2 == 0 else reversed(names):
                print(f"run {repeat + 1}/{args.repeats}  {name}", file=sys.stderr)
                untraced[name].append(_run_child(name, args.seed, args.seconds, 0, scratch, env))
        for name in names:
            print(f"traced run  {name}", file=sys.stderr)
            traced[name] = _run_child(name, args.seed, args.seconds, 1, scratch, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    report = {
        "schema": 1,
        "env": {
            "commit": _commit(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "pool_workers": pool_workers(),
        },
        "seed": args.seed,
        "repeats": args.repeats,
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for name in names:
        runs = untraced[name]
        end_to_end = {}
        for metric, meta in bounds.items():
            values = [run["e2e"][metric]["value"] for run in runs]
            end_to_end[metric] = {
                "unit": meta["unit"], "better": meta["better"], "bound": meta["bound"],
                "values": values, **_quartiles(values),
            }
        for metric, better, exact in SUITE_METRICS:
            values = [run["extras"][metric]["value"] for run in runs]
            end_to_end[metric] = {
                "unit": runs[0]["extras"][metric]["unit"], "better": better,
                "bound": 0 if exact else bounds["events_per_s"]["bound"],
                "values": values, **_quartiles(values),
            }
        flags = []
        if any(run["problems"] for run in runs + [traced[name]]):
            flags.append("checks_failed")
        checksums = {run["outcome_checksum"] for run in runs}
        if len(checksums) > 1:
            flags.append("runs_disagree")
        if traced[name]["outcome_checksum"] not in checksums:
            flags.append("traced_checksum_differs")
        pinned = runs[0]["pinned_checksum"]
        if pinned is not None and pinned not in checksums:
            flags.append("checksum_changed")
        report["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": traced[name]["layers"],
            "exact": {**runs[0]["exact"], **traced[name]["exact"]},
            "outcome_checksum": runs[0]["outcome_checksum"],
            "flags": flags,
        }
    _add_pool_speedup(report["workloads"], bounds["events_per_s"]["bound"])

    _print_suite(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    failing = [
        f"{name}: {flag}"
        for name, entry in report["workloads"].items()
        for flag in entry["flags"]
        if flag != "checksum_changed"  # a flag, not a failure: trajectories may move
    ]
    for line in failing:
        print(f"FAILED  {line}")
    return 1 if failing else 0


def _add_pool_speedup(workloads: Dict[str, dict], bound: float) -> None:
    """``paper_pool`` against its in-process base, repeat by repeat."""
    pool, serial = workloads.get("paper_pool"), workloads.get("paper_serial")
    if pool is None or serial is None:
        return
    if pool["outcome_checksum"] != serial["outcome_checksum"]:
        # Same seeds, same batch size: the pool must reproduce the
        # in-process trajectories bit for bit (worker-count invariance).
        pool["flags"].append("trajectory_differs_from_paper_serial")
    values = [
        p / s
        for p, s in zip(
            pool["end_to_end"]["events_per_s"]["values"],
            serial["end_to_end"]["events_per_s"]["values"],
        )
    ]
    pool["end_to_end"]["pool_speedup"] = {
        "unit": "x", "better": "higher", "bound": bound,
        "base": "paper_serial events_per_s, same invocation",
        "values": values, **_quartiles(values),
    }


def _print_suite(report: dict) -> None:
    env = report["env"]
    print(
        f"commit {env['commit'][:12]}  python {env['python']}  nproc {env['nproc']}  "
        f"pool workers {env['pool_workers']}  seed {report['seed']}  repeats {report['repeats']}"
    )
    for name, entry in report["workloads"].items():
        flags = "  ".join(entry["flags"])
        print(f"\n{name}  checksum {entry['outcome_checksum'][:16]}  {flags}")
        for metric, value in entry["end_to_end"].items():
            print(
                f"  {metric:36s} {value['median']:>14.6g} {value['unit']:6s}"
                f" spread {_spread(value):6.3f}  bound {value['bound']}"
            )
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:36s} {value['value']:>14.6g} {value['unit']}")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------
def _verdict(a: dict, b: dict) -> str:
    """B against A under the metric's bound (choosing-metrics, section 6)."""
    higher = a["better"] == "higher"
    base, change = a["median"], b["median"]
    if base == change:
        return "same"
    worse_by = ((base - change) if higher else (change - base)) / base if base else float("inf")
    if a["bound"] == 0:
        return "CHANGED" if worse_by else "same"
    if max(_spread(a), _spread(b)) > a["bound"]:
        # Too noisy to call, unless every run of B beats every run of A.
        separated = (
            min(b["values"]) > max(a["values"])
            if higher
            else max(b["values"]) < min(a["values"])
        )
        return "better" if separated else "unresolved"
    if worse_by > a["bound"]:
        return "REGRESSION"
    return "better" if worse_by < 0 else "within bound"


def compare(a_path: Path, b_path: Path, spec: dict) -> int:
    a_report, b_report = json.loads(a_path.read_text()), json.loads(b_path.read_text())
    print(f"A (base) = {a_path}  commit {a_report['env']['commit'][:12]}  seed {a_report['seed']}")
    print(f"B        = {b_path}  commit {b_report['env']['commit'][:12]}  seed {b_report['seed']}")
    if a_report["seed"] != b_report["seed"]:
        print("seeds differ: trajectory-bound metrics (tests_per_s, *_to_find) do not compare")
    regressions = 0
    for name, a_entry in a_report["workloads"].items():
        b_entry = b_report["workloads"].get(name)
        if b_entry is None:
            continue
        same = a_entry["outcome_checksum"] == b_entry["outcome_checksum"]
        print(f"\n{name}  outcome checksum {'same' if same else 'checksum_changed'}")
        print(f"  {'end to end':30s} {'A (base)':>12s} {'B':>12s} {'B/A':>7s} {'bound':>6s} "
              f"{'spread A':>8s} {'spread B':>8s}  verdict")
        for metric, a in a_entry["end_to_end"].items():
            b = b_entry["end_to_end"].get(metric)
            if b is None:
                continue
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            verdict = _verdict(a, b)
            regressions += verdict == "REGRESSION"
            print(
                f"  {metric:30s} {a['median']:>12.5g} {b['median']:>12.5g} {ratio:>7.3f} "
                f"{a['bound']:>6} {_spread(a):>8.3f} {_spread(b):>8.3f}  {verdict}"
                f" ({a['better']} is better)"
            )
        print(f"  {'per layer (one traced run each)':38s} {'A':>12s} {'B':>12s} {'delta':>8s}")
        for metric, a in a_entry["per_layer"].items():
            b = b_entry["per_layer"].get(metric)
            if b is None or (a["value"] == 0 and b["value"] == 0):
                continue
            delta = (b["value"] - a["value"]) / a["value"] if a["value"] else float("inf")
            print(f"  {metric:38s} {a['value']:>12.5g} {b['value']:>12.5g} {delta:>+8.1%}")
        for metric, a_value in a_entry["exact"].items():
            if b_entry["exact"].get(metric) != a_value:
                print(f"  exact count {metric}: {a_value} -> {b_entry['exact'].get(metric)}")
    print(f"\n{regressions} regression(s) beyond their bound")
    return 1 if regressions else 0
