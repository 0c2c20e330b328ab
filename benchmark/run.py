#!/usr/bin/env python3
"""The repo benchmark: four campaign workloads, measured from the outside.

One run (what ``BENCHMARK.json``'s command is called with)::

    python3 benchmark/run.py --workload race_small --seed 0 --seconds 12 --trace 0

prints every metric with its unit and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``.

Without ``--workload`` it runs the whole suite, each run in a fresh
interpreter (``--repeats``, ``--out``); ``--compare A.json B.json`` sets two
suite files side by side; ``--selftest`` checks the benchmark itself.
See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Variables that select a non-default mode of the library, or unpin hashing.
SCRUBBED = ("REPRO_UNOPTIMIZED", "REPRO_NO_SNAPSHOT", "REPRO_SNAPSHOT_CACHE", "REPRO_COVERAGE")


def clean_environment() -> dict:
    """The environment every measured interpreter runs under."""
    env = {name: value for name, value in os.environ.items() if name not in SCRUBBED}
    env["PYTHONHASHSEED"] = "0"
    return env


def _bootstrap() -> None:
    """Make ``repro`` (this checkout's) and the ``benchmark`` package importable."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    # The script's own directory would shadow the standard library's
    # ``trace`` with benchmark/trace.py; import through the package instead.
    sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this interpreter")
    parser.add_argument("--seed", type=int, default=0, help="added to every pinned campaign seed")
    parser.add_argument(
        "--seconds", type=float, default=None, help="length of the timed section of one run"
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: report the per-layer metrics of a traced run",
    )
    parser.add_argument("--out", help="write the full record (one run) or report (suite) here")
    parser.add_argument("--repeats", type=int, default=3, help="untraced runs per workload (suite)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    """One workload, one run, in this interpreter."""
    from benchmark import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"benchmark: unknown workload {args.workload!r}")
    out = Path(args.out).resolve() if args.out else None
    with workloads.working_directory():
        record = workloads.measure(workload, args.seed, args.seconds, bool(args.trace))
    record["pinned_checksum"] = _pinned_checksum(workload.name, args.seed)
    if out is not None:
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    metrics = record["layers"] if args.trace else record["e2e"]
    shown = dict(metrics) if args.trace else {**metrics, **record["extras"]}
    print(f"{workload.name}  seed {args.seed}  rounds {record['rounds']}  trace {args.trace}")
    for name, metric in shown.items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")
    pinned = record["pinned_checksum"]
    if pinned is not None and pinned != record["outcome_checksum"]:
        print(f"  checksum_changed: outcome {record['outcome_checksum'][:16]} != pinned {pinned[:16]}")
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _pinned_checksum(workload: str, seed: int):
    pinned = json.loads((HERE / "pinned.json").read_text())
    return pinned["outcome_checksum"].get(workload) if seed == pinned["seed"] else None


def main() -> int:
    args = _parse(sys.argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if os.environ != clean_environment():
        # The library samples its mode switches at import and the hash seed
        # is fixed at interpreter start, so a clean run needs a clean start.
        command = [sys.executable, str(HERE / "run.py"), *sys.argv[1:]]
        os.execve(sys.executable, command, clean_environment())
    _bootstrap()
    if args.workload:
        return run_one(args)
    from benchmark import report, selftest

    if args.compare:
        return report.compare(Path(args.compare[0]), Path(args.compare[1]), spec)
    if args.selftest:
        return selftest.run(spec)
    return report.suite(args, spec, clean_environment())


if __name__ == "__main__":
    sys.exit(main())
