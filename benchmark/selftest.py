"""``run.py --selftest``: the benchmark checks itself, in under 30 seconds.

Four checks: the self-time arithmetic on a synthetic span tree with a fake
clock; BENCHMARK.json against the names the code reports; every workload at
a tiny scale through the untraced, traced and verify paths; and a tampered
result, which must count as failed.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Tuple

from repro.core import ScenarioResult, TestScenario

from . import trace as tracing
from . import verify, workloads


def _span_arithmetic() -> List[str]:
    """root[0,10] > scenario[1,5] > sim[2,3]; root > generate[6,8]."""
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    root = tracer.begin()
    scenario = tracer.begin()
    tracer.end("sim.run", tracer.begin())
    tracer.end("executor.scenario", scenario)
    tracer.end("controller.generate", tracer.begin())
    tracer.end("controller.run", root)
    spans = tracer.harvest()
    expected = {
        "sim.run": 1.0,
        "executor.scenario": 3.0,
        "controller.generate": 2.0,
        "controller.run": 4.0,
    }
    problems = [
        f"{name}: self time {spans.self_s(name)}, expected {self_s}"
        for name, self_s in expected.items()
        if spans.self_s(name) != self_s
    ]
    if spans.owner_self_s() != 10.0:
        problems.append(f"self times sum to {spans.owner_self_s()}, the root span lasted 10")
    return problems


def _spec_matches_code(spec: dict) -> List[str]:
    problems = []
    pairs = (
        ("end_to_end", workloads.E2E_METRICS),
        ("per_layer", workloads.LAYER_METRICS),
    )
    for key, declared in pairs:
        in_spec = {(m["name"], m["unit"], m["better"]) for m in spec[key]}
        if in_spec != set(declared):
            problems.append(f"BENCHMARK.json {key} differs: {sorted(in_spec ^ set(declared))}")
    in_spec = {(w["name"], w["why"]) for w in spec["workloads"]}
    in_code = {(w.name, w.why) for w in workloads.WORKLOADS.values()}
    if in_spec != in_code:
        problems.append(f"BENCHMARK.json workloads differ: {sorted(in_spec ^ in_code)}")
    return problems


def _tiny_workloads() -> List[str]:
    problems = []
    for workload in workloads.WORKLOADS.values():
        with workloads.working_directory():
            plain = workloads.measure(workload, seed=0, seconds=0.0, trace=False, small=True)
            traced = workloads.measure(workload, seed=0, seconds=0.0, trace=True, small=True)
        name = workload.name
        for record in (plain, traced):
            problems += [f"{name}: {problem}" for problem in record["problems"]]
            if record["failed"]:
                problems.append(f"{name}: {record['failed']} of {record['attempted']} failed")
        if plain["outcome_checksum"] != traced["outcome_checksum"]:
            problems.append(f"{name}: tracing changed the outcome checksum")
        if set(plain["e2e"]) != {metric for metric, _, _ in workloads.E2E_METRICS}:
            problems.append(f"{name}: end-to-end metric names differ from E2E_METRICS")
        layers = traced["layers"]
        if layers["trace.coverage_share"]["value"] < 0.95:
            problems.append(f"{name}: spans cover {layers['trace.coverage_share']['value']:.3f}")
        forks = layers["snapshot.forks"]["value"]
        if name == "timed_fork":
            if forks != traced["attempted"] or layers["pbft.builds"]["value"] != 0:
                problems.append(f"{name}: {forks} forks, {layers['pbft.builds']['value']} builds")
        elif forks:
            problems.append(f"{name}: {forks} snapshot forks on a workload without timed attacks")
    return problems


def _tampered_result_fails() -> List[str]:
    results = [
        ScenarioResult(TestScenario(coords={"x": index}), impact=0.25, test_index=index)
        for index in range(4)
    ]
    if verify.check_results(results, budget=4):
        return ["four well-formed results did not pass check_results"]
    results[2] = dataclasses.replace(results[2], impact=1.5)
    found = verify.check_results(results, budget=4)
    if not found:
        return ["an impact of 1.5 passed check_results"]
    judged = workloads.Round(
        campaign_seed=0, tests=4, setup_s=0.0, wall_s=1.0, cpu_s=1.0, child_cpu_s=0.0,
        events=1, failures=0, retries=0, find_tests=4, find_s=1.0, digest="", problems=found,
    )
    if judged.failed != judged.tests:
        return [f"a failed check counted {judged.failed} of {judged.tests} scenarios as failed"]
    return []


def run(spec: dict) -> int:
    checks: List[Tuple[str, Callable[[], List[str]]]] = [
        ("span self-time arithmetic", _span_arithmetic),
        ("BENCHMARK.json matches the code", lambda: _spec_matches_code(spec)),
        ("every workload at tiny scale", _tiny_workloads),
        ("a tampered result fails", _tampered_result_fails),
    ]
    failed = 0
    for name, check in checks:
        problems = check()
        print(f"{'FAIL' if problems else 'ok  '}  {name}")
        for problem in problems:
            print(f"      {problem}")
        failed += bool(problems)
    return 1 if failed else 0
