"""Experiment A2 — the slow-primary bug (Sec. 6).

Claims, at the paper's 5-second view-change timer:

- a malicious primary executing one request per timer period drives
  throughput to 0.2 req/s (= 1 / 5 s) without ever being deposed, because
  the implementation shares ONE view-change timer across all requests;
- with a cooperating malicious client, useful throughput is exactly 0;
- with the protocol-specified per-request timers the backups depose the
  slow primary and throughput recovers (Aardvark's minimum-throughput
  thresholds address the same bug family).
"""

from repro.core import format_table
from repro.pbft import (
    ClientBehavior,
    PbftAttack,
    PbftConfig,
    ReplicaBehavior,
    SlowPrimaryPolicy,
    run_deployment,
)

from _helpers import banner, campaign_config


def paper_config(**overrides):
    """The paper's 5 s timer; long window so a handful of periods fit."""
    defaults = dict(warmup_us=2_000_000, measurement_us=30_000_000)
    defaults.update(overrides)
    return PbftConfig.paper_scale(**defaults)


def run_slow_primary():
    slow = ReplicaBehavior(slow_primary=SlowPrimaryPolicy())
    colluding = ReplicaBehavior(
        slow_primary=SlowPrimaryPolicy(serve_only_client="mclient-0")
    )
    slow_attack = PbftAttack(replica_behaviors={0: slow})
    colluding_attack = PbftAttack(
        client_behavior=ClientBehavior(broadcast_always=True),
        replica_behaviors={0: colluding},
    )

    results = {}
    # Paper scale: the headline 0.2 req/s and the 0 req/s collusion.
    results["paper slow"] = run_deployment(paper_config(), 10, slow_attack, seed=7)
    results["paper colluding"] = run_deployment(
        paper_config(), 10, colluding_attack, n_malicious_clients=1, seed=7
    )
    # Campaign scale for the healthy baseline and the fixed-timer variants
    # (full-throughput runs are too slow to simulate for 30 s).
    fast = campaign_config()
    results["healthy"] = run_deployment(fast, 10, seed=7)
    results["fixed timers, slow primary"] = run_deployment(
        fast.with_overrides(per_request_timers=True), 10, slow_attack, seed=7
    )
    results["fixed timers, colluding"] = run_deployment(
        fast.with_overrides(per_request_timers=True), 10,
        colluding_attack, n_malicious_clients=1, seed=7,
    )
    return results


def report(results) -> None:
    banner(
        "Slow primary — the shared view-change timer bug",
        "paper scale: 0.2 req/s (one request per 5 s period); colluding "
        "client: 0 useful req/s; per-request timers depose the primary",
    )
    rows = []
    for label, result in results.items():
        rows.append(
            [label, f"{result.throughput_rps:.2f}", result.view_changes, result.new_views]
        )
    print(format_table(["scenario", "useful tput (req/s)", "view chg", "new views"], rows))


def test_slow_primary(benchmark):
    results = benchmark.pedantic(run_slow_primary, rounds=1, iterations=1)
    report(results)
    # The headline number: one request per 5 s period = 0.2 req/s.
    assert abs(results["paper slow"].throughput_rps - 0.2) < 0.1
    assert results["paper slow"].view_changes == 0  # never deposed (the bug)
    assert results["paper colluding"].throughput_rps == 0.0
    # The fix recovers most of the healthy throughput.
    healthy = results["healthy"].throughput_rps
    assert results["fixed timers, slow primary"].view_changes >= 1
    assert results["fixed timers, slow primary"].throughput_rps > healthy * 0.4
    assert results["fixed timers, colluding"].throughput_rps > 0


if __name__ == "__main__":
    report(run_slow_primary())
