"""Experiment A3 — the abstract's 250-node claim.

"We describe a scenario generated by our tool, where even a single
malicious client can bring a BFT system of over 250 nodes down to zero
throughput." The scenario is the colluding slow-primary attack: one
malicious client (plus the compromised primary) starves 250 correct
clients completely.
"""

from repro.core import format_table
from repro.pbft import (
    ClientBehavior,
    PbftAttack,
    ReplicaBehavior,
    SlowPrimaryPolicy,
    run_deployment,
)

from _helpers import banner, campaign_config

N_CORRECT = 250


def run_scale_250():
    # A longer window lets the Big-MAC storm reach its terminal state (all
    # replicas crashed) well before the tail measurement.
    config = campaign_config(measurement_us=3_000_000)
    baseline = run_deployment(config, N_CORRECT, seed=1)
    colluding = ReplicaBehavior(
        slow_primary=SlowPrimaryPolicy(serve_only_client="mclient-0")
    )
    attacked = run_deployment(
        config,
        N_CORRECT,
        PbftAttack(
            client_behavior=ClientBehavior(broadcast_always=True),
            replica_behaviors={0: colluding},
        ),
        n_malicious_clients=1,
        seed=1,
    )
    # A single Big-MAC client also collapses the same deployment.
    bigmac = run_deployment(
        config,
        N_CORRECT,
        PbftAttack(client_behavior=ClientBehavior(mac_mask=0xFFF)),
        n_malicious_clients=1,
        seed=1,
    )
    return baseline, attacked, bigmac


def report(baseline, attacked, bigmac) -> None:
    banner(
        f"One malicious client vs {N_CORRECT} correct clients (254+ nodes)",
        "zero useful throughput under the colluding slow primary; "
        "collapse + crash under the all-corrupt Big MAC client",
    )
    rows = [
        ["benign", f"{baseline.throughput_rps:.0f}", baseline.view_changes,
         baseline.crashed_replicas],
        ["slow primary + 1 colluding client", f"{attacked.throughput_rps:.2f}",
         attacked.view_changes, attacked.crashed_replicas],
        ["1 Big-MAC client (mask 0xFFF)", f"{bigmac.throughput_rps:.0f}",
         bigmac.view_changes, bigmac.crashed_replicas],
    ]
    print(format_table(["scenario", "tput req/s", "view chg", "crashed"], rows))


def test_single_client_zeroes_250_node_deployment(benchmark):
    baseline, attacked, bigmac = benchmark.pedantic(run_scale_250, rounds=1, iterations=1)
    report(baseline, attacked, bigmac)
    assert baseline.throughput_rps > 5_000
    assert attacked.throughput_rps == 0.0  # the abstract's headline
    assert bigmac.tail_throughput_rps < baseline.throughput_rps * 0.05
    assert bigmac.crashed_replicas >= 3


if __name__ == "__main__":
    report(*run_scale_250())
