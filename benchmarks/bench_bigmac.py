"""Experiment A1 — the Big MAC attack (Sec. 6, after Clement et al.).

Claim: "by corrupting the MAC in all messages sent by a malicious client,
PBFT will perform a view change and crash"; with partial corruption the
system stalls on poisoned sequence numbers. One malicious client suffices.

The bench sweeps the canonical mask family and checks the expected ordering
of outcomes: benign ~ no effect < transient stall < storm + crash -> ~0.
"""

from repro.core import format_table
from repro.pbft import ClientBehavior, PbftAttack, run_deployment

from _helpers import banner, campaign_config

MASKS = [
    ("benign", 0x000),
    ("round-0 only (clean retransmissions)", 0x00F),
    ("poisoned round 0", 0x00E),
    ("one corrupt column", 0x111),
    ("two corrupt columns", 0xCCC),
    ("three corrupt columns", 0x777),
    ("all MACs corrupt", 0xFFF),
]


def run_bigmac():
    config = campaign_config()
    results = {}
    for label, mask in MASKS:
        results[mask] = run_deployment(
            config,
            n_correct_clients=20,
            attack=PbftAttack(client_behavior=ClientBehavior(mac_mask=mask)),
            n_malicious_clients=1,
            seed=2011,
        )
    return results


def report(results) -> None:
    banner(
        "Big MAC attack family — one malicious client vs 20 correct clients",
        "full corruption -> view-change storm + implementation crash "
        "(throughput -> 0); partial corruption -> graded stalls",
    )
    rows = []
    for label, mask in MASKS:
        result = results[mask]
        rows.append(
            [
                f"{mask:#05x}",
                label,
                f"{result.throughput_rps:.0f}",
                f"{result.tail_throughput_rps:.0f}",
                result.view_changes,
                result.crashed_replicas,
            ]
        )
    print(format_table(
        ["mask", "scenario", "tput req/s", "tail", "view chg", "crashed"], rows
    ))


def test_bigmac_family(benchmark):
    results = benchmark.pedantic(run_bigmac, rounds=1, iterations=1)
    report(results)
    benign = results[0x000]
    assert results[0x00F].throughput_rps > benign.throughput_rps * 0.7
    assert results[0x00E].throughput_rps < benign.throughput_rps * 0.2
    for storm_mask in (0x777, 0xFFF):
        assert results[storm_mask].view_changes > 0
        assert results[storm_mask].crashed_replicas >= 3
        assert results[storm_mask].tail_throughput_rps < benign.throughput_rps * 0.05


if __name__ == "__main__":
    report(run_bigmac())
