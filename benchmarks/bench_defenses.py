"""Experiment X4 — the attack matrix vs Aardvark-style defenses.

The paper points at the fixes: per-request timers (the protocol as
specified) and Aardvark's hardening ("Aardvark avoids this bug by enforcing
minimum throughput thresholds for each primary"; the Big MAC attack is
Aardvark's own motivating example). This bench runs every attack against
three deployments: the paper's PBFT, the timer-fixed PBFT, and the
Aardvark-hardened PBFT.

Expected shape: the timer fix stops the slow primary but not the Big MAC
storm; the Aardvark suite (rotation + signatures + blacklisting) stops
everything, at a negligible benign-throughput cost.
"""

from repro.core import format_table
from repro.pbft import (
    ClientBehavior,
    DefenseConfig,
    PbftAttack,
    ReplicaBehavior,
    SlowPrimaryPolicy,
    run_deployment,
)

from _helpers import banner, campaign_config

N_CLIENTS = 20


def deployments():
    return [
        ("paper PBFT", campaign_config()),
        ("per-request timers", campaign_config(per_request_timers=True)),
        ("aardvark suite", campaign_config(defenses=DefenseConfig.aardvark())),
    ]


def attacks():
    slow = ReplicaBehavior(slow_primary=SlowPrimaryPolicy())
    colluding = ReplicaBehavior(
        slow_primary=SlowPrimaryPolicy(serve_only_client="mclient-0")
    )
    def big_mac(mask):
        return PbftAttack(client_behavior=ClientBehavior(mac_mask=mask))

    colluder = ClientBehavior(broadcast_always=True)
    # (label, attack, malicious clients)
    return [
        ("benign", None, 0),
        ("big mac 0x00E (stall)", big_mac(0x00E), 1),
        ("big mac 0xFFF (storm)", big_mac(0xFFF), 1),
        ("slow primary", PbftAttack(replica_behaviors={0: slow}), 0),
        (
            "slow + colluder",
            PbftAttack(client_behavior=colluder, replica_behaviors={0: colluding}),
            1,
        ),
    ]


def run_matrix():
    matrix = {}
    for config_label, config in deployments():
        for attack_label, attack, n_malicious in attacks():
            result = run_deployment(
                config, N_CLIENTS, attack, n_malicious_clients=n_malicious, seed=2011
            )
            matrix[(attack_label, config_label)] = result
    return matrix


def report(matrix) -> None:
    banner(
        "Attack matrix — throughput (req/s) under each defense",
        "timer fix stops the slow primary only; the Aardvark suite stops "
        "every attack at negligible benign cost",
    )
    config_labels = [label for label, _ in deployments()]
    rows = []
    for attack_label, _, __ in attacks():
        row = [attack_label]
        for config_label in config_labels:
            result = matrix[(attack_label, config_label)]
            cell = f"{result.throughput_rps:.0f}"
            if result.crashed_replicas:
                cell += f" ({result.crashed_replicas} crashed)"
            row.append(cell)
        rows.append(row)
    print(format_table(["attack \\ defense"] + config_labels, rows))


def test_defense_matrix(benchmark):
    matrix = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    report(matrix)
    benign = matrix[("benign", "paper PBFT")].throughput_rps
    # The paper's PBFT falls to every attack.
    assert matrix[("big mac 0xFFF (storm)", "paper PBFT")].crashed_replicas >= 3
    assert matrix[("slow primary", "paper PBFT")].throughput_rps < 50
    # The timer fix saves the slow-primary cases...
    assert matrix[("slow primary", "per-request timers")].throughput_rps > benign * 0.4
    # ...but not the MAC-based stall.
    assert matrix[("big mac 0x00E (stall)", "per-request timers")].throughput_rps < benign * 0.5
    # The Aardvark suite holds everywhere, at low benign cost.
    assert matrix[("benign", "aardvark suite")].throughput_rps > benign * 0.85
    for attack_label, _, __ in attacks():
        hardened = matrix[(attack_label, "aardvark suite")]
        assert hardened.throughput_rps > benign * 0.5, attack_label
        assert hardened.crashed_replicas == 0, attack_label


if __name__ == "__main__":
    report(run_matrix())
