"""Experiment D1 — the DHT redirection DoS (the paper's motivating example).

"A malicious user, controlling a single machine, can redirect tens of
thousands of correct nodes in the file sharing system towards any target,
even outside the BitTorrent pool" ([2], CCC 2010).

The bench measures victim load and amplification as functions of swarm
size, poison rate, and fanout, and asserts the attack's leverage: the
victim absorbs several messages for every message the attacker spends.
"""

from repro.core import format_table
from repro.dht import DhtAttack, run_dht_deployment

from _helpers import banner

SWARM_SIZES = (20, 40, 80)


def run_redirect():
    grid = {}
    for n_correct in SWARM_SIZES:
        grid[("swarm", n_correct)] = run_dht_deployment(
            n_correct=n_correct, attack=DhtAttack(1.0, 8), n_malicious=1, seed=3
        )
    for rate in (0.0, 0.5, 1.0):
        grid[("rate", rate)] = run_dht_deployment(
            n_correct=40, attack=DhtAttack(rate, 8), n_malicious=1, seed=3
        )
    for fanout in (1, 4, 8, 16):
        grid[("fanout", fanout)] = run_dht_deployment(
            n_correct=40, attack=DhtAttack(1.0, fanout), n_malicious=1, seed=3
        )
    return grid


def report(grid) -> None:
    banner(
        "DHT redirection DoS — one malicious node, victim outside the swarm",
        "victim load grows with swarm size and poisoning aggressiveness; "
        "amplification factor > 1 (the attacker gets leverage)",
    )
    rows = []
    for (kind, value), result in grid.items():
        rows.append(
            [
                f"{kind}={value}",
                f"{result.victim_load_mps:.0f}",
                result.attacker_messages,
                f"{result.amplification:.1f}x",
                result.lookups_completed,
            ]
        )
    print(format_table(
        ["sweep point", "victim load msg/s", "attacker msgs", "amplification", "lookups"],
        rows,
    ))


def test_redirection_amplifies(benchmark):
    grid = benchmark.pedantic(run_redirect, rounds=1, iterations=1)
    report(grid)
    assert grid[("rate", 0.0)].victim_messages == 0
    assert grid[("rate", 1.0)].amplification > 2.0
    # Victim load grows with swarm size (the co-opted army grows).
    loads = [grid[("swarm", n)].victim_load_mps for n in SWARM_SIZES]
    assert loads[-1] > loads[0]
    # Fanout buys leverage.
    assert grid[("fanout", 8)].victim_messages > grid[("fanout", 1)].victim_messages


if __name__ == "__main__":
    report(run_redirect())
