#!/usr/bin/env python3
"""The DHT redirection DoS (the paper's motivating example, ref [2]).

One malicious node in a Kademlia-style swarm answers FIND_NODE queries with
fabricated contacts that all point at a victim — which may be entirely
outside the swarm. Correct nodes then direct their lookup and announce
traffic at the victim: a distributed DoS the attacker pays almost nothing
for.

The script sweeps swarm sizes and shows the amplification factor, then lets
AVD find the most damaging poisoning parameters on its own.

    python examples/dht_redirection.py
"""

from repro import AvdExploration, CampaignSpec, DhtAttack, run_campaign, run_dht_deployment
from repro.core import format_table
from repro.targets import DhtTarget, RoutingPoisonPlugin


def sweep_swarm_sizes() -> None:
    rows = []
    for n_correct in (20, 40, 80, 120):
        result = run_dht_deployment(
            n_correct=n_correct, attack=DhtAttack(1.0, 8), n_malicious=1, seed=3
        )
        rows.append(
            [
                n_correct,
                f"{result.victim_load_mps:.0f}",
                result.attacker_messages,
                f"{result.amplification:.1f}x",
            ]
        )
    print("One malicious node redirecting a correct swarm at a victim:\n")
    print(
        format_table(
            ["correct nodes", "victim load (msg/s)", "attacker msgs", "amplification"],
            rows,
        )
    )


def let_avd_find_it() -> None:
    plugin = RoutingPoisonPlugin()
    target = DhtTarget([plugin], n_correct=40)
    campaign = run_campaign(AvdExploration(target, [plugin], seed=5), CampaignSpec(budget=15))
    best = campaign.best
    print(
        f"\nAVD's strongest scenario after {len(campaign.results)} tests: "
        f"{best.params} -> impact {best.impact:.3f} "
        f"(victim load {best.measurement.victim_load_mps:.0f} msg/s, "
        f"amplification {best.measurement.amplification:.1f}x)"
    )


def main() -> None:
    sweep_swarm_sizes()
    let_avd_find_it()


if __name__ == "__main__":
    main()
