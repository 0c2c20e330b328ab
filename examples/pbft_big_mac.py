#!/usr/bin/env python3
"""The Big MAC attack, step by step (paper Sec. 6, after Aardvark).

A single malicious client corrupts chosen MACs in its authenticators. Masks
that keep the primary's tag valid while permanently starving 2f backups
poison a sequence number: everything behind it commits but cannot execute,
the view-change timers fire, and the view-change storm eventually crashes
the (faithfully fragile) implementation.

This example walks a handful of hand-picked masks from harmless to lethal
and prints what each does to a 20-client deployment.

    python examples/pbft_big_mac.py
"""

from repro import ClientBehavior, PbftAttack, PbftConfig, run_deployment
from repro.core import format_table

#: (mask, what the mask does). Bits: bit (n % 12) corrupts the n-th
#: generateMAC call; each transmission round uses 4 calls (replicas 0..3).
MASKS = [
    (0x000, "benign: no corruption"),
    (0x00F, "round 0 fully corrupt, retransmissions clean -> hiccup only"),
    (0x00E, "round 0: primary valid, backups corrupt -> transient stalls"),
    (0x111, "replica-0 tags always corrupt -> one view change, then heals"),
    (0x03C, "alternating-round corruption -> repeated stalls"),
    (0xEEE, "backups never verify -> poisoned seq in every view 0-primary"),
    (0x777, "replicas 0-2 never verify -> storm across views -> crash"),
    (0xFFF, "everything corrupt -> suspect request never served -> crash"),
]


def main() -> None:
    config = PbftConfig.campaign_scale()
    rows = []
    for mask, story in MASKS:
        result = run_deployment(
            config,
            n_correct_clients=20,
            attack=PbftAttack(client_behavior=ClientBehavior(mac_mask=mask)),
            n_malicious_clients=1,
            seed=42,
        )
        rows.append(
            [
                f"{mask:#05x}",
                f"{result.throughput_rps:.0f}",
                f"{result.tail_throughput_rps:.0f}",
                result.view_changes,
                result.crashed_replicas,
                story,
            ]
        )
    print("Big MAC attack family — 1 malicious client vs 20 correct clients\n")
    print(
        format_table(
            ["mask", "tput (req/s)", "tail tput", "view chg", "crashed", "what happens"],
            rows,
        )
    )
    print(
        "\nThe paper's headline finding: with the right (Gray-coded) mask a "
        "single malicious client drives PBFT into a view-change storm that "
        "crashes the implementation — throughput goes to zero."
    )


if __name__ == "__main__":
    main()
