#!/usr/bin/env python3
"""The slow-primary bug AVD discovered (paper Sec. 6).

PBFT's implementation keeps ONE view-change timer per replica instead of
one per request. A malicious primary that executes a single request per
timer period keeps resetting every backup's timer — so it is never deposed
— while ignoring everything else:

- at the paper's 5-second timer: throughput collapses to 0.2 req/s;
- with a cooperating malicious client, the primary serves only the
  colluder: useful throughput is exactly 0;
- with the protocol-specified per-request timers, the backups depose the
  slow primary after one view change and throughput recovers.

    python examples/pbft_slow_primary.py [--paper-scale]
"""

import argparse

from repro import (
    ClientBehavior,
    PbftAttack,
    PbftConfig,
    ReplicaBehavior,
    SlowPrimaryPolicy,
    run_deployment,
)
from repro.core import format_table


def run_variants(config: PbftConfig, label: str) -> None:
    slow = ReplicaBehavior(slow_primary=SlowPrimaryPolicy())
    colluding = ReplicaBehavior(
        slow_primary=SlowPrimaryPolicy(serve_only_client="mclient-0")
    )
    slow_attack = PbftAttack(replica_behaviors={0: slow})
    colluding_attack = PbftAttack(
        client_behavior=ClientBehavior(broadcast_always=True),
        replica_behaviors={0: colluding},
    )
    fixed = config.with_overrides(per_request_timers=True)

    scenarios = [
        ("healthy", config, None, 0),
        ("slow primary (buggy shared timer)", config, slow_attack, 0),
        ("slow primary + colluding client", config, colluding_attack, 1),
        ("slow primary, FIXED per-request timers", fixed, slow_attack, 0),
    ]
    rows = []
    for name, cfg, attack, n_malicious in scenarios:
        result = run_deployment(
            cfg,
            n_correct_clients=20,
            attack=attack,
            n_malicious_clients=n_malicious,
            seed=7,
        )
        rows.append(
            [name, f"{result.throughput_rps:.2f}", result.view_changes, result.new_views]
        )
    timer_s = config.view_change_timer_us / 1_000_000
    print(f"\n{label} (view-change timer = {timer_s:g} s)")
    print(format_table(["scenario", "useful tput (req/s)", "view chg", "new views"], rows))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's 5 s timer (slower: ~40 s of simulated time)",
    )
    args = parser.parse_args()

    if args.paper_scale:
        # One request per 5 s period = the paper's 0.2 req/s.
        config = PbftConfig.paper_scale(
            warmup_us=2_000_000, measurement_us=30_000_000
        )
        run_variants(config, "paper scale")
        print("\nExpected from the paper: 0.2 req/s (one request per 5 s timer period).")
    else:
        config = PbftConfig.campaign_scale()
        run_variants(config, "campaign scale")
        print(
            "\nAt this scale the timer period is 0.25 s, so the slow primary "
            "sustains ~5 req/s — the same 1-request-per-period collapse as "
            "the paper's 0.2 req/s at its 5 s timer."
        )


if __name__ == "__main__":
    main()
