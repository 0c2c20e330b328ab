"""Command-line interface: ``python -m repro <command>``.

Commands
--------
campaign    run an AVD (or baseline) campaign against a target
resume      continue a killed campaign from its checkpoint file
worker      serve scenario executions to campaigns run with --hosts
explain     attribute a recorded campaign (telemetry JSONL) to its plugins
bigmac      sweep the Big MAC mask family against PBFT
slow-primary demonstrate the shared-timer bug and its fixes
dht-attack  measure the DHT redirection DoS
explore     coverage-guided protocol-message sequence exploration
power       tests-to-find along the attacker power ladder
lint        determinism/picklability/plugin-API static analysis
audit       attack-surface manifest + SRF validation-order audit

``campaign`` and ``resume`` assemble a campaign from the same parts:
:func:`_recipe` / :func:`_build_target`, :func:`_open_bus`,
:func:`_run_closing` and :func:`_report`.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional

from .core import (
    AvdExploration,
    CampaignResult,
    CampaignSpec,
    ControllerConfig,
    GeneticExploration,
    HybridExploration,
    POWER_LADDER,
    RandomExploration,
    WorkerStartError,
    available_plugins,
    describe_best,
    compare_campaigns,
    estimate_difficulty,
    format_table,
    resolve_workers,
    run_campaign,
    sparkline,
)
from .core.persistence import (
    load_checkpoint,
    restore_controller,
    save_campaign,
)
from .dht import DhtAttack, run_dht_deployment
from .pbft import (
    CORRECT_CLIENT,
    ClientBehavior,
    DefenseConfig,
    PbftAttack,
    PbftConfig,
    ReplicaBehavior,
    SlowPrimaryPolicy,
    run_deployment,
)
from .plugins import (
    AttackTimingPlugin,
    ClientCountPlugin,
    LibraryFaultPlugin,
    MacCorruptionPlugin,
    MessageReorderPlugin,
    MessageSynthesisPlugin,
    NetworkFaultPlugin,
    PrimaryBehaviorPlugin,
)
from .synthesis import SequenceExplorer, behaviours_of_interest
from .targets import DhtTarget, PbftTarget, RoutingPoisonPlugin

def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, rejected with a readable error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _workers_arg(text: str) -> int:
    """argparse type for worker counts: >= 0, where 0 means one per CPU."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = one per CPU), got {value}"
        )
    return value


def _hosts_arg(text: str) -> List[str]:
    """argparse type for ``--hosts``: ``host:port`` endpoints, comma-separated."""
    return [host.strip() for host in text.split(",") if host.strip()]


_TOOL_FACTORIES = {
    "mac": MacCorruptionPlugin,
    "clients": lambda: ClientCountPlugin(10, 100, 10),
    "reorder": MessageReorderPlugin,
    "net": NetworkFaultPlugin,
    "lfi": LibraryFaultPlugin,
    "primary": PrimaryBehaviorPlugin,
    "synth": MessageSynthesisPlugin,
    "timing": AttackTimingPlugin,
}


def _build_plugins(tool_names: List[str]):
    unknown = [name for name in tool_names if name not in _TOOL_FACTORIES]
    if unknown:
        raise SystemExit(
            f"unknown tools: {', '.join(unknown)} "
            f"(available: {', '.join(sorted(_TOOL_FACTORIES))})"
        )
    return [_TOOL_FACTORIES[name]() for name in tool_names]


def _pbft_config(fixed_timers: bool, aardvark: bool) -> PbftConfig:
    overrides = {}
    if fixed_timers:
        overrides["per_request_timers"] = True
    if aardvark:
        overrides["defenses"] = DefenseConfig.aardvark()
    return PbftConfig.campaign_scale(**overrides)


def _recipe(args) -> dict:
    """What is explored, and how. A checkpoint records it as its context,
    so ``repro resume`` rebuilds the campaign it continues, not the one
    its own flags happen to describe."""
    return {
        "strategy": args.strategy,
        "target": args.target,
        "tools": args.tools,
        "fixed_timers": args.fixed_timers,
        "aardvark": args.aardvark,
    }


def _build_target(recipe: dict):
    """(target, plugins) for a recipe — this invocation's or a checkpoint's."""
    if recipe["target"] == "pbft":
        plugins = _build_plugins(recipe["tools"].split(","))
        config = _pbft_config(recipe["fixed_timers"], recipe["aardvark"])
        return PbftTarget(plugins, config=config), plugins
    plugins = [RoutingPoisonPlugin()]
    return DhtTarget(plugins), plugins


#: ``--strategy`` name -> ``builder(target, plugins, seed, config)``. Only
#: avd and hybrid are backed by a controller: they alone take its config
#: (search tunables), checkpoint and publish telemetry. How scenarios
#: execute travels in the spec, to every strategy.
_STRATEGIES = {
    "avd": AvdExploration,
    "hybrid": HybridExploration,
    "random": lambda target, plugins, seed, config: RandomExploration(target, seed),
    "genetic": lambda target, plugins, seed, config: GeneticExploration(target, plugins, seed),
}


def _open_bus(path: Optional[str], progress: bool, resume_seq: Optional[int] = None):
    """The campaign event bus these flags ask for (None if neither does).

    Given a checkpoint's telemetry cursor the JSONL stream is appended to,
    after dropping a killed run's orphan events past the cursor.
    """
    if not path and not progress:
        return None
    from .telemetry import JsonlSink, TelemetryBus, TtyProgressSink

    bus = TelemetryBus()
    if path:
        bus.attach(JsonlSink(path, append=resume_seq is not None, resume_seq=resume_seq))
    if progress:
        bus.attach(TtyProgressSink())
    return bus


def _run_closing(job, bus, refusal: str = ""):
    """Run ``job()`` and close the bus, whatever happens. A ``ValueError``
    (a strategy refusing the spec, a checkpoint that does not match its
    campaign) and a :exc:`WorkerStartError` (no worker to run on) are the
    user's to read: a one-line exit, not a traceback."""
    try:
        return job()
    except ValueError as exc:
        raise SystemExit(f"{refusal}{exc}")
    except WorkerStartError as exc:
        raise SystemExit(f"cannot start workers: {exc}")
    finally:
        if bus is not None:
            bus.close()


def _report(campaign: CampaignResult, out: Optional[str], stream: Optional[str] = None) -> None:
    """Print the campaign summary; save the results if asked to."""
    if stream:
        print(f"telemetry written to {stream}")
    print(describe_best(compare_campaigns([campaign])))
    print("impact per test:", sparkline(campaign.impacts()))
    failures = campaign.failures()
    if failures:
        kinds = {}
        for failure in failures:
            kinds[failure.kind] = kinds.get(failure.kind, 0) + 1
        rendered = ", ".join(f"{kind}: {count}" for kind, count in sorted(kinds.items()))
        print(f"failures: {len(failures)} quarantined ({rendered})")
    if out:
        save_campaign(campaign, out)
        print(f"campaign saved to {out}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
def cmd_campaign(args) -> int:
    # The other strategies refuse these themselves, but only once they run:
    # by then --telemetry PATH has been opened, and truncated.
    if args.strategy not in ("avd", "hybrid"):
        controller_only = {
            "--novelty-weight": args.novelty_weight is not None,
            "--checkpoint": args.checkpoint,
            "--telemetry": args.telemetry,
            "--progress": args.progress,
        }
        for flag, given in controller_only.items():
            if given:
                raise SystemExit(
                    f"{flag} requires --strategy avd or hybrid (only they carry "
                    "a controller's resumable state and event bus)"
                )
    novelty_weight = args.novelty_weight
    if novelty_weight is None:
        hybrid = args.strategy == "hybrid"
        novelty_weight = HybridExploration.DEFAULT_NOVELTY_WEIGHT if hybrid else 0.0
    config = ControllerConfig(novelty_weight=novelty_weight)
    recipe = _recipe(args)
    workers = resolve_workers(args.workers)
    target, plugins = _build_target(recipe)
    strategy = _STRATEGIES[args.strategy](target, plugins, args.seed, config)
    if args.checkpoint:
        # With the recipe, everything `repro resume` needs to carry on.
        strategy.controller.checkpoint_context = dict(
            recipe, out=args.out, telemetry=args.telemetry
        )
    note = f" on {workers} workers" if workers > 1 else ""
    print(
        f"exploring {target.hyperspace.size:,} scenarios with "
        f"'{args.strategy}' for {args.budget} tests{note} ..."
    )
    bus = _open_bus(args.telemetry, args.progress)
    spec = CampaignSpec(
        budget=args.budget,
        workers=workers,
        batch_size=args.batch_size,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        hosts=args.hosts,
        telemetry=bus,
        scenario_timeout=args.scenario_timeout,
        max_attempts=args.retries,
    )
    campaign = _run_closing(lambda: run_campaign(strategy, spec), bus)
    _report(campaign, args.out, args.telemetry)
    return 0


def cmd_resume(args) -> int:
    try:
        data = load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot resume: {exc}")
    context = data["context"]
    if "strategy" not in context:  # written through the library API
        raise SystemExit("cannot resume: the checkpoint carries no `repro campaign` recipe")
    run_params = data["run"]
    # Telemetry continues on the stream the campaign started, or starts
    # afresh on a new path given here.
    stream = args.telemetry or context["telemetry"]
    continuing = stream == context["telemetry"]
    cursor = data["telemetry_seq"]
    bus = _open_bus(stream, args.progress, resume_seq=cursor if continuing else None)

    def job():
        controller = restore_controller(data, *_build_target(context), telemetry=bus)
        budget = args.budget if args.budget is not None else run_params["budget"]
        done = len(controller.results)
        if done >= budget:
            print(f"campaign already complete ({done}/{budget} tests); nothing to resume")
            return controller, None
        print(f"resuming campaign at test {done}/{budget} from {args.checkpoint} ...")
        # The run block holds the spec's execution fields as the campaign
        # ran them. batch_size shapes the trajectory; placement is
        # override-safe (wall-clock only).
        spec = dict(run_params, budget=budget, checkpoint_path=args.checkpoint)
        if args.workers is not None:
            spec["workers"] = args.workers
        if args.hosts is not None:
            spec["hosts"] = args.hosts
        controller.run(CampaignSpec(**spec))
        return controller, stream

    controller, written = _run_closing(job, bus, "cannot resume: ")
    campaign = CampaignResult(strategy=context["strategy"], results=list(controller.results))
    _report(campaign, args.out or context["out"], written)
    return 0


def cmd_worker(args) -> int:
    from .core.worker import WorkerServer, parse_host

    host, port = parse_host(args.listen)
    server = WorkerServer(host=host, port=port)
    print(f"repro worker listening on {server.endpoint}", flush=True)
    try:
        served = server.serve_forever(max_sessions=args.max_sessions)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        served = 0
    finally:
        server.shutdown()
    print(f"worker served {served} session(s)")
    return 0


def _load_audit_manifest(manifest_path: Optional[str]):
    """The audit manifest to report surface coverage against: an explicit
    ``--manifest``, else ``./audit_manifest.json``, else None."""
    if manifest_path is None and os.path.isfile("audit_manifest.json"):
        manifest_path = "audit_manifest.json"
    if not manifest_path:
        return None
    from .audit import load_manifest

    try:
        return load_manifest(manifest_path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read audit manifest: {exc}")


def _surface_for_stream(attribution, manifest_path: Optional[str]):
    """Surface coverage of the dimensions a stream explored (None if no
    manifest is available)."""
    manifest = _load_audit_manifest(manifest_path)
    if manifest is None:
        return None
    from .audit import surface_coverage

    return surface_coverage(manifest, list(attribution.dimension_positions))


def cmd_explain(args) -> int:
    from .telemetry.explain import (
        attribution_to_dict,
        explain_path,
        render_attribution,
    )
    from .telemetry.schema import SchemaError

    try:
        attribution = explain_path(args.stream)
    except OSError as exc:
        raise SystemExit(f"cannot read telemetry stream: {exc}")
    except SchemaError as exc:
        raise SystemExit(f"invalid telemetry stream: {exc}")
    surface = _surface_for_stream(attribution, args.manifest)
    if args.html:
        from .telemetry.html import observatory_document, render_page

        document = observatory_document(attribution)
        if surface is not None:
            from .audit import surface_to_dict

            document["summary"]["surface"] = surface_to_dict(surface)
        page = render_page(
            live=False,
            title=f"repro explain — {os.path.basename(args.stream)}",
            data=document,
        )
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(page)
        print(f"wrote {args.html}")
        if not args.json:
            return 0
    if args.json:
        document = attribution_to_dict(attribution)
        if surface is not None:
            from .audit import surface_to_dict

            document["surface"] = surface_to_dict(surface)
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        if attribution.events == 0:
            print(f"no events in {args.stream} (empty or header-only stream)")
            return 0
        print(render_attribution(attribution))
        if surface is not None:
            from .audit import render_surface

            print()
            print(render_surface(surface))
    return 0


def cmd_serve(args) -> int:
    from .telemetry.serve import serve_campaign

    manifest = _load_audit_manifest(args.manifest)
    surface_fn = None
    if manifest is not None:
        from .audit import surface_coverage, surface_to_dict

        def surface_fn(attribution):
            return surface_to_dict(
                surface_coverage(manifest, list(attribution.dimension_positions))
            )

    def ready(server) -> None:
        host, port = server.address
        mode = "following" if args.follow else "serving"
        print(f"{mode} {args.stream} at http://{host}:{port}/ (ctrl-c to stop)")

    from .telemetry.schema import SchemaError

    try:
        serve_campaign(
            args.stream,
            host=args.host,
            port=args.port,
            follow=args.follow,
            surface_fn=surface_fn,
            ready=ready,
        )
    except OSError as exc:
        raise SystemExit(f"cannot serve campaign: {exc}")
    except SchemaError as exc:
        raise SystemExit(f"invalid telemetry stream: {exc}")
    return 0


def cmd_bigmac(args) -> int:
    config = _pbft_config(args.fixed_timers, args.aardvark)
    rows = []
    for mask in (0x000, 0x00F, 0x00E, 0x111, 0xCCC, 0x777, 0xFFF):
        result = run_deployment(
            config,
            args.clients,
            PbftAttack(client_behavior=ClientBehavior(mac_mask=mask)),
            n_malicious_clients=1,
            seed=args.seed,
        )
        rows.append(
            [
                f"{mask:#05x}",
                f"{result.throughput_rps:.0f}",
                f"{result.tail_throughput_rps:.0f}",
                result.view_changes,
                result.crashed_replicas,
            ]
        )
    print(format_table(["mask", "tput req/s", "tail", "view chg", "crashed"], rows))
    return 0


def cmd_slow_primary(args) -> int:
    config = _pbft_config(args.fixed_timers, args.aardvark)
    slow = ReplicaBehavior(slow_primary=SlowPrimaryPolicy())
    colluding = ReplicaBehavior(
        slow_primary=SlowPrimaryPolicy(serve_only_client="mclient-0")
    )
    colluder = ClientBehavior(broadcast_always=True)
    # PbftAttack(client behaviour, replica behaviours by index)
    scenarios = [
        ("healthy", None, 0),
        ("slow primary", PbftAttack(CORRECT_CLIENT, {0: slow}), 0),
        ("slow + colluder", PbftAttack(colluder, {0: colluding}), 1),
    ]
    rows = []
    for label, attack, n_malicious in scenarios:
        result = run_deployment(
            config, args.clients, attack, n_malicious_clients=n_malicious, seed=args.seed
        )
        rows.append([label, f"{result.throughput_rps:.2f}", result.view_changes])
    print(format_table(["scenario", "useful tput (req/s)", "view chg"], rows))
    return 0


def cmd_dht_attack(args) -> int:
    result = run_dht_deployment(
        n_correct=args.swarm,
        attack=DhtAttack(poison_rate=args.poison_rate, fanout=args.fanout),
        n_malicious=args.attackers,
        seed=args.seed,
    )
    print(
        f"victim load   : {result.victim_load_mps:.0f} msg/s\n"
        f"attacker msgs : {result.attacker_messages}\n"
        f"amplification : {result.amplification:.1f}x\n"
        f"lookups done  : {result.lookups_completed}"
    )
    return 0


def cmd_explore(args) -> int:
    explorer = SequenceExplorer(seed=args.seed)
    result = explorer.explore(budget=args.budget)
    print(
        f"executions: {result.executions}, behaviours covered: "
        f"{len(result.total_coverage)}, corpus: {len(result.corpus)}"
    )
    print("coverage curve:", sparkline([float(v) for v in result.coverage_curve]))
    for marker, program in behaviours_of_interest(result).items():
        kinds = " -> ".join(op.kind for op in program)
        print(f"  {marker}: {kinds}")
    return 0


def cmd_power(args) -> int:
    rows = []
    for power in POWER_LADDER:
        toolbox = _build_plugins(["clients", "mac", "reorder", "net", "lfi", "primary", "synth"])
        plugins = available_plugins(toolbox, power)
        if not any(plugin.name != "client_count" for plugin in plugins):
            rows.append([power.label, 0, "no attack tools"])
            continue
        target = PbftTarget(plugins, config=PbftConfig.campaign_scale())
        campaign = run_campaign(
            AvdExploration(target, plugins, seed=args.seed), CampaignSpec(budget=args.budget)
        )
        estimate = estimate_difficulty(campaign.results, power)
        rows.append(
            [
                power.label,
                len(plugins),
                estimate.tests_to_find if estimate.found else f">{args.budget}",
            ]
        )
    print(format_table(["attacker", "tools", "tests-to-find"], rows))
    return 0


def cmd_lint(args) -> int:
    from .lint import LintEngine, count_by_rule, load_config

    config = load_config(args.config_root)
    engine = LintEngine(config=config)
    findings = engine.lint_paths(args.paths)
    if args.format == "json":
        # Findings arrive sorted by (path, line, col, rule) and key order is
        # canonical, so the document is byte-stable for CI diffing.
        print(
            json.dumps(
                {
                    "findings": [finding.to_json() for finding in findings],
                    "counts": count_by_rule(findings),
                    "total": len(findings),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"repro lint: {len(findings)} {noun}")
    return 1 if findings else 0


def _all_dimension_names() -> List[str]:
    """Every dimension any shipped plugin declares (both targets), sorted."""
    plugins = [factory() for factory in _TOOL_FACTORIES.values()]
    plugins.append(RoutingPoisonPlugin())
    return sorted({d.name for plugin in plugins for d in plugin.dimensions()})


def cmd_audit(args) -> int:
    from .audit import (
        build_manifest,
        manifest_to_json,
        render_surface,
        surface_coverage,
        surface_to_dict,
        write_manifest,
    )
    from .lint import LintEngine, load_config
    from .lint.rules import all_rules

    config = load_config(args.config_root)
    manifest = build_manifest(args.paths)
    srf_rules = [rule for rule in all_rules() if rule.family == "SRF"]
    findings = LintEngine(config=config, rules=srf_rules).lint_paths(args.paths)
    coverage = surface_coverage(manifest, _all_dimension_names())
    if args.manifest_out:
        write_manifest(manifest, args.manifest_out)
    if args.format == "json":
        document = {
            "findings": [finding.to_json() for finding in findings],
            "manifest": manifest,
            "surface": surface_to_dict(coverage),
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        summary = manifest["summary"]
        by_kind = summary["sites_by_kind"]
        kinds = ", ".join(f"{kind}: {count}" for kind, count in sorted(by_kind.items()))
        print(
            f"attack surface: {summary['modules']} modules, "
            f"{summary['handlers']} handlers, {summary['sites']} sites ({kinds})"
        )
        for error in manifest["parse_errors"]:
            print(f"  parse error: {error['file']}:{error['line']}: {error['message']}")
        print()
        print(render_surface(coverage))
        print()
        for finding in findings:
            print(finding.render())
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"repro audit: {len(findings)} SRF {noun}")
        if args.manifest_out:
            print(f"manifest written to {args.manifest_out}")
    return 1 if findings else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AVD: automated vulnerability discovery"
    )
    parser.add_argument(
        "--log-level", choices=_LOG_LEVELS, default=None, metavar="LEVEL",
        help=f"log to stderr at LEVEL ({', '.join(_LOG_LEVELS)}); default: "
             "warnings only, unformatted",
    )
    parser.add_argument(
        "-v", dest="log_level", action="store_const", const="INFO",
        help="same as --log-level INFO",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser("campaign", help="run an exploration campaign")
    campaign.add_argument("--target", choices=("pbft", "dht"), default="pbft")
    campaign.add_argument("--tools", default="mac,clients",
                          help=f"comma list of {', '.join(sorted(_TOOL_FACTORIES))}")
    campaign.add_argument("--strategy", choices=tuple(_STRATEGIES), default="avd")
    campaign.add_argument(
        "--novelty-weight", type=float, default=None, metavar="W",
        help="blend coverage novelty into parent selection (0 = pure impact, "
             "1 = pure novelty; default: 0 for avd, "
             f"{HybridExploration.DEFAULT_NOVELTY_WEIGHT} for hybrid)",
    )
    campaign.add_argument("--budget", type=_positive_int, default=40)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument(
        "--workers", type=_workers_arg, default=1,
        help="concurrent test executions (0 = one per CPU); the exploration "
             "trajectory for a given seed does not depend on this",
    )
    campaign.add_argument(
        "--batch-size", type=_positive_int, default=None,
        help="scenarios generated speculatively per round (default: twice "
             "the larger of --workers and the --hosts count when there are "
             "hosts or more than one worker, else 1)",
    )
    campaign.add_argument(
        "--hosts", type=_hosts_arg, default=[], metavar="HOST:PORT[,...]",
        help="run scenarios on these `repro worker` endpoints instead of on "
             "local worker processes; the exploration trajectory does not "
             "depend on this",
    )
    campaign.add_argument("--fixed-timers", action="store_true")
    campaign.add_argument("--aardvark", action="store_true")
    campaign.add_argument("--out", help="save results to this JSON file")
    campaign.add_argument(
        "--scenario-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock backstop on a scenario running on a worker "
             "(--workers >= 2 or --hosts), under every --strategy: a worker "
             "past it is reset and the scenario re-driven, then quarantined as "
             "timeout (default: none). In-process scenarios have none; every "
             "scenario's own deadline is its simulation's event budget. "
             "`repro resume` keeps the checkpoint's value",
    )
    campaign.add_argument(
        "--retries", type=_positive_int, default=3, metavar="N",
        help="attempts per scenario whose worker died or hit the backstop, "
             "before quarantine (default: 3; `repro resume` keeps the "
             "checkpoint's value)",
    )
    campaign.add_argument(
        "--checkpoint", metavar="PATH",
        help="write a resumable campaign checkpoint to PATH (avd only); "
             "continue a killed run with `repro resume PATH`",
    )
    campaign.add_argument(
        "--checkpoint-every", type=_positive_int, default=25, metavar="K",
        help="checkpoint at least every K executed scenarios (default: 25)",
    )
    campaign.add_argument(
        "--telemetry", metavar="PATH",
        help="record the campaign event stream as JSONL to PATH (avd only); "
             "inspect it afterwards with `repro explain PATH`",
    )
    campaign.add_argument(
        "--progress", action="store_true",
        help="live one-line campaign progress on stderr (avd only)",
    )
    campaign.set_defaults(func=cmd_campaign)

    resume = sub.add_parser(
        "resume", help="continue a killed campaign from its checkpoint"
    )
    resume.add_argument("checkpoint", help="checkpoint file written by campaign --checkpoint")
    resume.add_argument(
        "--budget", type=_positive_int, default=None,
        help="total campaign budget (default: the checkpointed budget)",
    )
    resume.add_argument(
        "--workers", type=_workers_arg, default=None,
        help="override the worker count (safe: the trajectory does not depend on it)",
    )
    resume.add_argument(
        "--hosts", type=_hosts_arg, default=None, metavar="HOST:PORT[,...]",
        help="override the checkpointed `repro worker` endpoints; \"\" runs "
             "locally (safe: the trajectory does not depend on it)",
    )
    resume.add_argument("--out", help="save results to this JSON file (default: checkpointed --out)")
    resume.add_argument(
        "--telemetry", metavar="PATH",
        help="telemetry JSONL path (default: continue the checkpointed stream)",
    )
    resume.add_argument(
        "--progress", action="store_true",
        help="live one-line campaign progress on stderr",
    )
    resume.set_defaults(func=cmd_resume)

    worker = sub.add_parser(
        "worker", help="serve scenario executions to campaigns run with --hosts"
    )
    worker.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="bind address (default: 127.0.0.1 on an ephemeral port, "
             "printed at startup)",
    )
    worker.add_argument(
        "--max-sessions", type=_positive_int, default=None, metavar="N",
        help="exit after serving N campaign sessions (default: serve forever)",
    )
    worker.set_defaults(func=cmd_worker)

    explain = sub.add_parser(
        "explain", help="attribute a recorded campaign to its plugins"
    )
    explain.add_argument(
        "stream", help="telemetry JSONL written by campaign --telemetry"
    )
    explain.add_argument(
        "--json", action="store_true",
        help="machine-readable attribution instead of the rendered report",
    )
    explain.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="attack-surface manifest for the surface-coverage rollup "
             "(default: ./audit_manifest.json when present)",
    )
    explain.add_argument(
        "--html", default=None, metavar="PATH",
        help="also write a self-contained single-file HTML report "
             "(same CampaignView snapshot as the text/JSON output)",
    )
    explain.set_defaults(func=cmd_explain)

    serve = sub.add_parser(
        "serve", help="live campaign observatory over a telemetry stream"
    )
    serve.add_argument(
        "stream", help="telemetry JSONL written by campaign --telemetry"
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8377,
        help="bind port (default: 8377; 0 picks a free port)",
    )
    serve.add_argument(
        "--follow", action="store_true",
        help="tail a live stream, folding events as the campaign flushes them "
             "(waits for the file to appear)",
    )
    serve.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="attack-surface manifest for the surface-coverage rollup "
             "(default: ./audit_manifest.json when present)",
    )
    serve.set_defaults(func=cmd_serve)

    bigmac = sub.add_parser("bigmac", help="sweep the Big MAC mask family")
    bigmac.add_argument("--clients", type=int, default=20)
    bigmac.add_argument("--seed", type=int, default=0)
    bigmac.add_argument("--fixed-timers", action="store_true")
    bigmac.add_argument("--aardvark", action="store_true")
    bigmac.set_defaults(func=cmd_bigmac)

    slow = sub.add_parser("slow-primary", help="the shared-timer bug")
    slow.add_argument("--clients", type=int, default=20)
    slow.add_argument("--seed", type=int, default=0)
    slow.add_argument("--fixed-timers", action="store_true")
    slow.add_argument("--aardvark", action="store_true")
    slow.set_defaults(func=cmd_slow_primary)

    dht = sub.add_parser("dht-attack", help="the DHT redirection DoS")
    dht.add_argument("--swarm", type=int, default=40)
    dht.add_argument("--attackers", type=int, default=1)
    dht.add_argument("--poison-rate", type=float, default=1.0)
    dht.add_argument("--fanout", type=int, default=8)
    dht.add_argument("--seed", type=int, default=0)
    dht.set_defaults(func=cmd_dht_attack)

    explore = sub.add_parser("explore", help="protocol-sequence exploration")
    explore.add_argument("--budget", type=int, default=60)
    explore.add_argument("--seed", type=int, default=0)
    explore.set_defaults(func=cmd_explore)

    power = sub.add_parser("power", help="attacker power ladder")
    power.add_argument("--budget", type=int, default=20)
    power.add_argument("--seed", type=int, default=0)
    power.set_defaults(func=cmd_power)

    lint = sub.add_parser(
        "lint", help="determinism/picklability/plugin-API static analysis"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text = compiler-style lines; json = machine-readable findings "
             "+ per-rule counts (for CI/benchmark diffing)",
    )
    lint.add_argument(
        "--config-root", default=None, metavar="DIR",
        help="directory whose pyproject.toml supplies [tool.repro-lint] "
             "(default: the current directory)",
    )
    lint.set_defaults(func=cmd_lint)

    audit = sub.add_parser(
        "audit", help="attack-surface manifest + SRF validation-order audit"
    )
    audit.add_argument(
        "paths", nargs="*", default=["src/repro/pbft", "src/repro/dht"],
        help="target protocol code to audit (default: src/repro/pbft src/repro/dht)",
    )
    audit.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text = surface summary + coverage + findings; json = the "
             "manifest, SRF findings, and surface coverage in one document",
    )
    audit.add_argument(
        "--manifest-out", default=None, metavar="PATH",
        help="also write the canonical manifest JSON to PATH "
             "(CI diffs this against the committed audit_manifest.json)",
    )
    audit.add_argument(
        "--config-root", default=None, metavar="DIR",
        help="directory whose pyproject.toml supplies [tool.repro-lint] "
             "(default: the current directory)",
    )
    audit.set_defaults(func=cmd_audit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        logging.basicConfig(
            level=args.log_level,
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())


__all__ = ["build_parser", "main"]
