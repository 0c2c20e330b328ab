"""The command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in (
        "campaign", "bigmac", "slow-primary", "dht-attack", "explore", "power", "lint",
    ):
        args = parser.parse_args([command] if command != "campaign" else ["campaign"])
        assert callable(args.func)


def test_unknown_tool_is_a_clean_error():
    with pytest.raises(SystemExit):
        main(["campaign", "--tools", "nonsense", "--budget", "2"])


def test_dht_attack_command(capsys):
    assert main(["dht-attack", "--swarm", "12", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "amplification" in out


def test_explore_command(capsys):
    assert main(["explore", "--budget", "15", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "behaviours covered" in out


def test_campaign_command_saves_results(tmp_path, capsys):
    out_file = tmp_path / "campaign.json"
    code = main(
        [
            "campaign",
            "--target", "pbft",
            "--tools", "mac,clients",
            "--budget", "4",
            "--seed", "1",
            "--out", str(out_file),
        ]
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert len(data["results"]) == 4
    out = capsys.readouterr().out
    assert "impact per test" in out


def test_campaign_workers_flag_keeps_trajectory(tmp_path, capsys):
    """--workers parallelizes execution without changing what is explored."""
    serial_file = tmp_path / "serial.json"
    parallel_file = tmp_path / "parallel.json"
    base = ["campaign", "--tools", "mac", "--budget", "4", "--seed", "7"]
    assert main(base + ["--batch-size", "2", "--out", str(serial_file)]) == 0
    assert main(base + ["--workers", "2", "--batch-size", "2",
                        "--out", str(parallel_file)]) == 0
    serial = json.loads(serial_file.read_text())
    parallel = json.loads(parallel_file.read_text())
    assert [r["coords"] for r in serial["results"]] == [
        r["coords"] for r in parallel["results"]
    ]
    assert [r["impact"] for r in serial["results"]] == [
        r["impact"] for r in parallel["results"]
    ]
    assert "on 2 workers" in capsys.readouterr().out


def test_campaign_dht_target(capsys):
    assert main(["campaign", "--target", "dht", "--budget", "3", "--seed", "2"]) == 0
    assert "best impact" in capsys.readouterr().out


def test_parser_knows_resume():
    args = build_parser().parse_args(["resume", "some.ckpt.json"])
    assert callable(args.func)
    assert args.checkpoint == "some.ckpt.json"


def test_campaign_crash_safety_flags_smoke(capsys):
    code = main(
        [
            "campaign",
            "--tools", "mac",
            "--budget", "3",
            "--seed", "2",
            "--scenario-timeout", "30",
            "--retries", "2",
        ]
    )
    assert code == 0
    assert "best impact" in capsys.readouterr().out


def test_random_campaign_checkpoints_and_resumes(tmp_path, capsys):
    """A baseline checkpoints and resumes like AVD: the resumed run saves
    the uninterrupted run's bytes."""
    ckpt = tmp_path / "ckpt.json"
    resumed_file = tmp_path / "resumed.json"
    straight_file = tmp_path / "straight.json"
    base = ["campaign", "--strategy", "random", "--tools", "mac", "--seed", "5"]
    assert main(base + ["--budget", "3", "--checkpoint", str(ckpt)]) == 0
    assert main(["resume", str(ckpt), "--budget", "6", "--out", str(resumed_file)]) == 0
    assert "resuming campaign at test 3/6" in capsys.readouterr().out
    assert main(base + ["--budget", "6", "--out", str(straight_file)]) == 0
    assert json.loads(resumed_file.read_text())["strategy"] == "random"
    assert resumed_file.read_bytes() == straight_file.read_bytes()


def test_novelty_weight_requires_the_avd_strategy():
    with pytest.raises(SystemExit, match="--novelty-weight requires --strategy avd or hybrid"):
        main(["campaign", "--strategy", "random", "--budget", "2", "--novelty-weight", "0.5"])


def test_resume_continues_to_a_larger_budget(tmp_path, capsys):
    """campaign --checkpoint, then resume --budget N: the combined run
    matches an uninterrupted seed-matched campaign test for test."""
    ckpt = tmp_path / "ckpt.json"
    resumed_file = tmp_path / "resumed.json"
    reference_file = tmp_path / "reference.json"
    base = ["campaign", "--tools", "mac", "--seed", "9"]
    assert main(base + [
        "--budget", "4",
        "--checkpoint", str(ckpt),
        "--checkpoint-every", "2",
    ]) == 0
    assert main(["resume", str(ckpt), "--budget", "8", "--out", str(resumed_file)]) == 0
    assert "resuming campaign at test 4/8" in capsys.readouterr().out
    assert main(base + ["--budget", "8", "--out", str(reference_file)]) == 0
    resumed = json.loads(resumed_file.read_text())
    reference = json.loads(reference_file.read_text())
    assert len(resumed["results"]) == 8
    assert [r["coords"] for r in resumed["results"]] == [
        r["coords"] for r in reference["results"]
    ]
    assert [r["impact"] for r in resumed["results"]] == [
        r["impact"] for r in reference["results"]
    ]


def test_resume_of_a_complete_campaign_is_a_noop(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    assert main(
        ["campaign", "--tools", "mac", "--budget", "3", "--seed", "1",
         "--checkpoint", str(ckpt)]
    ) == 0
    capsys.readouterr()
    assert main(["resume", str(ckpt)]) == 0
    assert "nothing to resume" in capsys.readouterr().out


def _stale_checkpoint(ckpt):
    """A real checkpoint whose header no longer matches its results."""
    campaign = ["campaign", "--tools", "mac", "--seed", "9", "--budget", "2"]
    assert main(campaign + ["--checkpoint", str(ckpt)]) == 0
    header, *records = ckpt.read_text().splitlines()
    recipe = json.loads(header)
    recipe["campaign_seed"] += 1
    ckpt.write_text("\n".join([json.dumps(recipe), *records]) + "\n")


@pytest.mark.parametrize(
    "content, expected",
    [
        ('{\n  "format_version": 2,\n  "kind": "avd-checkpoint"\n}', "version: 2"),
        ('{"format_version": 2, "kind": "avd-checkpoint", "context": {"shard": {}}}',
         "version: 2"),
        ("{ not json", "cannot resume"),
        (None, "No such file"),
        (_stale_checkpoint, "diverges from its campaign at test 0"),
        ('{"format_version": 3, "kind": "avd-checkpoint"}', "version: 3"),
        ('{"format_version": 4, "kind": "avd-checkpoint"}', "version: 4"),
        ('{"format_version": 5, "kind": "avd-checkpoint", "config": {}}', "version: 5"),
    ],
    ids=["old-version", "sharded", "not-json", "missing", "stale", "v3", "v4", "v5"],
)
def test_resume_on_a_bad_checkpoint_is_a_clean_error(tmp_path, content, expected):
    """A checkpoint `resume` cannot read exits 1 with one line, no traceback."""
    ckpt = tmp_path / "ckpt.json"
    if callable(content):
        content(ckpt)
    elif content is not None:
        ckpt.write_text(content)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "resume", str(ckpt)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 1
    assert "cannot resume" in result.stderr and expected in result.stderr
    assert "Traceback" not in result.stderr


def test_resume_keeps_the_hybrid_strategy_label(tmp_path):
    """A killed-then-resumed hybrid campaign saves the same bytes as the
    uninterrupted one (the strategy label comes from the checkpoint)."""
    ckpt = tmp_path / "ckpt.json"
    resumed_file = tmp_path / "resumed.json"
    straight_file = tmp_path / "straight.json"
    base = ["campaign", "--strategy", "hybrid", "--tools", "mac", "--seed", "3"]
    assert main(base + ["--budget", "3", "--checkpoint", str(ckpt)]) == 0
    assert main(["resume", str(ckpt), "--budget", "6", "--out", str(resumed_file)]) == 0
    assert main(base + ["--budget", "6", "--out", str(straight_file)]) == 0
    assert json.loads(resumed_file.read_text())["strategy"] == "hybrid"
    assert resumed_file.read_bytes() == straight_file.read_bytes()


def test_parser_rejects_retired_bench(capsys):
    """`repro bench` was retired for benchmark/run.py: it is an unknown
    command (exit 2) and --help no longer lists it."""
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "bench" not in capsys.readouterr().out


def test_parser_knows_explain():
    args = build_parser().parse_args(["explain", "campaign.jsonl", "--json"])
    assert callable(args.func)
    assert args.stream == "campaign.jsonl"
    assert args.json


def test_random_campaign_publishes_telemetry(tmp_path, capsys):
    from repro.telemetry import validate_jsonl

    stream = tmp_path / "campaign.jsonl"
    assert main(
        ["campaign", "--strategy", "random", "--tools", "mac", "--budget", "3",
         "--telemetry", str(stream), "--progress"]
    ) == 0
    captured = capsys.readouterr()
    assert "telemetry written to" in captured.out
    assert "best impact" in captured.err
    types = [type_name for _, type_name in validate_jsonl(stream.read_text().splitlines())]
    assert types.count("ScenarioExecuted") == 3


def test_explain_json_reads_a_random_campaign(tmp_path, capsys):
    stream = tmp_path / "campaign.jsonl"
    out = tmp_path / "campaign.json"
    assert main(
        ["campaign", "--strategy", "random", "--tools", "mac", "--budget", "4",
         "--seed", "2", "--telemetry", str(stream), "--out", str(out)]
    ) == 0
    capsys.readouterr()
    assert main(["explain", str(stream), "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    impacts = [result["impact"] for result in json.loads(out.read_text())["results"]]
    assert document["campaign"]["tests"] == 4
    assert document["best"]["impact"] == max(impacts)
    # Every shot was published as generated: all four are random shots,
    # and the best one is its own complete, one-step lineage.
    assert document["random_generated"] == 4 and document["plugins"] == {}
    assert document["lineage_complete"] and document["lineage_break"] is None
    assert [step["origin"] for step in document["lineage"]] == ["random"]


def test_explain_follows_an_annealing_walk_to_its_random_root(tmp_path, capsys):
    """Each annealing step names the walker it mutated (``parent_key``), so
    the best scenario's lineage runs back through the walk, and each step's
    gain is over its own parent, not over zero."""
    stream = tmp_path / "campaign.jsonl"
    assert main(
        ["campaign", "--strategy", "annealing", "--tools", "mac", "--budget", "3",
         "--seed", "2", "--telemetry", str(stream)]
    ) == 0
    capsys.readouterr()
    assert main(["explain", str(stream), "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    lineage = document["lineage"]
    assert document["lineage_complete"] and len(lineage) >= 2
    assert lineage[0]["origin"] == "random" and lineage[0]["changed"] == []
    for parent, child in zip(lineage, lineage[1:]):
        assert child["origin"] == "mutation" and child["plugin"] == "mac_corruption"
        assert child["changed"] == ["mac_mask_gray"]
        assert child["coords"] != parent["coords"]
    stats = document["plugins"]["mac_corruption"]
    assert document["random_generated"] == 1 and stats["generated"] == 2
    assert stats["total_gain"] == pytest.approx(lineage[-1]["impact"] - lineage[0]["impact"])


def test_campaign_telemetry_then_explain(tmp_path, capsys):
    """campaign --telemetry writes a valid stream that `repro explain` reads."""
    from repro.telemetry import validate_jsonl

    stream = tmp_path / "campaign.jsonl"
    assert main(
        ["campaign", "--tools", "mac,clients", "--budget", "4", "--seed", "1",
         "--telemetry", str(stream)]
    ) == 0
    assert "telemetry written to" in capsys.readouterr().out
    validated = validate_jsonl(stream.read_text().splitlines())
    types = [type_name for _, type_name in validated]
    assert types.count("ScenarioExecuted") == 4

    assert main(["explain", str(stream)]) == 0
    out = capsys.readouterr().out
    assert "plugin attribution" in out
    assert "best-scenario lineage" in out

    assert main(["explain", str(stream), "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema_version"] == 1
    assert document["campaign"]["tests"] == 4


def test_explain_rejects_missing_and_invalid_streams(tmp_path):
    with pytest.raises(SystemExit, match="cannot read"):
        main(["explain", str(tmp_path / "nope.jsonl")])
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"v":1,"seq":0,"type":"Nope"}\n')
    with pytest.raises(SystemExit, match="invalid telemetry"):
        main(["explain", str(bad)])


def test_resume_continues_the_telemetry_stream(tmp_path):
    """resume appends to the checkpointed stream without reusing seq numbers."""
    from repro.telemetry import validate_jsonl

    ckpt = tmp_path / "ckpt.json"
    stream = tmp_path / "campaign.jsonl"
    assert main(
        ["campaign", "--tools", "mac", "--seed", "9",
         "--budget", "4",
         "--checkpoint", str(ckpt),
         "--checkpoint-every", "2",
         "--telemetry", str(stream)]
    ) == 0
    assert main(["resume", str(ckpt), "--budget", "6"]) == 0
    validated = validate_jsonl(stream.read_text().splitlines())
    types = [type_name for _, type_name in validated]
    assert types.count("ScenarioExecuted") == 6


def test_resume_truncates_orphan_telemetry_from_a_killed_run(tmp_path):
    """Events past the checkpoint cursor (a killed run's tail) are dropped
    before the resumed controller republishes those sequence numbers."""
    from repro.telemetry import validate_jsonl

    ckpt = tmp_path / "ckpt.json"
    stream = tmp_path / "campaign.jsonl"
    assert main(
        ["campaign", "--tools", "mac", "--seed", "9",
         "--budget", "4",
         "--checkpoint", str(ckpt),
         "--telemetry", str(stream)]
    ) == 0
    cursor = json.loads(ckpt.read_text().splitlines()[-1])["telemetry_seq"]
    with open(stream, "a", encoding="utf-8") as handle:
        handle.write(
            json.dumps({"v": 1, "seq": cursor, "type": "ParentSelected",
                        "parent_key": {"mac_mask_gray": 1}, "parent_impact": 0.5})
            + "\n"
        )
        handle.write('{"v": 1, "seq": %d, "ty' % (cursor + 1))  # torn line
    assert main(["resume", str(ckpt), "--budget", "6"]) == 0
    validated = validate_jsonl(stream.read_text().splitlines())
    types = [type_name for _, type_name in validated]
    assert types.count("ScenarioExecuted") == 6


def test_campaign_progress_smoke(capsys):
    assert main(
        ["campaign", "--tools", "mac", "--budget", "3", "--seed", "2", "--progress"]
    ) == 0
    assert "best impact" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# distributed campaign fabric: validation, worker
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv",
    [
        ["campaign", "--workers", "-1"],
        ["campaign", "--batch-size", "0"],
        ["campaign", "--budget", "0"],
        ["campaign", "--checkpoint-every", "0"],
        ["campaign", "--retries", "0"],
        ["campaign", "--workers", "two"],
        ["resume", "x.json", "--workers", "-1"],
        ["resume", "x.json", "--budget", "0"],
    ],
)
def test_sub_one_counts_fail_with_a_clear_error(argv, capsys):
    """Satellite contract: bad counts are argparse errors, not tracebacks."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2  # argparse usage error, not a crash
    err = capsys.readouterr().err
    assert "must be >=" in err or "expected an integer" in err


def test_backend_flag_is_gone(capsys):
    """Placement follows from --workers/--hosts: `--backend` is an unknown
    argument (exit 2) and --help does not list it."""
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--tools", "mac", "--budget", "2", "--backend", "socket"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["campaign", "--help"])
    assert "--backend" not in capsys.readouterr().out


def test_fault_isolation_flag_is_gone(capsys):
    """Every strategy runs the isolated contract; there is no opting out."""
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--tools", "mac", "--budget", "2", "--no-fault-isolation"])
    assert excinfo.value.code == 2
    assert "--no-fault-isolation" in capsys.readouterr().err


def test_shard_and_merge_surface_is_gone(capsys):
    """`--workers`/`--hosts` is the one way to spread a campaign: the shard
    flags and `repro merge` are unknown to the parser (exit 2) and --help
    does not mention them."""
    for argv in (
        ["campaign", "--shards", "2"],
        ["campaign", "--shard-index", "0"],
        ["campaign", "--shard-dir", "d"],
        ["campaign", "--exchange-every", "5"],
        ["merge", "d"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv
    capsys.readouterr()
    for argv in (["--help"], ["campaign", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
        out = capsys.readouterr().out
        assert "shard" not in out and "merge" not in out


def test_worker_command_serves_a_socket_campaign(tmp_path, capsys):
    import threading

    from repro.core.worker import WorkerServer, parse_host

    server = WorkerServer().serve_in_thread()
    try:
        out_file = tmp_path / "sock.json"
        assert main(["campaign", "--tools", "mac", "--budget", "4", "--seed", "5",
                     "--workers", "2", "--batch-size", "2",
                     "--hosts", server.endpoint,
                     "--out", str(out_file)]) == 0
        remote = json.loads(out_file.read_text())
        ref_file = tmp_path / "ref.json"
        assert main(["campaign", "--tools", "mac", "--budget", "4", "--seed", "5",
                     "--workers", "2", "--batch-size", "2",
                     "--out", str(ref_file)]) == 0
        reference = json.loads(ref_file.read_text())
        assert [r["coords"] for r in remote["results"]] == [
            r["coords"] for r in reference["results"]
        ]
    finally:
        server.shutdown()
    assert parse_host("example.org:17") == ("example.org", 17)
    # Port 0 = kernel-assigned ephemeral port, the --listen default.
    assert parse_host("127.0.0.1:0") == ("127.0.0.1", 0)
    with pytest.raises(ValueError, match="port out of range"):
        parse_host("host:65536")


def test_parser_knows_worker():
    parser = build_parser()
    worker_args = parser.parse_args(["worker", "--listen", "127.0.0.1:0",
                                     "--max-sessions", "1"])
    assert callable(worker_args.func) and worker_args.max_sessions == 1


def _campaign_subprocess(cwd, *flags):
    cwd.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *flags, "campaign", "--tools", "mac,timing",
         "--budget", "2", "--seed", "1", "--telemetry", "run.jsonl"],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def test_log_level_surfaces_snapshot_captures_on_stderr_only(tmp_path):
    """`--log-level DEBUG` writes the snapshot cache's capture line to
    stderr; stdout and the telemetry stream are byte-identical without it."""
    quiet = _campaign_subprocess(tmp_path / "quiet")
    loud = _campaign_subprocess(tmp_path / "loud", "--log-level", "DEBUG")
    assert quiet.returncode == loud.returncode == 0
    assert "DEBUG repro.core.snapshot: captured pbft:" in loud.stderr
    assert quiet.stderr == ""
    assert loud.stdout == quiet.stdout
    assert (tmp_path / "loud" / "run.jsonl").read_bytes() == (
        tmp_path / "quiet" / "run.jsonl"
    ).read_bytes()


def test_v_is_log_level_info():
    assert build_parser().parse_args(["-v", "lint"]).log_level == "INFO"
    assert build_parser().parse_args(["lint"]).log_level is None


# ---------------------------------------------------------------------------
# placement is declared: no worker, no campaign; resume keeps its hosts
# ---------------------------------------------------------------------------
def _repro(cwd, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def test_campaign_with_no_reachable_host_exits_1_and_saves_nothing(tmp_path):
    result = _repro(tmp_path, "campaign", "--tools", "mac", "--budget", "2",
                    "--hosts", "127.0.0.1:9", "--out", "out.json")
    assert result.returncode == 1
    assert result.stderr.startswith("cannot start workers: no worker answered: 127.0.0.1:9")
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out.json").exists()


def test_a_hosts_campaign_resumes_on_its_hosts(tmp_path):
    import shutil

    from repro.core.persistence import load_checkpoint
    from repro.core.worker import WorkerServer

    base = ["campaign", "--tools", "mac", "--seed", "9", "--batch-size", "2"]
    ckpt, local_ckpt = tmp_path / "ckpt.json", tmp_path / "local.ckpt.json"
    resumed, local, straight = (tmp_path / f"{n}.json" for n in ("resumed", "local", "straight"))
    server = WorkerServer().serve_in_thread()
    try:
        assert main(base + ["--budget", "4", "--hosts", server.endpoint,
                            "--checkpoint", str(ckpt)]) == 0
        assert load_checkpoint(ckpt)["run"]["hosts"] == [server.endpoint]
        shutil.copy(ckpt, local_ckpt)
        assert server.sessions_served == 1
        assert main(["resume", str(ckpt), "--budget", "8", "--out", str(resumed)]) == 0
        assert server.sessions_served == 2  # resume dialled the recorded host
        with pytest.raises(SystemExit, match="^cannot start workers: no worker answered"):
            main(["resume", str(local_ckpt), "--budget", "8", "--hosts", "127.0.0.1:9"])
        assert main(["resume", str(local_ckpt), "--budget", "8", "--hosts", "",
                     "--out", str(local)]) == 0
        assert server.sessions_served == 2  # --hosts "" resumed locally
    finally:
        server.shutdown()
    assert main(base + ["--budget", "8", "--out", str(straight)]) == 0
    assert resumed.read_bytes() == straight.read_bytes()
    assert local.read_bytes() == straight.read_bytes()


def test_resume_fallbacks_warn_without_changing_a_byte(tmp_path):
    """A torn checkpoint record and orphan telemetry are each dropped with
    one warning; results, checkpoint and stream are the same with -v."""
    import shutil

    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    quiet.mkdir()
    assert _repro(quiet, "campaign", "--tools", "mac", "--seed", "9", "--budget", "4",
                  "--checkpoint", "ckpt", "--checkpoint-every", "2",
                  "--telemetry", "run.jsonl").returncode == 0
    with open(quiet / "ckpt", "a", encoding="utf-8") as handle:
        handle.write('{"run": {"bud')  # a kill tore the last append
    with open(quiet / "run.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "seq": 999999, "ty')  # and the stream's tail
    shutil.copytree(quiet, loud)
    records = len((quiet / "ckpt").read_text().splitlines()) - 1
    runs = {
        "quiet": _repro(quiet, "resume", "ckpt", "--budget", "6", "--out", "out.json"),
        "loud": _repro(loud, "-v", "resume", "ckpt", "--budget", "6", "--out", "out.json"),
    }
    assert [run.returncode for run in runs.values()] == [0, 0]
    for name, prefix in (("quiet", ""), ("loud", "WARNING repro.core.persistence: ")):
        assert f"{prefix}ckpt: dropped torn checkpoint record {records}" in runs[name].stderr
    assert "run.jsonl: dropped 1 line(s) at or past telemetry seq" in runs["quiet"].stderr
    assert "WARNING repro.telemetry.sinks: run.jsonl: dropped 1 line(s)" in runs["loud"].stderr
    for name in ("out.json", "ckpt", "run.jsonl"):
        assert (quiet / name).read_bytes() == (loud / name).read_bytes(), name


def test_genetic_refuses_a_batch_size_it_cannot_honour(tmp_path):
    result = _repro(tmp_path, "campaign", "--strategy", "genetic", "--tools", "mac",
                    "--budget", "4", "--batch-size", "3")
    assert result.returncode == 1
    assert result.stderr == "strategy 'genetic' runs batches of 12, not 3\n"


def test_resume_reads_the_backstop_and_retry_budget_from_its_checkpoint(tmp_path, monkeypatch):
    from repro.core.parallel import ParallelScenarioExecutor
    from repro.core.persistence import load_checkpoint

    pools = []

    class RecordedPool(ParallelScenarioExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr("repro.core.parallel.ParallelScenarioExecutor", RecordedPool)
    ckpt = tmp_path / "ckpt.json"
    assert main(["campaign", "--tools", "mac", "--seed", "2", "--budget", "2",
                 "--scenario-timeout", "40", "--retries", "2", "--checkpoint", str(ckpt)]) == 0
    run = load_checkpoint(ckpt)["run"]
    assert (run["scenario_timeout"], run["max_attempts"]) == (40.0, 2)
    assert main(["resume", str(ckpt), "--budget", "3"]) == 0
    assert [(pool.timeout, pool.max_attempts) for pool in pools] == [(40.0, 2), (40.0, 2)]
