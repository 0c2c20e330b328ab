"""``repro audit`` and the ``repro explain`` surface rollup."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
TARGETS = [str(REPO_ROOT / "src" / "repro" / "pbft"), str(REPO_ROOT / "src" / "repro" / "dht")]


def run_audit(capsys, *extra):
    code = main(["audit", *TARGETS, "--config-root", str(REPO_ROOT), *extra])
    return code, capsys.readouterr().out


def test_audit_text_report_on_the_shipped_tree(capsys):
    code, out = run_audit(capsys)
    assert code == 0  # the in-tree SRF hits are suppressed with citations
    assert "attack surface:" in out
    assert "surface coverage:" in out
    assert "UNREACHABLE message classes" in out
    assert "repro audit: 0 SRF findings" in out


def test_audit_json_document(capsys):
    code, out = run_audit(capsys, "--format", "json")
    document = json.loads(out)
    assert code == 0
    assert document["findings"] == []
    assert document["manifest"]["schema_version"] == 2
    assert document["surface"]["handlers"]["total"] == len(document["manifest"]["handlers"])
    assert document["surface"]["uncovered_messages"]


def test_audit_manifest_out_matches_the_committed_copy(tmp_path, capsys):
    out_path = tmp_path / "regenerated.json"
    code, out = run_audit(capsys, "--manifest-out", str(out_path))
    assert code == 0
    assert f"manifest written to {out_path}" in out
    committed = (REPO_ROOT / "audit_manifest.json").read_bytes()
    assert out_path.read_bytes() == committed


def test_srf003_fires_when_the_suppression_is_stripped(tmp_path, capsys):
    """The shared view-change timer is a real SRF003 hit: remove the
    in-tree waiver and the audit turns red."""
    scoped = tmp_path / "src" / "repro" / "pbft"  # default SRF scope matches
    scoped.mkdir(parents=True)
    source = (REPO_ROOT / "src" / "repro" / "pbft" / "timers.py").read_text()
    stripped = source.replace("  # repro: lint-ignore[SRF003]", "")
    assert stripped != source, "expected in-tree SRF003 suppressions"
    (scoped / "timers.py").write_text(stripped)
    code = main(["audit", str(scoped), "--config-root", str(REPO_ROOT)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("SRF003") == 2  # both shared-timer arms
    assert "PerRequestViewChangeTimer" not in "".join(
        line for line in out.splitlines() if "SRF003" in line
    )


def test_explain_rolls_up_surface_coverage(tmp_path, capsys):
    from tests.telemetry._harness import run_recorded_campaign

    lines, _ = run_recorded_campaign(seed=7, budget=10)
    stream = tmp_path / "campaign.jsonl"
    stream.write_text("\n".join(lines) + "\n")
    manifest = str(REPO_ROOT / "audit_manifest.json")

    code = main(["explain", str(stream), "--manifest", manifest])
    out = capsys.readouterr().out
    assert code == 0
    assert "surface coverage:" in out
    # The hill target's dimensions craft no protocol messages.
    assert "unknown dimensions" in out

    code = main(["explain", str(stream), "--manifest", manifest, "--json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert document["surface"]["handlers"]["covered"] == 0
    assert "mask" in document["surface"]["dimensions"]["unknown"]


def test_explain_without_a_manifest_omits_the_rollup(tmp_path, capsys, monkeypatch):
    from tests.telemetry._harness import run_recorded_campaign

    lines, _ = run_recorded_campaign(seed=7, budget=10)
    stream = tmp_path / "campaign.jsonl"
    stream.write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)  # no ./audit_manifest.json here
    code = main(["explain", str(stream)])
    out = capsys.readouterr().out
    assert code == 0
    assert "surface coverage" not in out
