"""The attack-surface manifest: content, determinism, and the committed copy."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.audit import (
    build_manifest,
    classify_module,
    handler_messages,
    load_manifest,
    manifest_drift,
    manifest_to_json,
    parse_module,
)
from repro.audit.sites import SITE_KINDS

REPO_ROOT = Path(__file__).resolve().parents[2]
TARGETS = [str(REPO_ROOT / "src" / "repro" / "pbft"), str(REPO_ROOT / "src" / "repro" / "dht")]


@pytest.fixture(scope="module")
def manifest():
    return build_manifest(TARGETS)


# ---------------------------------------------------------------------------
# site classification
# ---------------------------------------------------------------------------
def test_sites_classified_with_stable_ids(tmp_path):
    source = textwrap.dedent(
        """
        class Node:
            def handle_message(self, payload, src):
                self.rng.random()
                self.log[payload.seq] = payload
                self.pending.append(payload)
                handle = self.node.set_timer(10, self.fire)
                self.node.cancel_timer(handle)
                self.send(src, payload)
                self.broadcast(payload)
        """
    )
    graph = parse_module(str(tmp_path / "mod.py"), source)
    sites = classify_module(graph)
    by_kind = {}
    for site in sites:
        by_kind.setdefault(site.kind, []).append(site)
    assert {kind: len(rows) for kind, rows in by_kind.items()} == {
        "handler": 1,
        "send": 2,
        "timer_arm": 1,
        "timer_cancel": 1,
        "rng": 1,
        "state": 2,
    }
    # Ordinals count per (function, kind) in source order; IDs omit lines.
    send_ids = [site.site_id for site in by_kind["send"]]
    assert send_ids == [
        "mod:Node.handle_message:send:0",
        "mod:Node.handle_message:send:1",
    ]


def test_manifest_covers_both_targets(manifest):
    module_names = {entry["module"] for entry in manifest["modules"]}
    assert "repro.pbft.replica" in module_names
    assert "repro.dht.node" in module_names
    by_kind = manifest["summary"]["sites_by_kind"]
    assert set(by_kind) == set(SITE_KINDS)
    for kind in SITE_KINDS:
        assert by_kind[kind] > 0, f"no {kind} sites discovered"
    assert manifest["parse_errors"] == []
    assert manifest["summary"]["handlers"] == len(manifest["handlers"])
    assert manifest["summary"]["sites"] == len(manifest["sites"])


def test_handlers_carry_dispatch_messages_and_reachability(manifest):
    handlers = {entry["id"]: entry for entry in manifest["handlers"]}
    replica = handlers["repro.pbft.replica:Replica._on_request"]
    assert replica["messages"] == ["ForwardedRequest", "Request"]
    assert "_on_request" in replica["reaches"]
    # The discovered-message rollup seeds the synthesis grammar.
    messages = handler_messages(TARGETS)
    assert messages == sorted(messages)
    assert {"Request", "Prepare", "Commit", "ViewChange", "NewView"} <= set(messages)


def test_parse_error_is_reported_and_does_not_abort(tmp_path, manifest):
    scoped = tmp_path / "repro" / "broken"
    scoped.mkdir(parents=True)
    (scoped / "bad.py").write_text("def unclosed(:\n")
    (scoped / "good.py").write_text(
        "class Node:\n    def handle_message(self, payload, src):\n        pass\n"
    )
    document = build_manifest([str(scoped)])
    assert [error["file"] for error in document["parse_errors"]] == ["repro/broken/bad.py"]
    assert [entry["module"] for entry in document["modules"]] == ["repro.broken.good"]
    assert document["summary"]["handlers"] == 1


# ---------------------------------------------------------------------------
# determinism + the committed copy
# ---------------------------------------------------------------------------
def test_blank_lines_above_handlers_leave_the_manifest_unchanged(tmp_path):
    source = textwrap.dedent(
        """
        class Node:
            def handle_message(self, payload, src):
                if isinstance(payload, Ping):
                    self.on_ping(payload, src)

            def on_ping(self, payload, src):
                self.send(src, payload)
                self.pending.append(payload)
        """
    )
    module = tmp_path / "mod.py"
    module.write_text(source)
    before = manifest_to_json(build_manifest([str(tmp_path)]))
    module.write_text("\n\n\n" + source.replace("    def on_ping", "\n\n    def on_ping"))
    after = manifest_to_json(build_manifest([str(tmp_path)]))
    assert json.loads(before)["summary"]["handlers"] == 2
    assert after == before


def test_committed_manifest_matches_the_tree(manifest):
    committed = load_manifest(str(REPO_ROOT / "audit_manifest.json"))
    drift = manifest_drift(committed, manifest)
    assert drift is None, (
        f"audit_manifest.json is stale ({drift}); regenerate with "
        f"`repro audit --manifest-out audit_manifest.json`"
    )


def test_manifest_json_is_canonical(manifest):
    text = manifest_to_json(manifest)
    assert text.endswith("\n")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_manifest_bytes_survive_hash_seed_and_cwd(tmp_path):
    """Byte-identical audit output across PYTHONHASHSEED values and cwds."""
    outputs = []
    for seed, cwd in (("1", str(REPO_ROOT)), ("42", str(tmp_path))):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "audit", *TARGETS, "--format", "json"],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
