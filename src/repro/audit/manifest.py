"""The attack-surface manifest: a deterministic JSON inventory.

``build_manifest`` walks the given paths (same file discovery as the lint
engine), classifies every surface site, and folds the result into one
plain-dict document. The serialized form is canonical — keys sorted,
lists sorted on stable identity, trailing newline — so two runs from any
directory, under any ``PYTHONHASHSEED``, produce byte-identical output.
Handlers and sites carry no source line, only their identity
(``module:qualname:kind:ordinal``), so an edit that moves code without
changing it leaves the manifest as it was; parse errors keep theirs.
CI regenerates the manifest and diffs it against the committed
``audit_manifest.json``; drift fails the build.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from .callgraph import ModuleGraph, module_identity, parse_module
from .sites import SITE_KINDS, classify_module


def _iter_python_files(paths: Sequence[str]):
    # Deferred: the lint package imports this package (for SRF rule
    # registration), so a top-level import of the engine would be circular.
    from ..lint.engine import iter_python_files

    return iter_python_files(paths)

#: Bump when the manifest document shape changes (2: handlers and sites
#: are named by identity alone, with no source line).
MANIFEST_SCHEMA_VERSION = 2


def module_graphs(paths: Sequence[str]) -> List[ModuleGraph]:
    """Parse every ``.py`` file under ``paths`` (parse failures skipped —
    they are reported separately by :func:`build_manifest`)."""
    graphs: List[ModuleGraph] = []
    for path in _iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            graphs.append(parse_module(path, source))
        except (OSError, UnicodeDecodeError, SyntaxError):
            continue
    return graphs


def build_manifest(paths: Sequence[str]) -> Dict[str, object]:
    """The attack-surface manifest document for the code under ``paths``."""
    modules: List[Dict[str, object]] = []
    handlers: List[Dict[str, object]] = []
    sites: List[Dict[str, object]] = []
    parse_errors: List[Dict[str, object]] = []
    for path in _iter_python_files(paths):
        identity_module, identity_file = module_identity(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            parse_errors.append(
                {"file": identity_file, "line": 1, "message": f"cannot read file: {exc}"}
            )
            continue
        try:
            graph = parse_module(path, source)
        except SyntaxError as exc:
            parse_errors.append(
                {
                    "file": identity_file,
                    "line": int(exc.lineno or 1),
                    "message": f"syntax error: {exc.msg}",
                }
            )
            continue
        modules.append(
            {
                "module": graph.module,
                "file": graph.file,
                "classes": sorted(graph.classes),
            }
        )
        for class_name in graph.classes:
            cls = graph.classes[class_name]
            entries = cls.handler_entries()
            for method in sorted(entries):
                if method not in cls.methods:
                    continue
                fn = cls.methods[method]
                handlers.append(
                    {
                        "id": f"{graph.module}:{fn.qualname}",
                        "module": graph.module,
                        "class": class_name,
                        "method": method,
                        "messages": list(entries[method]),
                        "reaches": list(cls.reachable_from(method)),
                    }
                )
        for site in classify_module(graph):
            sites.append(
                {
                    "id": site.site_id,
                    "kind": site.kind,
                    "module": site.module,
                    "file": site.file,
                    "qualname": site.qualname,
                    "detail": site.detail,
                }
            )
    modules.sort(key=lambda entry: entry["module"])
    handlers.sort(key=lambda entry: entry["id"])
    sites.sort(key=lambda entry: entry["id"])
    parse_errors.sort(key=lambda entry: (entry["file"], entry["line"]))
    by_kind = {kind: 0 for kind in SITE_KINDS}
    for site in sites:
        by_kind[site["kind"]] += 1
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool": "repro audit",
        "modules": modules,
        "handlers": handlers,
        "sites": sites,
        "parse_errors": parse_errors,
        "summary": {
            "modules": len(modules),
            "handlers": len(handlers),
            "sites": len(sites),
            "sites_by_kind": by_kind,
        },
    }


def manifest_to_json(manifest: Dict[str, object]) -> str:
    """Canonical serialized form (what gets committed and diffed)."""
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def write_manifest(manifest: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(manifest_to_json(manifest))


def load_manifest(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def handler_messages(paths: Sequence[str]) -> List[str]:
    """Sorted message type names any discovered handler receives.

    This is what seeds the synthesis grammar's target list: the set of
    protocol messages the target's handlers actually dispatch on.
    """
    messages = set()
    for graph in module_graphs(paths):
        for cls in graph.classes.values():
            for kinds in cls.handler_entries().values():
                messages.update(kinds)
    return sorted(messages)


def manifest_drift(committed: Dict[str, object], regenerated: Dict[str, object]) -> Optional[str]:
    """One-line description of the first drift, or ``None`` when identical."""
    committed_text = manifest_to_json(committed)
    regenerated_text = manifest_to_json(regenerated)
    if committed_text == regenerated_text:
        return None
    for number, (old, new) in enumerate(
        zip(committed_text.splitlines(), regenerated_text.splitlines()), start=1
    ):
        if old != new:
            return f"line {number}: {old.strip()!r} != {new.strip()!r}"
    return "manifests differ in length"


__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "handler_messages",
    "load_manifest",
    "manifest_drift",
    "manifest_to_json",
    "module_graphs",
    "write_manifest",
]
