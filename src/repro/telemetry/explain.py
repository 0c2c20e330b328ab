"""``repro explain``: turn a telemetry stream back into an explanation.

Given the JSONL stream a campaign recorded (``repro campaign --telemetry
out.jsonl``), reconstruct *why* the campaign found what it found:

- a per-plugin attribution table — how many scenarios each tool
  generated, how they scored, and the fitness gain that earned the
  plugin its sampling weight;
- the best scenario's lineage — the full mutation chain from the random
  seed scenario that started it down to the best point (the paper's
  battleships story, replayed from the record);
- exploration heatmaps over the two widest hyperspace dimensions,
  rendered with :func:`repro.core.report.heatmap`;
- a machine-readable attribution document (``--json``).

Everything here is a pure function of the stream: no target, no
simulator, no re-execution. The fold itself lives in
:mod:`repro.telemetry.view` (:class:`CampaignView`), shared with the
live ``repro serve`` observatory; this module is the batch rendering
layer on top of it.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.report import format_table, heatmap, sparkline
from .reader import read_events
from .view import (
    CampaignAttribution,
    CampaignView,
    Key,
    LineageStep,
    PluginAttribution,
    attribution_to_dict,
    freeze_key as _freeze_key,  # noqa: F401  (compat: old private name)
    heatmap_dimensions as _heatmap_dimensions,  # noqa: F401  (compat)
    heatmap_to_dict,
)


def explain_path(path: str) -> CampaignAttribution:
    """Analyze a telemetry JSONL file from disk."""
    view = CampaignView()
    stream = read_events(path)
    for record in stream:
        view.fold(record)
    if stream.torn_tail:
        view.mark_torn_tail()
    return view.snapshot()


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def _key_text(key: Optional[Key]) -> str:
    if key is None:
        return "(none)"
    return "{" + ", ".join(f"{name}={pos}" for name, pos in key) + "}"


def exploration_heatmap(
    attribution: CampaignAttribution,
    x_name: Optional[str] = None,
    y_name: Optional[str] = None,
) -> Optional[str]:
    """Max impact observed per (x, y) grid cell, rendered as ASCII."""
    data = heatmap_to_dict(attribution, x_name, y_name)
    if data is None:
        return None
    x_name, y_name = data["x"], data["y"]
    x_positions = data["x_positions"]
    labels = [f"{y_name}={pos}" for pos in data["y_positions"]]
    body = heatmap(data["grid"], row_labels=labels)
    return f"max impact, {y_name} (rows) x {x_name} (cols, positions {x_positions[0]}..{x_positions[-1]}):\n{body}"


def render_attribution(attribution: CampaignAttribution) -> str:
    """The full human-readable ``repro explain`` report."""
    lines: List[str] = []
    lines.append(
        f"campaign: {attribution.tests} tests, {attribution.events} events, "
        f"{attribution.failures} failures, {attribution.checkpoints} checkpoints"
    )
    if attribution.truncated_tail:
        lines.append(
            "note: stream ends in a torn (half-written) line; "
            "the complete prefix above is what was analyzed"
        )
    lines.append(
        f"best impact {attribution.best_impact:.3f} at test "
        f"{attribution.best_test_index} — scenario {_key_text(attribution.best_key)}"
    )
    if attribution.coverage_events:
        lines.append(
            f"coverage: {attribution.distinct_signatures} distinct behaviour "
            f"signatures over {attribution.coverage_events} observations "
            f"({attribution.novel_signatures} novel)"
        )
    if attribution.sched_events:
        mean_batch = attribution.sched_events / max(attribution.sched_batches, 1)
        utilization = attribution.sched_events / max(
            attribution.sched_batches * attribution.sched_max_batch, 1
        )
        mean_depth = attribution.sched_depth_sum / attribution.sched_events
        lines.append(
            f"scheduler: {attribution.sched_batches} batches "
            f"(mean fill {mean_batch:.2f}, max {attribution.sched_max_batch}), "
            f"utilization {utilization:.0%}, mean queue depth {mean_depth:.2f}"
        )
    if attribution.impact_curve:
        lines.append("impact per test: " + sparkline(attribution.impact_curve))

    lines.append("")
    lines.append("plugin attribution (fitness gain is what earns sampling weight):")
    rows: List[List[object]] = []
    for name in sorted(attribution.plugins):
        stats = attribution.plugins[name]
        rows.append(
            [
                name,
                stats.generated,
                stats.executed,
                f"{stats.best_impact:.3f}",
                f"{stats.mean_impact:.3f}",
                f"{stats.total_gain:.3f}",
                stats.improvements,
                f"{stats.weight:.3f}" if stats.weight is not None else "-",
            ]
        )
    rows.append([
        "(random shots)", attribution.random_generated, "-", "-", "-", "-", "-", "-",
    ])
    lines.append(
        format_table(
            ["plugin", "gen", "exec", "best", "mean", "gain", "improved", "weight"],
            rows,
        )
    )

    lines.append("")
    if attribution.lineage:
        suffix = "" if attribution.lineage_complete else ", lineage incomplete"
        lines.append(
            f"best-scenario lineage ({len(attribution.lineage)} steps, "
            f"root first{suffix}):"
        )
        if not attribution.lineage_complete:
            lines.append(f"  (lineage incomplete: {attribution.lineage_break})")
        for step_number, step in enumerate(attribution.lineage):
            impact_text = f"{step.impact:.3f}" if step.impact is not None else "?"
            if step.origin == "random" or step.plugin is None:
                how = "random shot"
            else:
                changed = ", ".join(step.changed) if step.changed else "nothing"
                how = (
                    f"{step.plugin} @ distance {step.mutate_distance:.2f} "
                    f"(changed {changed})"
                )
            lines.append(
                f"  {step_number:>2d}. impact {impact_text}  {how}  "
                f"-> {_key_text(step.key)}"
            )
    elif not attribution.lineage_complete:
        lines.append(
            f"best-scenario lineage: (lineage incomplete: {attribution.lineage_break})"
        )
    else:
        lines.append("best-scenario lineage: (no lineage recorded)")

    rendered_heatmap = exploration_heatmap(attribution)
    if rendered_heatmap is not None:
        lines.append("")
        lines.append(rendered_heatmap)
    return "\n".join(lines)


__all__ = [
    "CampaignAttribution",
    "LineageStep",
    "PluginAttribution",
    "attribution_to_dict",
    "explain_path",
    "exploration_heatmap",
    "render_attribution",
]
