"""Telemetry determinism: the stream is a pure function of (seed, batch_size).

Three guarantees:

- serial vs batched dispatch at ``batch_size=1`` produce byte-identical
  streams (the batched loop degenerates to the serial one);
- the worker count never changes the stream at a pinned batch size
  (all events are published from the parent, in submission order);
- a checkpoint/resume split produces the same events as an uninterrupted
  run (modulo the extra ``CheckpointWritten`` markers and the sequence
  numbers they consume).
"""

from __future__ import annotations

import json

from repro.telemetry import validate_jsonl

from tests._strategies import campaign_seeds
from tests.telemetry._harness import (
    decoded_records,
    run_recorded_campaign,
    stream_sha,
)

BUDGET = 24


def _without_checkpoints(lines):
    """Events minus CheckpointWritten markers and their seq numbers."""
    stripped = []
    for record in decoded_records(lines):
        if record["type"] == "CheckpointWritten":
            continue
        record = dict(record)
        del record["seq"]
        stripped.append(json.dumps(record, sort_keys=True))
    return stripped


def test_stream_validates_and_covers_the_campaign():
    lines, strategy = run_recorded_campaign(seed=11, budget=BUDGET)
    validated = validate_jsonl(lines)
    assert [seq for seq, _ in validated] == list(range(len(lines)))
    types = [type_name for _, type_name in validated]
    assert types.count("ScenarioExecuted") == BUDGET
    assert types.count("ImpactAbsorbed") == BUDGET
    assert types.count("ScenarioGenerated") == BUDGET
    assert "MutationApplied" in types  # the hill is climbable in 24 tests
    assert len(strategy.results) == BUDGET


def test_serial_vs_batched_dispatch_byte_identical():
    # workers=2 with batch_size=1 forces the batched/pool path while the
    # trajectory stays the serial one — the streams must match exactly.
    for seed in campaign_seeds(5):
        serial, _ = run_recorded_campaign(seed=seed, budget=BUDGET, workers=1)
        batched, _ = run_recorded_campaign(
            seed=seed, budget=BUDGET, workers=2, batch_size=1
        )
        assert serial == batched, f"serial != batched stream (seed {seed})"


def test_worker_count_invariance_at_pinned_batch_size():
    reference, _ = run_recorded_campaign(seed=29, budget=BUDGET, workers=1, batch_size=4)
    for workers in (2, 3):
        other, _ = run_recorded_campaign(
            seed=29, budget=BUDGET, workers=workers, batch_size=4
        )
        assert stream_sha(other) == stream_sha(reference), (
            f"stream changed at workers={workers}"
        )


def test_resume_reproduces_the_uninterrupted_stream(tmp_path):
    from repro.core import CampaignSpec
    from repro.core.persistence import load_checkpoint, restore_controller
    from repro.telemetry import RingBufferSink, TelemetryBus
    from tests.core.fake_target import LoadPlugin, make_hill_target
    from repro.core import AvdExploration

    checkpoint = tmp_path / "campaign.ckpt"
    uninterrupted, _ = run_recorded_campaign(
        seed=47, budget=BUDGET, checkpoint_path=str(checkpoint), checkpoint_every=6
    )

    # Interrupted twin: stop at half budget, restore, and continue.
    checkpoint2 = tmp_path / "campaign2.ckpt"
    target, plugins = make_hill_target(extra_plugins=[LoadPlugin()])
    strategy = AvdExploration(target, plugins, seed=47)
    sink = RingBufferSink()
    bus = TelemetryBus(sinks=(sink,))
    strategy.run(
        CampaignSpec(
            budget=BUDGET // 2,
            checkpoint_path=str(checkpoint2),
            checkpoint_every=6,
            telemetry=bus,
        )
    )
    first_half = sink.to_lines()
    cursor = bus.seq

    data = load_checkpoint(str(checkpoint2))
    target2, plugins2 = make_hill_target(extra_plugins=[LoadPlugin()])
    resumed_sink = RingBufferSink()
    controller = restore_controller(data, target2, plugins2)
    controller.run(
        CampaignSpec(
            budget=BUDGET,
            checkpoint_path=str(checkpoint2),
            checkpoint_every=6,
            telemetry=TelemetryBus(sinks=(resumed_sink,)),
        )
    )
    stitched = first_half + resumed_sink.to_lines()

    # The resumed stream continues the cursor: no reused sequence numbers.
    resumed_seqs = [json.loads(line)["seq"] for line in resumed_sink.to_lines()]
    assert resumed_seqs[0] >= cursor
    validate_jsonl(stitched)

    # Checkpoint cadence differs between the two runs (the interrupted one
    # checkpoints once more), so compare everything but those markers.
    assert _without_checkpoints(stitched) == _without_checkpoints(uninterrupted)


def test_five_seed_sweep_stable_across_reruns():
    for seed in campaign_seeds(5):
        first, _ = run_recorded_campaign(seed=seed, budget=12)
        second, _ = run_recorded_campaign(seed=seed, budget=12)
        assert stream_sha(first) == stream_sha(second), f"seed {seed} not stable"
