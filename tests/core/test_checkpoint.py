"""Checkpoint/resume: a killed campaign continues bit-identically.

The contract under test (see ``repro.core.persistence``): a campaign run
with ``checkpoint_path`` logs its results every ``checkpoint_every``
scenarios; killing the process and resuming from the last checkpoint —
which replays those results through the strategy's own loop — produces
*exactly* the trajectory an uninterrupted run would have: same scenarios,
same impacts, same Pi and Omega, same plugin fitness statistics. Every
strategy, baselines included, checkpoints and resumes through that one
contract.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.core import (
    CampaignResult,
    CampaignSpec,
    ChoiceDimension,
    ExhaustiveExploration,
    Hyperspace,
    TestController,
    load_checkpoint,
    restore_controller,
    run_campaign,
)
from repro.core.exploration import STRATEGIES, AvdExploration, RandomExploration
from repro.core.persistence import CHECKPOINT_KIND, FORMAT_VERSION, campaign_to_dict
from repro.telemetry import JsonlSink, TelemetryBus
from tests._strategies import trajectory
from tests.core.fake_target import HillTarget, LoadPlugin, MaskPlugin, make_hill_target

BUDGET = 100
KILL_AT = 51  # checkpoints land at 50 (serial) / 48 (batch_size=4)


class DieAtTarget(HillTarget):
    """Raises KeyboardInterrupt on its ``die_at``-th execution.

    ``KeyboardInterrupt`` is what a real ^C / SIGINT delivers; fault
    isolation deliberately lets it through, so this simulates the process
    being killed mid-campaign.
    """

    def __init__(self, plugins, die_at):
        super().__init__(plugins)
        self.die_at = die_at

    def execute(self, params, seed):
        if self.executions + 1 == self.die_at:
            raise KeyboardInterrupt
        return super().execute(params, seed)


def fresh(die_at=None):
    plugins = [MaskPlugin(), LoadPlugin()]
    if die_at is None:
        target = HillTarget(plugins)
    else:
        target = DieAtTarget(plugins, die_at=die_at)
    return target, plugins


def make_controller(target, plugins, seed=13):
    return TestController(target, plugins, seed=seed)


def controller_state(controller):
    """Everything the meta-heuristic learned, in comparable form."""
    return {
        "trajectory": trajectory(controller.results),
        "omega": controller.history,
        "mu": controller.max_impact,
        "top_set": [(e.key, e.impact) for e in controller.top_set.entries],
        "plugin_gains": {
            name: (stats.selections, stats.total_gain, stats.improvements)
            for name, stats in controller.plugin_sampler.stats.items()
        },
        "rng": controller.rng.getstate(),
        "quarantine": set(controller.quarantine),
    }


def run_interrupted_then_resume(tmp_path, seed=13, checkpoint_every=10, **run_kwargs):
    """Kill a campaign at execution KILL_AT, resume it from the checkpoint."""
    path = tmp_path / "campaign.ckpt.json"
    target, plugins = fresh(die_at=KILL_AT)
    interrupted = make_controller(target, plugins, seed=seed)
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(
            CampaignSpec(
                budget=BUDGET,
                checkpoint_path=str(path),
                checkpoint_every=checkpoint_every,
                **run_kwargs,
            )
        )
    data = load_checkpoint(path)
    resumed_target, resumed_plugins = fresh()
    resumed = restore_controller(data, resumed_target, resumed_plugins)
    resumed.run(
        CampaignSpec(
            budget=data["run"]["budget"],
            batch_size=data["run"]["batch_size"],
            checkpoint_path=str(path),
            checkpoint_every=data["run"]["checkpoint_every"],
        )
    )
    return data, resumed, resumed_target


# ---------------------------------------------------------------------------
# the headline guarantee: kill at 50, resume, bit-identical
# ---------------------------------------------------------------------------
def test_serial_resume_is_bit_identical_to_uninterrupted(tmp_path):
    target, plugins = fresh()
    reference = make_controller(target, plugins)
    reference.run(CampaignSpec(budget=BUDGET))
    data, resumed, resumed_target = run_interrupted_then_resume(tmp_path)
    assert len(data["results"]) == 50  # the kill landed between checkpoints
    assert controller_state(resumed) == controller_state(reference)
    # The resumed run re-executed only what the checkpoint had not paid for.
    assert resumed_target.executions == BUDGET - 50


def test_batched_resume_is_bit_identical_to_uninterrupted(tmp_path):
    target, plugins = fresh()
    reference = make_controller(target, plugins)
    reference.run(CampaignSpec(budget=BUDGET, workers=1, batch_size=4))
    data, resumed, _ = run_interrupted_then_resume(
        tmp_path, checkpoint_every=8, workers=1, batch_size=4
    )
    assert len(data["results"]) == 48  # last full batch boundary before the kill
    assert controller_state(resumed) == controller_state(reference)


def test_resume_twice_converges_to_the_same_state(tmp_path):
    """A checkpoint chain (kill, resume, kill, resume) still matches."""
    target, plugins = fresh()
    reference = make_controller(target, plugins)
    reference.run(CampaignSpec(budget=BUDGET))
    path = tmp_path / "chain.ckpt.json"
    first_target, first_plugins = fresh(die_at=KILL_AT)
    first = make_controller(first_target, first_plugins)
    with pytest.raises(KeyboardInterrupt):
        first.run(CampaignSpec(budget=BUDGET, checkpoint_path=str(path), checkpoint_every=10))
    # Second leg dies again 30 executions in (campaign execution ~80).
    second_target, second_plugins = fresh(die_at=31)
    second = restore_controller(load_checkpoint(path), second_target, second_plugins)
    with pytest.raises(KeyboardInterrupt):
        second.run(CampaignSpec(budget=BUDGET, checkpoint_path=str(path), checkpoint_every=10))
    final_target, final_plugins = fresh()
    final = restore_controller(load_checkpoint(path), final_target, final_plugins)
    final.run(CampaignSpec(budget=BUDGET, checkpoint_path=str(path), checkpoint_every=10))
    assert controller_state(final) == controller_state(reference)


# ---------------------------------------------------------------------------
# checkpoint document properties
# ---------------------------------------------------------------------------
def test_completed_run_writes_a_final_checkpoint(tmp_path):
    path = tmp_path / "final.ckpt.json"
    target, plugins = fresh()
    controller = make_controller(target, plugins)
    controller.run(
        CampaignSpec(budget=30, checkpoint_path=str(path), checkpoint_every=1000)
    )
    data = load_checkpoint(path)
    assert data["format_version"] == FORMAT_VERSION
    assert data["kind"] == CHECKPOINT_KIND
    assert len(data["results"]) == 30  # written even though every > budget
    assert data["run"] == {
        "budget": 30,
        "workers": 1,
        "batch_size": 1,
        "checkpoint_every": 1000,
        "hosts": [],
        "scenario_timeout": None,
        "max_attempts": 3,
    }
    restored = restore_controller(data, *fresh())
    assert controller_state(restored) == controller_state(controller)
    # Nothing left to do: running to the same budget is a no-op.
    restored.run(CampaignSpec(budget=30))
    assert len(restored.results) == 30


def test_checkpoint_context_round_trips(tmp_path):
    path = tmp_path / "ctx.ckpt.json"
    target, plugins = fresh()
    controller = make_controller(target, plugins)
    controller.checkpoint_context = {"target": "pbft", "tools": ["bigmac"], "out": None}
    controller.run(CampaignSpec(budget=10, checkpoint_path=str(path)))
    restored = restore_controller(load_checkpoint(path), *fresh())
    assert restored.checkpoint_context == {
        "target": "pbft",
        "tools": ["bigmac"],
        "out": None,
    }


def test_quarantine_survives_the_checkpoint(tmp_path):
    from tests.core.test_failures import POISON, PoisonedTarget

    path = tmp_path / "poison.ckpt.json"
    plugins = [MaskPlugin(), LoadPlugin()]
    target = PoisonedTarget(plugins, poison=POISON)
    controller = TestController(target, plugins, seed=5)
    controller.run(CampaignSpec(budget=40, checkpoint_path=str(path), max_attempts=2))
    assert len(controller.quarantine) > 0
    data = load_checkpoint(path)
    restored = restore_controller(data, target, plugins)
    assert set(restored.quarantine) == set(controller.quarantine)
    assert data["run"]["max_attempts"] == 2


def test_atomic_write_never_tears_an_existing_checkpoint(tmp_path, monkeypatch):
    # A run's first write rewrites the whole file: it goes through a temp
    # file and os.replace, so a crash mid-rename leaves the old file.
    path = tmp_path / "atomic.ckpt.json"
    target, plugins = fresh()
    controller = make_controller(target, plugins)
    controller.run(CampaignSpec(budget=10, checkpoint_path=str(path)))
    before = path.read_text()

    def torn_replace(src, dst):
        raise OSError("simulated crash mid-rename")

    monkeypatch.setattr(os, "replace", torn_replace)
    with pytest.raises(OSError):
        controller.run(CampaignSpec(budget=20, checkpoint_path=str(path), checkpoint_every=5))
    # The visible file is still the previous complete document.
    assert path.read_text() == before
    assert len(load_checkpoint(path)["results"]) == 10  # and it still loads


def test_checkpoint_files_are_plain_json(tmp_path):
    path = tmp_path / "plain.ckpt.json"
    target, plugins = fresh()
    controller = make_controller(target, plugins)
    controller.run(CampaignSpec(budget=10, checkpoint_path=str(path), checkpoint_every=5))
    header, *records = [json.loads(line) for line in path.read_text().splitlines()]
    assert header["strategy"] == "avd"
    assert header["campaign_seed"] == 13
    assert header["plugins"] == ["mask", "load"]
    # The recipe and the results, nothing the controller can recompute.
    assert set(header) == {
        "format_version", "kind", "strategy", "campaign_seed", "plugins", "settings", "context"
    }
    assert [len(record["results"]) for record in records] == [5, 5, 0]
    assert all(set(record) == {"run", "results", "telemetry_seq"} for record in records)


def test_later_writes_of_a_run_append_only_the_new_results(tmp_path, monkeypatch):
    from repro.core import persistence

    path = tmp_path / "append.ckpt.json"
    writes = []
    save = persistence.save_checkpoint

    def recording_save(controller, target_path):
        save(controller, target_path)
        writes.append((len(controller.results), os.stat(path).st_ino, path.read_text()))

    monkeypatch.setattr(persistence, "save_checkpoint", recording_save)
    make_controller(*fresh()).run(
        CampaignSpec(budget=12, checkpoint_path=str(path), checkpoint_every=4)
    )
    restored = restore_controller(load_checkpoint(path), *fresh())
    restored.run(CampaignSpec(budget=20, checkpoint_path=str(path), checkpoint_every=4))
    assert [done for done, _, _ in writes] == [4, 8, 12, 12, 16, 20, 20]
    # Each run's first write (at 4, and at 16) replaces the file; the rest append.
    inodes = [inode for _, inode, _ in writes]
    assert len(set(inodes[:4])) == 1 and len(set(inodes[4:])) == 1
    assert inodes[0] != inodes[4]
    for (before_done, _, before), (done, _, after) in zip(writes, writes[1:]):
        assert after.startswith(before)  # a rewrite reproduces every earlier record
        (line,) = after[len(before):].splitlines()
        indexes = [entry["test_index"] for entry in json.loads(line)["results"]]
        assert indexes == list(range(before_done, done))


# ---------------------------------------------------------------------------
# the v3 log: torn tails, corrupt records, stale checkpoints, chains
# ---------------------------------------------------------------------------
def test_a_torn_final_record_loads_as_the_previous_record(tmp_path, caplog):
    target, plugins = fresh()
    reference = make_controller(target, plugins)
    reference.run(CampaignSpec(budget=BUDGET))
    path = tmp_path / "torn.ckpt.json"
    interrupted_target, interrupted_plugins = fresh(die_at=KILL_AT)
    interrupted = make_controller(interrupted_target, interrupted_plugins)
    spec = CampaignSpec(budget=BUDGET, checkpoint_path=str(path), checkpoint_every=10)
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(spec)
    text = path.read_text()
    last = text.rstrip("\n").rsplit("\n", 1)[1]
    path.write_text(text[: len(text) - len(last) // 2])  # a kill tore the last append
    with caplog.at_level(logging.WARNING, logger="repro.core.persistence"):
        data = load_checkpoint(path)
    assert len(data["results"]) == 40
    torn_number = len(text.splitlines()) - 1  # the header is not a record
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: dropped torn checkpoint record {torn_number}"
    ]
    resumed = restore_controller(data, *fresh())
    resumed.run(spec)
    assert controller_state(resumed) == controller_state(reference)


def test_a_corrupt_middle_record_is_refused(tmp_path):
    path = tmp_path / "corrupt.ckpt.json"
    target, plugins = fresh()
    make_controller(target, plugins).run(
        CampaignSpec(budget=20, checkpoint_path=str(path), checkpoint_every=5)
    )
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-7]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="record 2 is corrupt"):
        load_checkpoint(path)


def test_a_stale_checkpoint_is_refused_at_its_first_divergent_test(tmp_path):
    path = tmp_path / "stale.ckpt.json"
    target, plugins = fresh()
    make_controller(target, plugins).run(
        CampaignSpec(budget=20, checkpoint_path=str(path), checkpoint_every=5)
    )
    data = load_checkpoint(path)
    # Test 12 is recorded at coordinates the campaign never generated there.
    entry = data["records"][2]["results"][2]
    assert entry["test_index"] == 12
    entry["coords"] = {name: position + 1 for name, position in entry["coords"].items()}
    with pytest.raises(ValueError, match="diverges from its campaign at test 12"):
        restore_controller(data, *fresh())


def test_a_chain_across_a_partial_batch_matches_one_controller(tmp_path):
    """Run to 30 at batch_size=4 (the last batch is partial), then resume to
    50, killed once and resumed again: one controller running to 30 and
    then to 50 reaches the same state."""
    target, plugins = fresh()
    reference = make_controller(target, plugins)
    reference.run(CampaignSpec(budget=30, workers=1, batch_size=4))
    reference.run(CampaignSpec(budget=50, workers=1, batch_size=4))

    path = tmp_path / "chain.ckpt.json"
    spec = dict(workers=1, batch_size=4, checkpoint_path=str(path), checkpoint_every=6)
    first = make_controller(*fresh())
    first.run(CampaignSpec(budget=30, **spec))
    second_target, second_plugins = fresh(die_at=12)
    second = restore_controller(load_checkpoint(path), second_target, second_plugins)
    with pytest.raises(KeyboardInterrupt):
        second.run(CampaignSpec(budget=50, **spec))
    data = load_checkpoint(path)
    assert len(data["results"]) == 38  # the killed run wrote once, at 38
    final = restore_controller(data, *fresh())
    final.run(CampaignSpec(budget=50, **spec))
    assert controller_state(final) == controller_state(reference)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
def test_load_checkpoint_rejects_campaign_documents(tmp_path):
    from repro.core import save_campaign

    target, plugins = fresh()
    campaign = run_campaign(AvdExploration(target, plugins, seed=1), CampaignSpec(budget=5))
    path = tmp_path / "campaign.json"
    save_campaign(campaign, path)
    with pytest.raises(ValueError, match="not a campaign checkpoint"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_unknown_versions(tmp_path):
    path = tmp_path / "future.ckpt.json"
    target, plugins = fresh()
    controller = make_controller(target, plugins)
    controller.run(CampaignSpec(budget=5, checkpoint_path=str(path)))
    header, *records = path.read_text().splitlines()
    data = json.loads(header)
    data["format_version"] = 99
    path.write_text("\n".join([json.dumps(data), *records]) + "\n")
    with pytest.raises(ValueError, match="unsupported"):
        load_checkpoint(path)


def test_restore_rejects_mismatched_plugins(tmp_path):
    path = tmp_path / "plugins.ckpt.json"
    target, plugins = fresh()
    controller = make_controller(target, plugins)
    controller.run(CampaignSpec(budget=5, checkpoint_path=str(path)))
    data = load_checkpoint(path)
    other_target, other_plugins = make_hill_target()  # mask only, no load
    with pytest.raises(ValueError, match="plugin set"):
        restore_controller(data, other_target, other_plugins)


def test_restore_refuses_config_keys_it_does_not_know(tmp_path):
    # A checkpoint written before `fault_isolation` was deleted carries it;
    # it must be a readable refusal, not a TypeError out of the dataclass.
    path = tmp_path / "old-config.ckpt.json"
    target, plugins = fresh()
    controller = make_controller(target, plugins)
    controller.run(CampaignSpec(budget=5, checkpoint_path=str(path)))
    data = load_checkpoint(path)
    data["settings"]["config"]["fault_isolation"] = True
    with pytest.raises(ValueError, match="does not have: fault_isolation"):
        restore_controller(data, *fresh())


def test_run_rejects_bad_checkpoint_cadence():
    target, plugins = fresh()
    controller = make_controller(target, plugins)
    with pytest.raises(ValueError):
        controller.run(CampaignSpec(budget=10, checkpoint_every=0))


def test_restore_refuses_a_checkpoint_renamed_to_another_strategy(tmp_path):
    path = tmp_path / "renamed.ckpt.json"
    make_controller(*fresh()).run(CampaignSpec(budget=5, checkpoint_path=str(path)))
    data = load_checkpoint(path)
    data["strategy"] = "random"
    with pytest.raises(ValueError, match="settings config are not strategy 'random'"):
        restore_controller(data, *fresh())
    data["strategy"] = "simplex"
    with pytest.raises(ValueError, match="names strategy 'simplex'"):
        restore_controller(data, *fresh())


def test_run_campaign_checkpoints_a_random_campaign(tmp_path):
    path = tmp_path / "random.ckpt.json"
    target, plugins = fresh()
    campaign = run_campaign(
        RandomExploration(target, plugins, seed=1),
        CampaignSpec(budget=5, checkpoint_path=str(path)),
    )
    data = load_checkpoint(path)
    assert (data["strategy"], data["settings"]) == ("random", {})
    restored = restore_controller(data, *fresh())
    assert isinstance(restored, RandomExploration)
    assert trajectory(restored.results) == trajectory(campaign.results)


def test_a_restricted_exhaustive_sweep_refuses_to_checkpoint(tmp_path):
    # Coordinates are positions, so a restore sweeping the target's grid
    # would replay this sweep's first tests without noticing.
    target, plugins = fresh()
    small = Hyperspace([ChoiceDimension("mask", [5, 6, 7, 8])])
    sweep = ExhaustiveExploration(target, plugins, hyperspace=small)
    with pytest.raises(ValueError, match="restricted hyperspace cannot be checkpointed"):
        sweep.run(CampaignSpec(budget=2, checkpoint_path=str(tmp_path / "sweep.ckpt")))


# ---------------------------------------------------------------------------
# every strategy: kill after k checkpoint records, resume, byte for byte
# ---------------------------------------------------------------------------
RESUME_BUDGET = 36
RESUME_EVERY = 6
RESUME_KILL_AT = 21  # serial: 3 records (6, 12, 18); genetic: 1 record (12)


def _campaign_bytes(strategy):
    """The strategy's results as ``repro campaign --out`` would save them."""
    campaign = CampaignResult(strategy=strategy.name, results=list(strategy.results))
    return json.dumps(campaign_to_dict(campaign)).encode()


def _run_streamed(strategy, stream, spec, **sink_kwargs):
    bus = TelemetryBus([JsonlSink(str(stream), **sink_kwargs)])
    try:
        strategy.run(CampaignSpec(telemetry=bus, **spec))
    finally:
        bus.close()


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_every_strategy_resumes_a_kill_byte_for_byte(tmp_path, name, seed):
    ckpt, stream = tmp_path / "campaign.ckpt", tmp_path / "campaign.jsonl"
    spec = dict(
        budget=RESUME_BUDGET, checkpoint_path=str(ckpt), checkpoint_every=RESUME_EVERY
    )
    reference = STRATEGIES[name](*fresh(), seed=seed)
    _run_streamed(reference, stream, spec)
    expected_results, expected_stream = _campaign_bytes(reference), stream.read_bytes()
    ckpt.unlink()
    stream.unlink()

    killed_target, killed_plugins = fresh(die_at=RESUME_KILL_AT)
    with pytest.raises(KeyboardInterrupt):
        _run_streamed(STRATEGIES[name](killed_target, killed_plugins, seed=seed), stream, spec)
    data = load_checkpoint(ckpt)
    assert len(data["records"]) >= 1 and len(data["results"]) < RESUME_KILL_AT - 1
    resumed_target, resumed_plugins = fresh()
    resumed = restore_controller(data, resumed_target, resumed_plugins)
    assert type(resumed) is type(reference)
    _run_streamed(
        resumed, stream, dict(spec, batch_size=data["run"]["batch_size"]),
        append=True, resume_seq=data["telemetry_seq"],
    )
    assert _campaign_bytes(resumed) == expected_results
    assert stream.read_bytes() == expected_stream
    assert resumed_target.executions == RESUME_BUDGET - len(data["results"])
