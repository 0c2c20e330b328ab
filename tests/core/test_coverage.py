"""Coverage signatures, the seen-behaviour map, and hybrid exploration.

Three contracts live here:

- the feature/signature layer is a *pure, deterministic* function of the
  measurement (order-independent, ``hash()``-free, stable across
  processes with different ``PYTHONHASHSEED``);
- ``novelty_weight=0`` is the paper's controller bit-for-bit — coverage
  is strictly additive;
- the coverage state (seen map, per-scenario signatures, novelty corpus)
  checkpoints and resumes bit-identically, and is worker-count invariant.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    AvdExploration,
    CampaignSpec,
    ControllerConfig,
    CoverageMap,
    HybridExploration,
    TestController,
    load_checkpoint,
    restore_controller,
    signature_of,
)
from repro.core.controller import NOVEL_CORPUS_CAP
from repro.core.coverage import (
    SIGNATURE_HEX_CHARS,
    counter_features,
    extract_features,
    generic_features,
    log2_bucket,
    quantize_series,
    series_ngrams,
)
from repro.telemetry import RingBufferSink, TelemetryBus, validate_jsonl
from tests._strategies import trajectory
from tests.core.fake_target import HillTarget, LoadPlugin, MaskPlugin

SRC = str(Path(__file__).resolve().parents[2] / "src")


# ---------------------------------------------------------------------------
# feature helpers
# ---------------------------------------------------------------------------
class TestFeatureHelpers:
    def test_log2_bucket_collapses_to_powers_of_two(self):
        assert [log2_bucket(v) for v in (0, 1, 2, 3, 4, 5, 7, 8, 1000)] == [
            0, 1, 2, 2, 4, 4, 4, 8, 512,
        ]

    def test_log2_bucket_clamps_negatives_and_floors_floats(self):
        assert log2_bucket(-17) == 0
        assert log2_bucket(3.9) == 2

    def test_quantize_series_is_relative_to_the_peak(self):
        assert quantize_series([1.0, 2.0, 4.0, 4.0]) == [1, 2, 3, 3]
        assert quantize_series([10.0, 20.0, 40.0]) == quantize_series([1.0, 2.0, 4.0])

    def test_quantize_series_degenerate_inputs(self):
        assert quantize_series([]) == []
        assert quantize_series([0.0, 0.0]) == [0, 0]
        assert quantize_series([-1.0, -2.0]) == [0, 0]
        with pytest.raises(ValueError, match="levels"):
            quantize_series([1.0], levels=1)

    def test_series_ngrams_capture_transitions(self):
        assert series_ngrams([0.0, 4.0, 4.0, 0.0]) == ["tp:0>3", "tp:3>0", "tp:3>3"]
        assert series_ngrams([]) == []

    def test_counter_features_sorted_and_numeric_only(self):
        features = counter_features({"b": 5, "a": 1, "label": "x"})
        assert features == ["ctr:a:1", "ctr:b:4"]

    def test_generic_features_mapping_and_none(self):
        assert generic_features(None, {}) == ("none",)
        features = generic_features({"x": 3, "_private": 9, "flag": True}, {})
        assert features == ("f:flag:1", "f:x:2")

    def test_generic_features_dataclass(self):
        import dataclasses

        @dataclasses.dataclass
        class Sample:
            count: int
            name: str

        assert generic_features(Sample(count=6, name="n"), {}) == ("f:count:4",)

    def test_extract_features_prefers_target_extractor(self):
        class WithExtractor:
            def coverage_features(self, measurement, params):
                return ["custom:1"]

        assert extract_features(WithExtractor(), {"x": 1}, {}) == ("custom:1",)
        assert extract_features(object(), {"x": 1}, {}) == ("f:x:1",)


class TestSignatureOf:
    def test_order_independent_and_deduplicated(self):
        assert signature_of(["a", "b", "c"]) == signature_of(["c", "b", "a", "a"])

    def test_distinct_features_distinct_signatures(self):
        assert signature_of(["a", "b"]) != signature_of(["a", "c"])

    def test_concatenation_is_not_ambiguous(self):
        # The length-prefixed encoding distinguishes ["ab"] from ["a", "b"].
        assert signature_of(["ab"]) != signature_of(["a", "b"])

    def test_hex_digest_shape(self):
        signature = signature_of(["a"])
        assert len(signature) == SIGNATURE_HEX_CHARS
        assert set(signature) <= set("0123456789abcdef")

    def test_matches_sha256_not_builtin_hash(self):
        expected = hashlib.sha256(b"1:a").hexdigest()[:SIGNATURE_HEX_CHARS]
        assert signature_of(["a"]) == expected


class TestCoverageMap:
    def test_observe_decays_novelty(self):
        coverage = CoverageMap()
        assert coverage.observe("s", ("a",)) == (True, 1.0)
        assert coverage.observe("s", ("a",)) == (False, 0.5)
        assert coverage.observe("s", ("a",)) == (False, pytest.approx(1 / 3))

    def test_len_and_contains(self):
        coverage = CoverageMap()
        coverage.observe("a", ("f",))
        coverage.observe("a", ("f",))
        coverage.observe("b", ("g",))
        assert len(coverage) == 2
        assert "a" in coverage and "z" not in coverage

    def test_state_round_trip_preserves_order_and_counts(self):
        coverage = CoverageMap()
        for signature in ("x", "y", "x", "z"):
            coverage.observe(signature, (signature,))
        restored = CoverageMap.from_state(coverage.to_state())
        assert restored.seen == coverage.seen
        assert list(restored.seen) == list(coverage.seen)  # first-seen order

    def test_observe_with_features_scores_feature_rarity(self):
        coverage = CoverageMap()
        assert coverage.observe("s1", ("a", "b")) == (True, 1.0)
        # "a" now seen twice (1/2), "c" is fresh (1/1) -> mean 0.75
        assert coverage.observe("s2", ("a", "c")) == (True, pytest.approx(0.75))
        # nothing new: a -> 3 observations, b -> 2
        novel, score = coverage.observe("s3", ("a", "b"))
        assert not novel
        assert score == pytest.approx((1 / 3 + 1 / 2) / 2)

    def test_feature_novelty_current_and_neutral(self):
        coverage = CoverageMap()
        assert coverage.feature_novelty(()) == 0.5  # unknown scores neutral
        assert coverage.feature_novelty(None) == 0.5
        assert coverage.feature_novelty(("never-seen",)) == 1.0
        coverage.observe("s", ("a",))
        coverage.observe("t", ("a",))
        assert coverage.feature_novelty(("a",)) == 0.5

    def test_state_round_trip_includes_feature_counts(self):
        coverage = CoverageMap()
        coverage.observe("x", ("f1", "f2"))
        coverage.observe("y", ("f2",))
        restored = CoverageMap.from_state(coverage.to_state())
        assert restored.seen == coverage.seen
        assert restored.features == coverage.features
        assert list(restored.features) == list(coverage.features)


# ---------------------------------------------------------------------------
# controller integration (hill target)
# ---------------------------------------------------------------------------
def fresh_target():
    plugins = [MaskPlugin(), LoadPlugin()]
    return HillTarget(plugins), plugins


def coverage_state(controller: TestController):
    return {
        "seen": controller.coverage.to_state(),
        "signatures": dict(controller._signatures),
        "features": dict(controller._features),
        "corpus": list(controller._novel_corpus),
    }


def test_novelty_weight_zero_is_plain_avd_bit_for_bit():
    target, plugins = fresh_target()
    baseline = AvdExploration(target, plugins, seed=7)
    reference = trajectory(baseline.run(CampaignSpec(budget=60)))

    target, plugins = fresh_target()
    hybrid = HybridExploration(target, plugins, seed=7, novelty_weight=0.0)
    forced = trajectory(hybrid.run(CampaignSpec(budget=60)))

    assert forced == reference
    # The legacy path records no coverage at all.
    assert len(hybrid.controller.coverage) == 0
    assert hybrid.controller._signatures == {}


def test_hybrid_default_weight_and_config_override():
    target, plugins = fresh_target()
    assert (
        HybridExploration(target, plugins).controller.novelty_weight
        == HybridExploration.DEFAULT_NOVELTY_WEIGHT
    )
    target, plugins = fresh_target()
    explicit = HybridExploration(target, plugins, novelty_weight=0.9)
    assert explicit.controller.novelty_weight == 0.9
    target, plugins = fresh_target()
    via_config = HybridExploration(
        target, plugins, config=ControllerConfig(novelty_weight=0.2)
    )
    assert via_config.controller.novelty_weight == 0.2


def test_novelty_weight_validation():
    with pytest.raises(ValueError, match="novelty_weight"):
        ControllerConfig(novelty_weight=1.5)
    with pytest.raises(ValueError, match="novelty_weight"):
        ControllerConfig(novelty_weight=-0.1)


def test_hybrid_records_a_signature_for_every_scenario():
    target, plugins = fresh_target()
    strategy = HybridExploration(target, plugins, seed=3)
    results = strategy.run(CampaignSpec(budget=50))
    controller = strategy.controller
    assert set(controller._signatures) == {result.key for result in results}
    assert sum(controller.coverage.seen.values()) == len(results)
    assert 1 <= len(controller.coverage) <= len(results)
    assert len(controller._novel_corpus) <= NOVEL_CORPUS_CAP


def test_features_are_kept_for_parent_candidates_only():
    """`_sample_parent` re-scores Pi and the novelty corpus, and a result
    joins either when absorbed or never: nobody else's feature tuple is
    kept (or re-serialised into every checkpoint)."""
    target, plugins = fresh_target()
    strategy = HybridExploration(target, plugins, seed=3)
    strategy.run(CampaignSpec(budget=60))
    controller = strategy.controller
    candidates = {entry.key for entry in controller.top_set.entries}
    candidates.update(controller._novel_corpus)
    assert set(controller._features) == candidates
    assert len(controller._features) < len(controller.results)


def test_hybrid_trajectory_is_deterministic_for_a_seed():
    runs = []
    for _ in range(2):
        target, plugins = fresh_target()
        strategy = HybridExploration(target, plugins, seed=11)
        strategy.run(CampaignSpec(budget=40))
        runs.append(
            (trajectory(strategy.controller.results), coverage_state(strategy.controller))
        )
    assert runs[0] == runs[1]


def test_hybrid_publishes_coverage_observed_telemetry():
    target, plugins = fresh_target()
    strategy = HybridExploration(target, plugins, seed=5)
    sink = RingBufferSink()
    strategy.run(CampaignSpec(budget=30, telemetry=TelemetryBus(sinks=(sink,))))
    lines = sink.to_lines()
    validate_jsonl(lines)  # v=2 stream with CoverageObserved passes the schema
    records = [json.loads(line) for line in lines]
    observed = [r for r in records if r["type"] == "CoverageObserved"]
    assert len(observed) == 30
    by_key = strategy.controller._signatures
    for record in observed:
        assert record["signature"] == by_key[tuple(sorted(record["key"].items()))]
        assert record["seen_total"] >= 1
        assert 0.0 < record["novelty"] <= 1.0


def test_hybrid_campaign_is_worker_count_invariant():
    streams = {}
    for workers in (1, 2):
        target, plugins = fresh_target()
        strategy = HybridExploration(target, plugins, seed=9)
        sink = RingBufferSink()
        strategy.run(
            CampaignSpec(
                budget=24,
                workers=workers,
                batch_size=4,
                telemetry=TelemetryBus(sinks=(sink,)),
            )
        )
        streams[workers] = (
            trajectory(strategy.controller.results),
            coverage_state(strategy.controller),
            sink.to_lines(),
        )
    assert streams[1] == streams[2]


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------
class DieAt(HillTarget):
    def __init__(self, plugins, die_at):
        super().__init__(plugins)
        self.die_at = die_at

    def execute(self, params, seed):
        if self.executions + 1 == self.die_at:
            raise KeyboardInterrupt
        return super().execute(params, seed)


def test_hybrid_resume_is_bit_identical_including_coverage(tmp_path):
    config = ControllerConfig(novelty_weight=0.4)

    target, plugins = fresh_target()
    reference = TestController(target, plugins, seed=13, config=config)
    reference.run(CampaignSpec(budget=60))

    path = tmp_path / "hybrid.ckpt.json"
    plugins = [MaskPlugin(), LoadPlugin()]
    interrupted = TestController(
        DieAt(plugins, die_at=31), plugins, seed=13, config=config
    )
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(
            CampaignSpec(budget=60, checkpoint_path=str(path), checkpoint_every=10)
        )

    data = load_checkpoint(path)
    assert data["config"]["novelty_weight"] == 0.4
    assert data["coverage"]["seen"]  # coverage state is in the document

    target, plugins = fresh_target()
    resumed = restore_controller(data, target, plugins)
    assert resumed.novelty_weight == 0.4
    resumed.run(CampaignSpec(budget=60, checkpoint_path=str(path), checkpoint_every=10))

    assert trajectory(resumed.results) == trajectory(reference.results)
    assert coverage_state(resumed) == coverage_state(reference)
    assert resumed.rng.getstate() == reference.rng.getstate()


def test_old_checkpoints_without_coverage_restore_cleanly(tmp_path):
    # A v1 document (pre-coverage) has no "coverage" block and no
    # novelty_weight in its config: both default to off.
    path = tmp_path / "old.ckpt.json"
    target, plugins = fresh_target()
    controller = TestController(target, plugins, seed=2)
    controller.run(CampaignSpec(budget=10, checkpoint_path=str(path)))
    data = json.loads(path.read_text())
    data.pop("coverage", None)
    data["config"].pop("novelty_weight", None)
    path.write_text(json.dumps(data))

    target, plugins = fresh_target()
    restored = restore_controller(load_checkpoint(path), target, plugins)
    assert restored.novelty_weight == 0.0
    assert len(restored.coverage) == 0
    restored.run(CampaignSpec(budget=20))
    assert len(restored.results) == 20


# ---------------------------------------------------------------------------
# cross-process determinism (fresh PYTHONHASHSEED)
# ---------------------------------------------------------------------------
def hybrid_digest() -> str:
    """Digest of a hybrid campaign's trajectory + signatures (subprocess hook)."""
    target, plugins = fresh_target()
    strategy = HybridExploration(target, plugins, seed=21)
    strategy.run(CampaignSpec(budget=40))
    controller = strategy.controller
    payload = repr(
        (
            trajectory(controller.results),
            sorted(controller._signatures.items()),
            controller.coverage.to_state(),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_SUBPROCESS_SCRIPT = """
import tests.core.test_coverage as cov
print(cov.hybrid_digest())
"""


def _digest_in_fresh_interpreter(hash_seed: str) -> str:
    root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + root
    env["PYTHONHASHSEED"] = hash_seed
    result = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        check=True,
    )
    return result.stdout.strip()


def test_signatures_identical_across_hash_seeds():
    """Signatures survive a different hash salt: nothing in the coverage
    layer depends on ``hash()`` or set/dict iteration order."""
    assert _digest_in_fresh_interpreter("1") == _digest_in_fresh_interpreter("2")
