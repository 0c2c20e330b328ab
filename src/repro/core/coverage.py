"""Coverage signatures and the seen-behaviour map (greybox novelty).

The paper's controller steers purely by impact; "Greybox Fuzzing of
Distributed Systems" (Mallory) shows that *event-timeline coverage* as an
additional feedback signal reaches protocol violations with far fewer
tests. This module derives a per-scenario **coverage signature** — a stable
digest of the behaviour a scenario exhibited (message-kind counts and
2-gram delivery sequences from the network's :class:`~repro.sim.trace.KindTrail`,
view changes, timer fires, quorum shapes, throughput-timeline n-grams) —
and maintains the campaign-global seen-behaviour map that turns the
underlying *features* into a novelty score (see :class:`CoverageMap`:
scoring is per-feature, the AFL "new edge" criterion, because on rich
targets whole-signature counting degenerates to "everything is unique").

Determinism contract (enforced by ``tests/core/test_coverage.py`` and the
``tests/perf`` sweeps):

- features are derived only from the measurement and the scenario
  parameters, both pure functions of ``(seed, scenario)``;
- the digest is SHA-256 over a canonical encoding — never the builtin
  ``hash()``, which is salted per process (``repro lint`` DET004);
- bucketing uses exact integer arithmetic (powers of two), so optimized
  and reference runs, fork and from-scratch executions, and fresh
  ``PYTHONHASHSEED`` processes all produce identical signatures.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Number of quantization levels for throughput-timeline n-grams.
SERIES_LEVELS = 4

#: Length of the signature hex digest kept in events. 64 bits
#: of SHA-256 is far beyond accidental-collision range for campaign-scale
#: behaviour sets (≤ 10^6 distinct signatures).
SIGNATURE_HEX_CHARS = 16


def log2_bucket(value: Any) -> int:
    """Collapse a count into a power-of-two bucket (0, 1, 2, 4, 8, ...).

    Coverage cares about *regimes* (none / a few / tens / hundreds), not
    exact tallies — bucketing keeps the signature stable under the ±1
    jitter that would otherwise make every scenario look novel. Exact
    integer arithmetic only: no float log, no platform variation.
    """
    count = int(value)
    if count <= 0:
        return 0
    return 1 << (count.bit_length() - 1)


def quantize_series(series: Sequence[float], levels: int = SERIES_LEVELS) -> List[int]:
    """Quantize a numeric series into ``levels`` relative levels.

    Each point is scaled by the series maximum (so the shape, not the
    absolute rate, is what's covered) and floored into ``0..levels-1``.
    A flat-zero or empty series quantizes to all-zero levels.
    """
    if levels < 2:
        raise ValueError("levels must be >= 2")
    values = [float(v) for v in series]
    top = max(values) if values else 0.0
    if top <= 0:
        return [0] * len(values)
    return [min(levels - 1, int(levels * value / top)) for value in values]


def series_ngrams(series: Sequence[float], prefix: str = "tp") -> List[str]:
    """Feature strings for the 2-grams of a quantized series.

    ``"tp:2>3"`` means the quantized timeline stepped from level 2 to
    level 3 somewhere — the set of transitions captures collapse shapes
    (healthy→dead, oscillation, slow decay) without being as brittle as
    the full sequence.
    """
    levels = quantize_series(series)
    grams = sorted({f"{a}>{b}" for a, b in zip(levels, levels[1:])})
    return [f"{prefix}:{gram}" for gram in grams]


def counter_features(counters: Mapping[str, Any], prefix: str = "ctr") -> List[str]:
    """Bucketed feature strings for a named-counter mapping, sorted by name."""
    return [
        f"{prefix}:{name}:{log2_bucket(value)}"
        for name, value in sorted(counters.items())
        if isinstance(value, (int, float))
    ]


def protocol_counter_features(counters: Mapping[str, Any]) -> List[str]:
    """Feature strings for a deployment's protocol counters, sorted by name.

    Every numeric counter is bucketed as in :func:`counter_features`, except
    the delivery trail (``net.msg.*``/``net.seq.*``, recorded under coverage
    capture): which message kinds and kind->kind transitions occurred at all
    (AFL-style edge coverage). Bucketing ~70 per-edge counts instead makes
    every run's vector unique, and novelty degenerates to a constant 1.0.
    """
    features: List[str] = []
    for name, value in sorted(counters.items()):
        if not isinstance(value, (int, float)):
            continue
        if name.startswith(("net.seq.", "net.msg.")):
            features.append(f"edge:{name[4:]}")
        else:
            features.append(f"ctr:{name}:{log2_bucket(value)}")
    return features


def generic_features(measurement: Any, params: Mapping[str, Any]) -> Tuple[str, ...]:
    """Fallback extractor for targets without ``coverage_features``.

    Walks the measurement's public numeric fields (dataclass, mapping, or
    attribute-view) in sorted order and buckets them; non-numeric fields
    are ignored. Weaker than a target-specific extractor but still a pure
    function of the measurement.
    """
    if measurement is None:
        return ("none",)
    if isinstance(measurement, Mapping):
        raw = dict(measurement)
    elif hasattr(measurement, "as_dict"):
        raw = measurement.as_dict()
    elif hasattr(measurement, "__dataclass_fields__"):
        raw = {
            name: getattr(measurement, name)
            for name in measurement.__dataclass_fields__
        }
    elif hasattr(measurement, "__dict__"):
        raw = dict(vars(measurement))
    else:
        return (f"scalar:{log2_bucket(measurement) if isinstance(measurement, (int, float)) else repr(measurement)}",)
    features: List[str] = []
    for name in sorted(raw):
        if name.startswith("_"):
            continue
        value = raw[name]
        if isinstance(value, bool):
            features.append(f"f:{name}:{int(value)}")
        elif isinstance(value, (int, float)):
            features.append(f"f:{name}:{log2_bucket(value)}")
        elif isinstance(value, Mapping):
            features.extend(counter_features(value, prefix=f"f:{name}"))
    return tuple(features) if features else ("empty",)


def extract_features(target: Any, measurement: Any, params: Mapping[str, Any]) -> Tuple[str, ...]:
    """The target's feature tuple for one executed scenario.

    Prefers the target's own ``coverage_features(measurement, params)``
    (full-tier targets ship one); falls back to :func:`generic_features`.
    """
    extractor = getattr(target, "coverage_features", None)
    if extractor is not None:
        return tuple(extractor(measurement, params))
    return generic_features(measurement, params)


def signature_of(features: Iterable[str]) -> str:
    """Stable digest of a feature tuple.

    Features are deduplicated and sorted (coverage is a *set* of observed
    behaviours — extraction order must not matter), then SHA-256 hashed
    over an unambiguous length-prefixed encoding. The builtin ``hash()``
    is banned here (salted per process; ``repro lint`` DET004).
    """
    digest = hashlib.sha256()
    for feature in sorted(set(features)):
        encoded = feature.encode("utf-8")
        digest.update(str(len(encoded)).encode("ascii"))
        digest.update(b":")
        digest.update(encoded)
    return digest.hexdigest()[:SIGNATURE_HEX_CHARS]


class CoverageMap:
    """The campaign-global seen-behaviour map.

    Tracks two granularities, both in first-seen order (plain dict
    insertion order — deterministic because scenarios are absorbed in
    submission order):

    - **signatures** — the whole-behaviour digest per scenario, the
      identity used for dedup accounting and telemetry;
    - **features** — the individual behaviour facts (edges, buckets,
      shape n-grams) that make up those signatures.

    Novelty is scored at the *feature* level, the greybox-fuzzing
    criterion: a scenario is novel when it exhibited at least one
    never-seen feature, and its novelty score is the mean rarity of its
    features (a feature seen by ``n`` scenarios contributes ``1/n``).
    Signature-level scoring alone degenerates on rich targets — with
    dozens of jointly-varying features almost every signature is unique,
    so "have I seen this exact signature" carries no gradient, while
    "did this run light up a rare edge" still does.
    """

    def __init__(self) -> None:
        self.seen: Dict[str, int] = {}
        self.features: Dict[str, int] = {}

    def observe(self, signature: str, features: Iterable[str]) -> Tuple[bool, float]:
        """Record one observation; returns ``(novel, novelty_score)``.

        ``novel`` means "exhibited a never-seen feature" and the score is
        the post-observation mean feature rarity.
        """
        self.seen[signature] = self.seen.get(signature, 0) + 1
        observed = list(features)
        novel = False
        for feature in observed:
            seen = self.features.get(feature, 0) + 1
            self.features[feature] = seen
            if seen == 1:
                novel = True
        return novel, self.feature_novelty(observed)

    def feature_novelty(self, features: Optional[Iterable[str]]) -> float:
        """Current mean rarity of a feature tuple.

        A feature never observed scores 1; one observed by ``n``
        scenarios scores ``1/n``. An empty/unknown tuple scores a
        neutral 0.5 (matches scenarios absorbed before coverage was on).
        """
        observed = list(features or ())
        if not observed:
            return 0.5
        total = 0.0
        for feature in observed:
            total += 1.0 / max(1, self.features.get(feature, 0))
        return total / len(observed)

    def __len__(self) -> int:
        return len(self.seen)

    def __contains__(self, signature: str) -> bool:
        return signature in self.seen


__all__ = [
    "CoverageMap",
    "SERIES_LEVELS",
    "SIGNATURE_HEX_CHARS",
    "counter_features",
    "extract_features",
    "generic_features",
    "log2_bucket",
    "protocol_counter_features",
    "quantize_series",
    "series_ngrams",
    "signature_of",
]
