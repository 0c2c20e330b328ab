"""Snapshot-and-fork scenario execution.

Scenarios that share a benign prefix — same deployment shape, same seed,
same attack activation time, different attack parameters — re-simulate that
prefix from scratch on every test. At campaign scale the prefix (warmup plus
the pre-activation slice of the measurement window) dominates wall-clock
time. This module captures the full simulation state *once* at the first
injection point and forks it for every scenario in the equivalence class:

1. The first scenario of a class builds the deployment — always
   **benign**: attack designates run as correct nodes — with the activation
   time set, runs it to just before the activation point, and captures a
   :class:`SimSnapshot` — a deterministic pickle of the whole object graph
   (simulator, queue, RNG streams, nodes, network).
2. Each scenario calls :meth:`SimSnapshot.fork` to get a private deep copy,
   installs its attack via the deployment's ``install_attack``, and runs the
   suffix normally.

Both steps live in :class:`ForkableSpec`, the base of every target's
scenario spec; a target supplies only its deployment and its attack.

What is snapshot state — one rule, two cases:

* **Live state is pickled**: the clock, the event queue, RNG streams, node
  and protocol state, measurement accumulators — everything the suffix
  reads before it writes.
* **Derived closures are rebuilt**: state that is a function of the live
  graph and holds references into it (``Network._DERIVED_ATTRS``, the fused
  send path) is dropped by ``__getstate__`` and rebuilt on restore.

The payload therefore tracks *in-flight* state (log entries awaiting
garbage collection, queued events) plus the measurement samples, not the
length of the prefix; ``tests/snapshot/test_picklability.py`` bounds it at
campaign scale.

Correctness rests on two properties, both enforced by tests/snapshot/:

* The benign prefix is a pure function of the snapshot key — independent of
  every attack parameter (dormant attackers still draw RNG, activation is a
  *priority* event that never consumes the ordinary event sequence).
* ``pickle.loads(pickle.dumps(x))`` is a faithful deep copy — classes with
  derived, cycle-bearing state (the network's fused send path) implement
  ``__getstate__``/``__setstate__`` and are covered by lint rule PKL003.

Forking is a pure optimization: :func:`set_enabled` / :class:`disabled`
switch it off and every scenario runs from scratch, bit-identically.

Logger ``repro.core.snapshot`` (never the canonical telemetry stream): one
DEBUG line per capture, one INFO cache summary per ``run_campaign``.
"""

from __future__ import annotations

import logging
import pickle
from collections import OrderedDict
from contextlib import closing
from typing import Any, Callable, Hashable, Optional, Tuple

from ..sim.trace import kind_capture_enabled

_LOG = logging.getLogger(__name__)


class SnapshotError(Exception):
    """A snapshot could not be captured."""


class SnapshotRestoreError(SnapshotError):
    """A captured snapshot could not be restored (forked).

    Like a failed capture, this is a *harness* defect — the prefix ran fine
    — so the executor warns and falls back to from-scratch execution,
    never blaming the target.
    """


#: Module state: forking is on unless switched off by :func:`set_enabled`.
_ENABLED = True


def enabled() -> bool:
    """Whether new scenario executions may use snapshot forking."""
    return _ENABLED


def set_enabled(value: bool) -> bool:
    """Flip the toggle (tests / bench only); returns the previous value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(value)
    return previous


class disabled:
    """Context manager forcing from-scratch execution for a block.

    The executor uses this for the fallback run after a restore failure;
    the differential tests use it to produce the reference trajectory.
    """

    def __init__(self) -> None:
        self._previous: Optional[bool] = None

    def __enter__(self) -> "disabled":
        self._previous = set_enabled(False)
        return self

    def __exit__(self, *exc_info: object) -> None:
        set_enabled(self._previous)


class SimSnapshot:
    """Frozen simulation state at an injection point.

    The payload is the pickle of the deployment object graph — its *live*
    state; derived closures and pure memos are not in it (module docstring)
    — and every fork unpickles it into a fully private copy (no state
    shared with the cached bytes or with other forks).
    """

    __slots__ = ("key", "taken_at_us", "payload")

    def __init__(self, key: Hashable, taken_at_us: int, payload: bytes) -> None:
        self.key = key
        self.taken_at_us = taken_at_us
        self.payload = payload

    @classmethod
    def capture(cls, key: Hashable, deployment: Any) -> "SimSnapshot":
        """Pickle ``deployment`` (already run to the injection point)."""
        try:
            payload = pickle.dumps(deployment, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # pickling failures name the offending attr
            raise SnapshotError(f"cannot capture snapshot for {key!r}: {exc}") from exc
        taken_at_us = deployment.simulator.now
        _LOG.debug("captured %s at %d us: %d bytes", _key_scope(key), taken_at_us, len(payload))
        return cls(key, taken_at_us, payload)

    def fork(self) -> Any:
        """Restore a private copy of the captured deployment."""
        try:
            return pickle.loads(self.payload)
        except Exception as exc:
            raise SnapshotRestoreError(
                f"cannot restore snapshot for {self.key!r}: {exc}"
            ) from exc

    @property
    def size_bytes(self) -> int:
        return len(self.payload)


def _key_scope(key: Hashable) -> str:
    """A log-sized label for a snapshot key: its scalar fields, in order
    (target, counts, activation pct, seed, ...) without the config object."""
    if not isinstance(key, tuple):
        return str(key)
    return ":".join(str(part) for part in key if isinstance(part, (str, int)))


#: Snapshots a cache holds before evicting the least recently used.
MAX_ENTRIES = 32


class SnapshotCache:
    """An LRU cache of :class:`SimSnapshot` keyed by benign-prefix signature.

    The key must encode *everything* the prefix depends on — deployment
    shape, protocol config, seed, and the activation time — and nothing the
    attack varies. Keys are produced in one place,
    :meth:`ForkableSpec.snapshot_key`; a wrong key here is a correctness bug,
    which is why the differential harness compares forked runs against
    from-scratch runs byte-for-byte.
    """

    def __init__(self, max_entries: int = MAX_ENTRIES) -> None:
        self.max_entries = max_entries
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._entries: "OrderedDict[Hashable, SimSnapshot]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[SimSnapshot]:
        snapshot = self._entries.get(key)
        if snapshot is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return snapshot

    def put(self, snapshot: SimSnapshot) -> SimSnapshot:
        self._entries[snapshot.key] = snapshot
        self._entries.move_to_end(snapshot.key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        return snapshot

    def get_or_capture(
        self, key: Hashable, build_prefix: Callable[[], Any]
    ) -> SimSnapshot:
        """Return the cached snapshot for ``key``, capturing it on a miss.

        ``build_prefix`` must construct the benign deployment and run it to
        the injection point; it is only invoked on a miss. The prefix
        deployment's life ends once it is pickled: it is closed then.
        """
        snapshot = self.get(key)
        if snapshot is None:
            with closing(build_prefix()) as prefix:
                snapshot = self.put(SimSnapshot.capture(key, prefix))
        return snapshot

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Tuple[int, int, int, int]:
        """(entries, hits, misses, evictions) — for telemetry and tests."""
        return (len(self._entries), self.hits, self.misses, self.evictions)

    @property
    def payload_bytes(self) -> int:
        """Bytes of pickled state the cache holds right now."""
        return sum(snapshot.size_bytes for snapshot in self._entries.values())

    def log_summary(self) -> None:
        """One INFO line: what the cache holds and how it has been used.

        Counters are cumulative for this process's cache, not per campaign;
        pool workers keep caches of their own that this does not see.
        """
        _LOG.info(
            "snapshot cache: %d entries, %d hits, %d misses, %d evictions, %d bytes",
            *self.stats(),
            self.payload_bytes,
        )


#: Process-wide cache. Worker processes each get their own, filled by the
#: scenarios they run (a forked local worker starts with a copy of the
#: parent's); tests that need isolation swap it with :func:`reset_cache`.
_CACHE = SnapshotCache()


def cache() -> SnapshotCache:
    return _CACHE


def reset_cache(max_entries: int = MAX_ENTRIES) -> SnapshotCache:
    """Replace the process-wide cache (tests / bench)."""
    global _CACHE
    _CACHE = SnapshotCache(max_entries)
    return _CACHE


class ForkableSpec:
    """A scenario spec's one path from a seed to an armed deployment.

    A subclass supplies ``kind`` (``"pbft"``, ``"dht"``), a ``config`` with
    ``warmup_us`` and ``measurement_us``, ``attack_start_pct`` (the share of
    the measurement window elapsed before the attack switches on; ``None``
    = at t=0, before every ordinary event), :meth:`shape`,
    :meth:`deployment` and :meth:`attack`. How a timed scenario's benign
    prefix is spelled, keyed, captured on first use and forked is decided
    here, once for every target.
    """

    kind = ""

    def shape(self) -> Tuple[int, int]:
        """``(n_correct, n_malicious)``: the population the prefix runs."""
        raise NotImplementedError

    def deployment(self, seed: int, attack_start_us: int) -> Any:
        """A fresh benign deployment with its activation time set."""
        raise NotImplementedError

    def attack(self) -> Any:
        """The activation bundle this scenario installs at its start time."""
        raise NotImplementedError

    def build(self, seed: int) -> Any:
        """A benign deployment — forked from its prefix snapshot, captured
        on first use, when the scenario is timed and forking is on — with
        :meth:`attack` installed."""
        if self.seed_scope() is not None and enabled():
            snapshot = cache().get_or_capture(
                self.snapshot_key(seed), lambda: self.build_prefix(seed)
            )
            deployment = snapshot.fork()
        else:
            deployment = self.deployment(seed, self.attack_start_us())
        deployment.install_attack(self.attack())
        return deployment

    def run(self, seed: int) -> Any:
        """Build (:meth:`build`), run and close one scenario's deployment;
        returns its result. The deployment is freed as this returns."""
        with closing(self.build(seed)) as deployment:
            return deployment.run()

    def attack_start_us(self) -> int:
        """Absolute activation time (0 for an untimed scenario)."""
        if self.attack_start_pct is None:
            return 0
        config = self.config
        return max(1, config.warmup_us + config.measurement_us * self.attack_start_pct // 100)

    def seed_scope(self) -> Optional[str]:
        """Seed-equivalence class: the benign prefix's shape, ``None`` if untimed.

        The single spelling of the scope string; the executor seeds every
        scenario of the class from it.
        """
        if self.attack_start_pct is None:
            return None
        n_correct, n_malicious = self.shape()
        return f"{self.kind}-prefix:{n_correct}:{n_malicious}:{self.attack_start_pct}"

    def snapshot_key(self, seed: int) -> Tuple:
        """Everything the benign prefix depends on — and nothing else.

        Coverage capture changes what the prefix *records* (the network's
        kind trail), so the flag is part of the key: a prefix captured with
        capture off must never be forked into a coverage-mode run.
        """
        return (
            self.kind,
            self.config,
            *self.shape(),
            self.attack_start_pct,
            seed,
            kind_capture_enabled(),
        )

    def build_prefix(self, seed: int) -> Any:
        """Build the benign deployment and run it to the injection point."""
        start_us = self.attack_start_us()
        deployment = self.deployment(seed, start_us)
        deployment.run_prefix(start_us - 1)
        return deployment


__all__ = [
    "ForkableSpec",
    "SimSnapshot",
    "SnapshotCache",
    "SnapshotError",
    "SnapshotRestoreError",
    "cache",
    "disabled",
    "enabled",
    "reset_cache",
    "set_enabled",
]
