"""Simulated pairwise session keys.

PBFT authenticates messages with MACs computed under symmetric session keys
shared between every pair of nodes (Castro & Liskov '99, Sec. 2). We model a
key as a 64-bit integer derived deterministically from the deployment's key
root and the unordered pair of node names — both endpoints derive the same
key without any key-exchange protocol, which is all the simulation needs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, MutableMapping, Optional, Tuple

from .. import perf
from .digest import mix64, stable_digest


_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class FoldMemo(dict):
    """A memo of pure ``mix64`` folds: ``(a, b) -> mix64(a, b)``.

    One instance is shared by every node of a deployment (MAC tags keyed by
    ``(session key, digest)``, execution folds by ``(state, digest)``), so
    it grows with every message the run has *ever* carried. None of that is
    simulation state — an entry can always be recomputed from its key — so
    the memo pickles as **empty**: a snapshot restores it cold instead of
    re-materialising tens of thousands of entries about messages that were
    delivered before the capture point. Pickle's own memo table keeps the
    identity: every holder of one ``FoldMemo`` before ``dumps`` holds one
    (fresh) ``FoldMemo`` after ``loads``, so a suffix sender's fold is still
    found by its receiver. ``get``/``__setitem__`` are the inherited C
    slots; the hot paths probe it exactly as they would a plain dict.
    """

    __slots__ = ()

    def __reduce__(self):
        return (FoldMemo, ())


class KeyStore:
    """Derives and caches pairwise session keys for one node.

    ``tag_cache`` may be a :class:`FoldMemo` *shared by every node of one
    deployment*: genuine MAC tags are keyed by ``(session key, digest)``,
    and both ends of a pair hold the same session key, so the tag the
    sender generated is found again when the receiver verifies it — each
    tag's ``mix64`` fold runs once per deployment instead of once per
    endpoint. A standalone keystore gets a private one. Memoization is
    sampled from :mod:`repro.perf` at construction.
    """

    def __init__(
        self,
        key_root: int,
        owner: str,
        tag_cache: Optional[MutableMapping[Tuple[int, int], int]] = None,
    ) -> None:
        self.key_root = key_root
        self.owner = owner
        self._cache: Dict[str, int] = {}
        self._tag_cache = tag_cache if tag_cache is not None else FoldMemo()
        self._memoize_tags = perf.enabled()

    def session_key(self, peer: str) -> int:
        """The symmetric key shared between ``self.owner`` and ``peer``."""
        key = self._cache.get(peer)
        if key is None:
            key = derive_session_key(self.key_root, self.owner, peer)
            self._cache[peer] = key
        return key

    def expected_tag(self, peer: str, payload_digest: int) -> int:
        """The genuine MAC tag for ``payload_digest`` under the key shared
        with ``peer`` (``mix64(session_key(peer), payload_digest)``)."""
        key = self._cache.get(peer)
        if key is None:
            key = self.session_key(peer)
        if not self._memoize_tags:
            return mix64(key, payload_digest)
        pair = (key, payload_digest)
        tag = self._tag_cache.get(pair)
        if tag is None:
            # Inlined mix64(key, payload_digest): the call overhead is
            # measurable at this call volume, the arithmetic is identical.
            accumulator = ((_FNV_OFFSET ^ (key & _MASK64)) * _FNV_PRIME) & _MASK64
            tag = ((accumulator ^ (payload_digest & _MASK64)) * _FNV_PRIME) & _MASK64
            self._tag_cache[pair] = tag
        return tag


# Both endpoints of a pair derive the same key from the same inputs (that
# is the point of the construction), so within one deployment every
# derivation runs exactly twice — the memo halves the digest work. The key
# is a pure function of its arguments; the bounded LRU keeps old key roots
# from accumulating across scenarios.
@lru_cache(maxsize=1 << 16)
def derive_session_key(key_root: int, a: str, b: str) -> int:
    """Derive the symmetric key for the unordered pair ``{a, b}``."""
    first, second = sorted((a, b))
    return stable_digest((key_root, "session-key", first, second))


def pair_of(owner: str, peer: str) -> Tuple[str, str]:
    """Canonical (sorted) representation of a key pair."""
    return tuple(sorted((owner, peer)))  # type: ignore[return-value]


__all__ = ["FoldMemo", "KeyStore", "derive_session_key", "pair_of"]
