"""Simulated pairwise session keys.

PBFT authenticates messages with MACs computed under symmetric session keys
shared between every pair of nodes (Castro & Liskov '99, Sec. 2). We model a
key as a 64-bit integer derived deterministically from the deployment's key
root and the unordered pair of node names — both endpoints derive the same
key without any key-exchange protocol, which is all the simulation needs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from .digest import mix64, stable_digest


class KeyStore:
    """Derives and caches pairwise session keys for one node."""

    # tag_cache is ignored; only the frozen benchmark's MAC probe still passes it.
    def __init__(self, key_root: int, owner: str, tag_cache: object = None) -> None:
        self.key_root = key_root
        self.owner = owner
        self._cache: Dict[str, int] = {}

    def session_key(self, peer: str) -> int:
        """The symmetric key shared between ``self.owner`` and ``peer``."""
        key = self._cache.get(peer)
        if key is None:
            key = derive_session_key(self.key_root, self.owner, peer)
            self._cache[peer] = key
        return key

    def expected_tag(self, peer: str, payload_digest: int) -> int:
        """The genuine MAC tag for ``payload_digest`` under the key shared
        with ``peer``."""
        return mix64(self.session_key(peer), payload_digest)


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


__all__ = ["KeyStore", "derive_session_key", "pair_of"]
