"""Simulated MACs and PBFT authenticators.

A PBFT *authenticator* is a vector of MACs, one per receiving replica, all
over the same payload but each under the sender's session key with that
replica (Castro & Liskov '99). The Big MAC attack (Clement et al., NSDI'09)
exploits exactly this structure: a faulty client can craft an authenticator
whose MAC is valid for the primary but invalid for the other replicas.

The corruption hook is the paper's fault-injection surface: AVD's MAC
corruption tool decides, per ``generateMAC`` *call number*, whether the
produced tag is corrupted (Sec. 6: a 12-bit Gray-coded bitmask over call
numbers mod 12).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from .digest import mix64, stable_digest
from .keys import KeyStore

#: Corruption policy: (call_number, verifier_name) -> corrupt this tag?
CorruptionPolicy = Callable[[int, str], bool]

#: XOR mask applied to corrupted tags; any nonzero constant works because
#: verification recomputes the genuine tag and compares for equality.
_CORRUPTION_MASK = 0xBAD_0BAD_0BAD


def compute_mac(session_key: int, payload_digest: int) -> int:
    """The genuine MAC tag for ``payload_digest`` under ``session_key``."""
    return mix64(session_key, payload_digest)


class MacGenerator:
    """Generates MAC tags for one node, counting ``generateMAC`` calls.

    ``corruption_policy`` (installed by AVD's MAC-corruption plugin on
    malicious nodes) may flip any generated tag to an invalid one. The call
    counter spans *all* MACs the node generates, matching the paper's
    experiment where bit ``n`` of the attack mask governs the
    ``(n mod 12)``-th call to ``generateMAC``.
    """

    def __init__(
        self,
        keystore: KeyStore,
        corruption_policy: Optional[CorruptionPolicy] = None,
    ) -> None:
        self.keystore = keystore
        self.corruption_policy = corruption_policy
        self.calls = 0
        self.corrupted_calls = 0

    def generate(self, verifier: str, payload_digest: int) -> int:
        """Generate one MAC tag for ``verifier`` (one ``generateMAC`` call)."""
        self.calls += 1
        tag = self.keystore.expected_tag(verifier, payload_digest)
        if self.corruption_policy is not None and self.corruption_policy(self.calls, verifier):
            self.corrupted_calls += 1
            tag ^= _CORRUPTION_MASK
        return tag

    def authenticator(self, verifiers: Iterable[str], payload_digest: int) -> "Authenticator":
        """Generate the full authenticator vector for ``verifiers``.

        One ``generateMAC`` call per verifier, in iteration order — the call
        numbering the MAC-corruption bitmask indexes into.
        """
        if self.corruption_policy is None:
            # No corruption hook installed (every correct node): the vector
            # is just the expected tags, so skip the per-call wrapper and
            # bump the generateMAC counter in bulk.
            expected = self.keystore.expected_tag
            calls = self.calls
            tags = {}
            for verifier in verifiers:
                calls += 1
                tags[verifier] = expected(verifier, payload_digest)
            self.calls = calls
            return Authenticator(tags)
        return Authenticator(
            {verifier: self.generate(verifier, payload_digest) for verifier in verifiers}
        )


class Authenticator:
    """A MAC vector: verifier name -> tag."""

    __slots__ = ("tags",)

    def __init__(self, tags: Dict[str, int]) -> None:
        self.tags = tags

    def tag_for(self, verifier: str) -> Optional[int]:
        return self.tags.get(verifier)

    def verifies_for(self, keystore: KeyStore, signer: str, payload_digest: int) -> bool:
        """Whether ``keystore.owner`` accepts this vector as coming from
        ``signer`` over ``payload_digest``."""
        tag = self.tags.get(keystore.owner)
        if tag is None:
            return False
        return tag == keystore.expected_tag(signer, payload_digest)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Authenticator({sorted(self.tags)})"


def verify_tag(
    keystore: KeyStore,
    signer: str,
    verifier_tag: Optional[int],
    payload_digest: int,
) -> bool:
    """Verify a single tag produced by ``signer`` for ``keystore.owner``."""
    if verifier_tag is None:
        return False
    return verifier_tag == keystore.expected_tag(signer, payload_digest)


__all__ = [
    "Authenticator",
    "CorruptionPolicy",
    "MacGenerator",
    "compute_mac",
    "verify_tag",
]
