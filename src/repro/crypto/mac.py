"""Simulated MACs and PBFT authenticators.

A PBFT *authenticator* is a vector of MACs, one per receiving replica, all
over the same payload but each under the sender's session key with that
replica (Castro & Liskov '99). The Big MAC attack (Clement et al., NSDI'09)
exploits exactly this structure: a faulty client can craft an authenticator
whose MAC is valid for the primary but invalid for the other replicas.

The attacks depend only on *which receivers consider which tag valid*, so an
:class:`Authenticator` carries the recipe for its vector rather than ``n``
computed tags: the signer, the key root, the payload digest, the verifiers,
and which verifiers got a corrupted tag. A receiver checking the payload the
authenticator was made for decides by membership alone; any other check, and
:meth:`Authenticator.tag_for`, computes the tags exactly as the eager vector
would have held them.

The corruption hook is the paper's fault-injection surface: AVD's MAC
corruption tool decides, per ``generateMAC`` *call number*, whether the
produced tag is corrupted (Sec. 6: a 12-bit Gray-coded bitmask over call
numbers mod 12).
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, Optional, Tuple

from .digest import mix64
from .keys import KeyStore, derive_session_key

#: Corruption policy: (call_number, verifier_name) -> corrupt this tag?
CorruptionPolicy = Callable[[int, str], bool]

#: XOR mask applied to corrupted tags; any nonzero constant works because
#: verification recomputes the genuine tag and compares for equality.
_CORRUPTION_MASK = 0xBAD_0BAD_0BAD

_NONE_CORRUPTED: FrozenSet[str] = frozenset()


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
        """Generate the authenticator for ``verifiers``.

        One ``generateMAC`` call per verifier, in iteration order — the call
        numbering the MAC-corruption bitmask indexes into. No tag is
        computed: the policy's verdicts are recorded instead. A verifier
        listed twice keeps its last call's verdict, as a tag vector would
        keep its last write.
        """
        if type(verifiers) is not tuple:
            verifiers = tuple(verifiers)
        policy = self.corruption_policy
        corrupted = _NONE_CORRUPTED
        if policy is None:
            # Every correct node: bump the generateMAC counter in bulk.
            self.calls += len(verifiers)
        else:
            marked = set()
            for verifier in verifiers:
                self.calls += 1
                if policy(self.calls, verifier):
                    self.corrupted_calls += 1
                    marked.add(verifier)
                else:
                    marked.discard(verifier)
            if marked:
                corrupted = frozenset(marked)
        keystore = self.keystore
        return Authenticator(
            keystore.owner, keystore.key_root, payload_digest, verifiers, corrupted
        )


class Authenticator:
    """A MAC vector, held as its recipe.

    ``signer`` MAC-ed ``digest`` under its session key (derived from
    ``key_root``) with each of ``verifiers``; the tags of ``corrupted``
    verifiers were flipped to invalid ones.
    """

    __slots__ = ("signer", "key_root", "digest", "verifiers", "corrupted")

    def __init__(
        self,
        signer: str,
        key_root: int,
        digest: int,
        verifiers: Tuple[str, ...],
        corrupted: FrozenSet[str],
    ) -> None:
        self.signer = signer
        self.key_root = key_root
        self.digest = digest
        self.verifiers = verifiers
        self.corrupted = corrupted

    def tag_for(self, verifier: str) -> Optional[int]:
        """The tag this vector holds for ``verifier`` (None if it holds none)."""
        if verifier not in self.verifiers:
            return None
        tag = compute_mac(derive_session_key(self.key_root, self.signer, verifier), self.digest)
        if verifier in self.corrupted:
            tag ^= _CORRUPTION_MASK
        return tag

    def verifies_for(self, keystore: KeyStore, signer: str, payload_digest: int) -> bool:
        """Whether ``keystore.owner`` accepts this vector as coming from
        ``signer`` over ``payload_digest``."""
        owner = keystore.owner
        if owner not in self.verifiers:
            return False
        if (
            signer == self.signer
            and payload_digest == self.digest
            and keystore.key_root == self.key_root
        ):
            # Session keys are symmetric, so the genuine tag is exactly the
            # one the verifier expects, and a corrupted one never is.
            return owner not in self.corrupted
        return self.tag_for(owner) == keystore.expected_tag(signer, payload_digest)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Authenticator {self.signer}->{sorted(self.verifiers)} "
            f"corrupted={sorted(self.corrupted)}>"
        )


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
