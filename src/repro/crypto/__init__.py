"""Simulated cryptography: digests, pairwise session keys, MAC authenticators.

The simulation preserves the *authentication structure* of PBFT (who can
verify which tag) without real cryptography; see DESIGN.md Sec. 2 for why
this substitution is behaviour-preserving for the paper's attacks.
"""

from .digest import mix64, stable_digest
from .keys import KeyStore, derive_session_key, pair_of
from .mac import Authenticator, CorruptionPolicy, MacGenerator, compute_mac, verify_tag

__all__ = [
    "Authenticator",
    "CorruptionPolicy",
    "KeyStore",
    "MacGenerator",
    "compute_mac",
    "derive_session_key",
    "mix64",
    "pair_of",
    "stable_digest",
    "verify_tag",
]
