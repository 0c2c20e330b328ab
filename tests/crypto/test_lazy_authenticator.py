"""An authenticator's recipe verifies exactly as the tag vector it stands for.

``MacGenerator.authenticator`` records the signer, key root, digest,
verifiers and corrupted verifiers instead of computing ``n`` tags. The
oracle here is the eager vector: one ``generate`` call per verifier, tags
kept in a dict. Every observable — ``verifies_for``, ``tag_for``, ``calls``
and ``corrupted_calls`` — must agree with it, for matching and mismatched
signers, digests and key roots, for owners outside the verifier list, and
under every mask policy the MAC-corruption plugin can install.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import KeyStore, MacGenerator
from repro.pbft import PbftAttack, PbftDeployment, mask_corruption_policy
from repro.pbft.behaviors import MAC_MASK_WIDTH, ClientBehavior
from tests.conftest import tiny_pbft_config

CASES = 5_000
NAMES = tuple(f"replica-{index}" for index in range(5)) + ("client-0", "client-1")
KEY_ROOTS = (0, 7, 0xBE7C, (1 << 64) - 1)


class EagerAuthenticator:
    """The tag vector: verifier name -> computed tag (last write wins)."""

    def __init__(self, tags):
        self.tags = tags

    def tag_for(self, verifier):
        return self.tags.get(verifier)

    def verifies_for(self, keystore, signer, payload_digest):
        tag = self.tags.get(keystore.owner)
        return tag is not None and tag == keystore.expected_tag(signer, payload_digest)


def eager_authenticator(generator, verifiers, payload_digest):
    tags = {}
    for verifier in verifiers:
        tags[verifier] = generator.generate(verifier, payload_digest)
    return EagerAuthenticator(tags)


def random_case(rng):
    key_root = rng.choice(KEY_ROOTS)
    signer = rng.choice(NAMES)
    verifiers = [rng.choice(NAMES) for _ in range(rng.randint(0, 5))]
    policy = mask_corruption_policy(rng.randrange(1 << MAC_MASK_WIDTH))
    return key_root, signer, verifiers, policy


def probes(rng, key_root, signer, payload_digest):
    """(verifier keystore, claimed signer, claimed digest) triples: every
    owner with the genuine claim, then one wrong signer, digest and root."""
    for owner in NAMES:
        yield KeyStore(key_root, owner), signer, payload_digest
    owner = rng.choice(NAMES)
    impostor = rng.choice([name for name in NAMES if name != signer])
    yield KeyStore(key_root, owner), impostor, payload_digest
    yield KeyStore(key_root, owner), signer, payload_digest ^ (1 + rng.randrange(1 << 20))
    yield KeyStore(key_root ^ 0x5A5A, owner), signer, payload_digest


def test_recipe_agrees_with_the_eager_vector():
    rng = random.Random(20111)
    checked = 0
    for _ in range(CASES):
        key_root, signer, verifiers, policy = random_case(rng)
        lazy_generator = MacGenerator(KeyStore(key_root, signer), policy)
        eager_generator = MacGenerator(KeyStore(key_root, signer), policy)
        # Earlier authenticators move the call cursor the mask indexes.
        for _ in range(rng.randint(1, 3)):
            payload_digest = rng.randrange(1 << 64)
            lazy = lazy_generator.authenticator(verifiers, payload_digest)
            eager = eager_authenticator(eager_generator, verifiers, payload_digest)
            assert lazy_generator.calls == eager_generator.calls
            assert lazy_generator.corrupted_calls == eager_generator.corrupted_calls
            for name in NAMES:
                assert lazy.tag_for(name) == eager.tag_for(name)
            for keystore, claimed_signer, claimed_digest in probes(
                rng, key_root, signer, payload_digest
            ):
                assert lazy.verifies_for(keystore, claimed_signer, claimed_digest) == (
                    eager.verifies_for(keystore, claimed_signer, claimed_digest)
                ), (key_root, signer, verifiers, keystore.owner, claimed_signer)
                checked += 1
    assert checked >= CASES * (len(NAMES) + 3)


def test_policy_sees_the_same_call_numbers_in_the_same_order():
    seen_lazy, seen_eager = [], []
    def recording(seen):
        return lambda call, verifier: seen.append((call, verifier)) or call % 3 == 0

    lazy = MacGenerator(KeyStore(3, "client-0"), recording(seen_lazy))
    eager = MacGenerator(KeyStore(3, "client-0"), recording(seen_eager))
    for payload_digest in range(4):
        lazy.authenticator(NAMES[:4], payload_digest)
        eager_authenticator(eager, NAMES[:4], payload_digest)
    assert seen_lazy == seen_eager == [
        (call, NAMES[(call - 1) % 4]) for call in range(1, 17)
    ]
    assert lazy.corrupted_calls == eager.corrupted_calls == 5


@pytest.mark.parametrize(
    "corrupt_call, valid", [(1, True), (2, False)], ids=["first-corrupted", "last-corrupted"]
)
def test_a_verifier_listed_twice_keeps_its_last_verdict(corrupt_call, valid):
    """Last write wins, as in a tag dict."""
    generator = MacGenerator(KeyStore(3, "client-0"), lambda n, v: n == corrupt_call)
    authenticator = generator.authenticator(["replica-0", "replica-0"], 99)
    assert generator.calls == 2 and generator.corrupted_calls == 1
    assert authenticator.verifies_for(KeyStore(3, "replica-0"), "client-0", 99) is valid


def test_a_big_mac_deployment_computes_no_tag(monkeypatch):
    """Correct nodes and Big-MAC clients alike: every verification in a
    run matches its authenticator's recipe, so no tag is ever computed."""
    computed = []
    original = KeyStore.expected_tag
    monkeypatch.setattr(
        KeyStore, "expected_tag", lambda self, *a: computed.append(a) or original(self, *a)
    )
    deployment = PbftDeployment(tiny_pbft_config(), 2, 1, 5)
    deployment.install_attack(PbftAttack(ClientBehavior(mac_mask=0b1110)))
    result = deployment.run()
    assert result.counters["pbft.preprepare_unauthenticated_request"] > 0
    assert computed == []
