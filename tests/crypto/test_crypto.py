"""Digests, session keys, MAC generation/verification, corruption hooks."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto import (
    KeyStore,
    MacGenerator,
    compute_mac,
    derive_session_key,
    mix64,
    pair_of,
    stable_digest,
    verify_tag,
)


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------
def test_stable_digest_deterministic_across_instances():
    assert stable_digest(("a", 1, b"x")) == stable_digest(("a", 1, b"x"))


def test_stable_digest_distinguishes_values():
    assert stable_digest("a") != stable_digest("b")
    assert stable_digest((1, 2)) != stable_digest((2, 1))
    assert stable_digest(None) != stable_digest(0)


def test_stable_digest_known_types():
    for value in [0, -5, "s", b"b", 1.5, None, (1, "x"), [1, 2], ("nested", (1, (2,)))]:
        digest = stable_digest(value)
        assert 0 <= digest < 2**64


@given(st.integers(), st.integers())
def test_mix64_in_range_and_deterministic(a, b):
    assert mix64(a, b) == mix64(a, b)
    assert 0 <= mix64(a, b) < 2**64


def test_mix64_order_sensitive():
    assert mix64(1, 2) != mix64(2, 1)


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------
def test_session_keys_are_symmetric():
    assert derive_session_key(7, "alice", "bob") == derive_session_key(7, "bob", "alice")


def test_session_keys_differ_per_pair_and_root():
    assert derive_session_key(7, "a", "b") != derive_session_key(7, "a", "c")
    assert derive_session_key(7, "a", "b") != derive_session_key(8, "a", "b")


def test_keystore_both_ends_derive_same_key():
    alice = KeyStore(7, "alice")
    bob = KeyStore(7, "bob")
    assert alice.session_key("bob") == bob.session_key("alice")


def test_keystore_caches():
    store = KeyStore(7, "alice")
    assert store.session_key("bob") == store.session_key("bob")


def test_pair_of_is_canonical():
    assert pair_of("b", "a") == ("a", "b") == pair_of("a", "b")


# ---------------------------------------------------------------------------
# MACs and authenticators
# ---------------------------------------------------------------------------
def make_parties():
    client = KeyStore(99, "client")
    replicas = [KeyStore(99, f"replica-{i}") for i in range(4)]
    return client, replicas


def test_authenticator_verifies_for_every_replica():
    client, replicas = make_parties()
    generator = MacGenerator(client)
    digest = stable_digest("payload")
    auth = generator.authenticator([ks.owner for ks in replicas], digest)
    for keystore in replicas:
        assert auth.verifies_for(keystore, "client", digest)


def test_authenticator_fails_for_wrong_payload():
    client, replicas = make_parties()
    auth = MacGenerator(client).authenticator(["replica-0"], stable_digest("p"))
    assert not auth.verifies_for(replicas[0], "client", stable_digest("other"))


def test_authenticator_fails_for_wrong_signer():
    client, replicas = make_parties()
    digest = stable_digest("p")
    auth = MacGenerator(client).authenticator(["replica-0"], digest)
    assert not auth.verifies_for(replicas[0], "someone-else", digest)


def test_missing_tag_fails_verification():
    client, replicas = make_parties()
    digest = stable_digest("p")
    auth = MacGenerator(client).authenticator(["replica-0"], digest)
    assert not auth.verifies_for(replicas[1], "client", digest)
    assert not verify_tag(replicas[1], "client", None, digest)


def test_call_counter_spans_authenticators():
    client, _ = make_parties()
    generator = MacGenerator(client)
    generator.authenticator(["replica-0", "replica-1"], 1)
    generator.authenticator(["replica-0", "replica-1"], 2)
    assert generator.calls == 4


def test_corruption_policy_controls_specific_calls():
    client, replicas = make_parties()
    digest = stable_digest("p")
    # Corrupt only the 2nd call.
    generator = MacGenerator(client, corruption_policy=lambda call, verifier: call == 2)
    auth = generator.authenticator(["replica-0", "replica-1"], digest)
    assert auth.verifies_for(replicas[0], "client", digest)
    assert not auth.verifies_for(replicas[1], "client", digest)
    assert generator.corrupted_calls == 1


def test_corrupted_tag_differs_from_genuine():
    client, _ = make_parties()
    digest = stable_digest("p")
    genuine = MacGenerator(client).generate("replica-0", digest)
    corrupted = MacGenerator(client, lambda c, v: True).generate("replica-0", digest)
    assert genuine != corrupted
    assert genuine == compute_mac(client.session_key("replica-0"), digest)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_expected_tag_is_the_mac_under_the_session_key(digest):
    client, replicas = make_parties()
    for replica in replicas:
        tag = client.expected_tag(replica.owner, digest)
        assert tag == compute_mac(client.session_key(replica.owner), digest)
        assert tag == replica.expected_tag("client", digest)  # both ends agree


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**64 - 1))
def test_compute_mac_deterministic(key, payload):
    assert compute_mac(key, payload) == compute_mac(key, payload)
