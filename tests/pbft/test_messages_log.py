"""Message digests and the per-sequence log/quorum certificates."""

from repro.crypto import KeyStore, MacGenerator
from repro.pbft import (
    PrePrepare,
    ReplicaLog,
    Request,
    batch_digest_of,
    request_digest,
)
from repro.pbft.messages import NULL_DIGEST, fast_request_digest


def authenticator(signer, verifiers=(), payload_digest=0):
    return MacGenerator(KeyStore(7, signer)).authenticator(verifiers, payload_digest)


def make_request(client="client-0", ts=1, op=("op", 1)):
    return Request(client, ts, op, authenticator(client))


def test_request_digest_ignores_authenticator():
    a = Request("c", 1, "op", authenticator("c", ["r0"], 111))
    b = Request("c", 1, "op", authenticator("c", ["r0"], 222))
    assert a.digest == b.digest


def test_request_digest_covers_identity():
    assert request_digest("c", 1, "op") != request_digest("c", 2, "op")
    assert request_digest("c", 1, "op") != request_digest("d", 1, "op")
    assert request_digest("c", 1, "op") != request_digest("c", 1, "other")


def test_request_key_identifies_across_retransmissions():
    first = make_request(ts=5)
    retransmission = make_request(ts=5)
    assert first.key == retransmission.key == ("client-0", 5)


def test_batch_digest_empty_is_null():
    assert batch_digest_of(()) == NULL_DIGEST


def test_batch_digest_is_order_sensitive():
    r1, r2 = make_request(ts=1), make_request(ts=2)
    assert batch_digest_of((r1, r2)) != batch_digest_of((r2, r1))


def test_preprepare_computes_batch_digest():
    request = make_request()
    message = PrePrepare(0, 1, (request,), "replica-0")
    assert message.batch_digest == batch_digest_of((request,))


# ---------------------------------------------------------------------------
# log slots
# ---------------------------------------------------------------------------
def test_slot_created_once_per_seq():
    log = ReplicaLog()
    assert log.slot(1, 0) is log.slot(1, 0)
    assert len(log) == 1


def test_slot_reset_on_view_bump_when_unexecuted():
    log = ReplicaLog()
    old = log.slot(1, 0)
    old.prepares["replica-1"] = 42
    fresh = log.slot(1, 1)
    assert fresh is not old
    assert fresh.prepares == {}
    assert fresh.view == 1


def test_executed_slot_survives_view_bump():
    log = ReplicaLog()
    slot = log.slot(1, 0)
    slot.executed = True
    assert log.slot(1, 5) is slot


def test_matching_votes_require_digest_agreement():
    log = ReplicaLog()
    slot = log.slot(1, 0)
    request = make_request()
    slot.pre_prepare = PrePrepare(0, 1, (request,), "replica-0")
    digest = slot.batch_digest()
    slot.prepares["replica-1"] = digest
    slot.prepares["replica-2"] = 0xDEAD  # bogus vote for another batch
    slot.commits["replica-1"] = digest
    assert slot.matching_prepares() == 1
    assert slot.matching_commits() == 1


def test_votes_without_preprepare_count_zero():
    log = ReplicaLog()
    slot = log.slot(1, 0)
    slot.prepares["replica-1"] = 42
    assert slot.matching_prepares() == 0


def test_prepared_certificates_include_executed_slots():
    # Regression test: omitting executed slots let a new primary's sequence
    # counter regress below the execution frontier after a view change.
    log = ReplicaLog()
    request = make_request()
    executed = log.slot(3, 0)
    executed.pre_prepare = PrePrepare(0, 3, (request,), "replica-0")
    executed.prepared = True
    executed.executed = True
    pending = log.slot(4, 0)
    pending.pre_prepare = PrePrepare(0, 4, (request,), "replica-0")
    pending.prepared = True
    unprepared = log.slot(5, 0)
    unprepared.pre_prepare = PrePrepare(0, 5, (request,), "replica-0")

    certificates = log.prepared_certificates(above_seq=0)
    assert set(certificates) == {3, 4}
    assert certificates[4][0] == pending.batch_digest()


def test_prepared_certificates_respect_stable_floor():
    log = ReplicaLog()
    request = make_request()
    slot = log.slot(2, 0)
    slot.pre_prepare = PrePrepare(0, 2, (request,), "replica-0")
    slot.prepared = True
    assert log.prepared_certificates(above_seq=2) == {}


def test_garbage_collect_drops_old_slots():
    log = ReplicaLog()
    for seq in range(1, 6):
        log.slot(seq, 0)
    log.garbage_collect(3)
    assert sorted(log.slots) == [4, 5]


def test_fast_request_digest_matches_canonical_fold():
    # The hot-path digest must replay stable_digest bit for bit for the
    # standard ("op", client, timestamp) operation shape.
    clients = ["client-0", "client-17", "mclient-3", "x", "client-255"]
    timestamps = [1, 2, 7, 255, 1000, 123_456_789]
    for client in clients:
        for timestamp in timestamps:
            operation = ("op", client, timestamp)
            assert fast_request_digest(client, timestamp) == request_digest(
                client, timestamp, operation
            )
