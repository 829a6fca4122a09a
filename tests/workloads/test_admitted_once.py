"""A request this batcher admitted is not authenticated again inside a block.

``RequestBatcher.verify_block`` skips a command whose bytes equal the
pending entry for its id (``admit_batch`` checked exactly those bytes); a
command whose id is pending with other bytes, or whose id was never
admitted, is checked as before.  Each case runs on both client
authenticators.
"""

from __future__ import annotations

import pytest

from repro.core.messages import ROOT_HASH, Block, Payload
from repro.core.pool import MessagePool
from repro.crypto.keyring import generate_keyrings
from repro.workloads.batching import BatchSpec, RequestBatcher, SignedRequest


def _signed(auth, client, seq, body=b"put\x1fk\x1fv"):
    return SignedRequest(
        client=client, seq=seq, key=seq, auth=auth.sign(client, seq, seq, body), body=body
    )


@pytest.fixture(params=["fast", "real"])
def setup(request, monkeypatch):
    """A batcher holding four admitted requests, a pool that admits blocks
    through it, and the count of requests that reach ``verify_batch``."""
    batcher = RequestBatcher(BatchSpec(auth=request.param), seed=4)
    admitted = [_signed(batcher.auth, client=c, seq=1) for c in range(4)]
    assert batcher.admit_batch([(r, 0.0) for r in admitted]) == 4
    checked: list[SignedRequest] = []
    verify_batch = batcher.auth.verify_batch

    def counting(requests):
        checked.extend(requests)
        return verify_batch(requests)

    monkeypatch.setattr(batcher.auth, "verify_batch", counting)
    pool = MessagePool(generate_keyrings(4, 1, seed=4)[0])
    pool.payload_verifier = batcher.verify_block
    return batcher, admitted, pool, checked


def _block(*commands: bytes) -> Block:
    return Block(round=1, proposer=2, parent_hash=ROOT_HASH, payload=Payload(commands))


def test_block_of_pending_requests_checks_nothing(setup):
    batcher, admitted, pool, checked = setup
    assert pool.add(_block(*(r.wire() for r in admitted)))
    assert checked == []
    assert pool.stats.invalid_dropped == 0


@pytest.mark.parametrize("field", ["auth", "body"])
def test_pending_id_with_tampered_bytes_is_checked_and_rejected(setup, field):
    batcher, admitted, pool, checked = setup
    victim = admitted[2]
    if field == "auth":
        tampered = bytes([victim.auth[0] ^ 1]) + victim.auth[1:]
    else:
        tampered = victim.body + b"!"
    forged = SignedRequest(
        client=victim.client, seq=victim.seq, key=victim.key,
        auth=tampered if field == "auth" else victim.auth,
        body=tampered if field == "body" else victim.body,
    )
    assert forged.request_id == victim.request_id
    block = _block(admitted[0].wire(), forged.wire(), admitted[1].wire())
    assert not pool.add(block)
    assert pool.stats.invalid_dropped == 1
    assert checked == [forged]  # the two pending ones were not re-checked


def test_never_admitted_request_is_checked_and_accepted(setup):
    batcher, admitted, pool, checked = setup
    stranger = _signed(batcher.auth, client=9, seq=5)
    assert pool.add(_block(admitted[0].wire(), stranger.wire()))
    assert checked == [stranger]
    assert pool.stats.invalid_dropped == 0


def test_committed_request_is_checked_again(setup):
    """Once committed an id leaves ``_pending``: a later block carrying it
    is verified like any request this batcher does not hold."""
    batcher, admitted, pool, checked = setup
    batcher._on_commit(_block(admitted[0].wire()))
    assert pool.add(_block(admitted[0].wire(), admitted[1].wire()))
    assert checked == [admitted[0]]
