"""Batching-layer correctness: wire codec, batch auth, forged requests."""

import pytest

from repro.core.cluster import ClusterConfig, build_cluster
from repro.core.messages import Block, Payload
from repro.crypto.backend import CryptoBackend
from repro.sim.delays import FixedDelay
from repro.smr.client import strip_client_envelope
from repro.smr.replica import attach_replicas, check_replica_agreement
from repro.workloads.batching import (
    BatchSpec,
    FastClientAuth,
    RealClientAuth,
    RequestBatcher,
    SignedRequest,
    parse_request,
    strip_request_envelope,
)
from repro.workloads.population import ClientPopulation, PopulationSpec


def _request(auth, client=3, seq=7, key=11, body=b"put\x1fk\x1fv"):
    return SignedRequest(
        client=client, seq=seq, key=key,
        auth=auth.sign(client, seq, key, body), body=body,
    )


def _run_cluster(batcher, population, n=4, duration=2.0, drain=1.5, seed=5):
    config = ClusterConfig(
        n=n,
        t=(n - 1) // 3,
        delta_bound=0.2,
        epsilon=0.001,
        seed=seed,
        delay_model=FixedDelay(0.05),
        payload_source=batcher.payload_source,
        payload_verifier=batcher.verify_block,
    )
    cluster = build_cluster(config)
    batcher.bind(cluster)
    population.install(cluster, duration)
    cluster.start()
    cluster.run_for(duration + drain)
    cluster.check_safety()
    return cluster


def test_wire_round_trip():
    auth = FastClientAuth(seed=9)
    request = _request(auth)
    parsed = parse_request(request.wire())
    assert parsed == request
    assert request.wire()[:12] == request.request_id
    assert strip_request_envelope(request.wire()) == request.body
    # Replicas route load commands through the shared strip helper.
    assert strip_client_envelope(request.wire()) == request.body
    # Non-load commands pass through both helpers unchanged.
    assert strip_request_envelope(b"noop") == b"noop"


@pytest.mark.parametrize("scheme", ["fast", "real"])
def test_batch_auth_accepts_valid_rejects_tampered(scheme):
    if scheme == "real":
        auth = RealClientAuth(seed=2, group_profile="test")
    else:
        auth = FastClientAuth(seed=2)
    good = [_request(auth, client=c, seq=c + 1, key=c) for c in range(6)]
    forged = SignedRequest(
        client=99, seq=1, key=0, auth=good[0].auth, body=b"put\x1fk\x1fevil"
    )
    report = auth.verify_batch(good + [forged])
    assert report.results == [True] * 6 + [False]
    assert report.stats.invalid == 1


def test_batch_auth_isolates_a_tampered_body():
    """A request whose body changed under a valid key is the only ``False``."""
    auth = RealClientAuth(seed=4, group_profile="test")
    requests = [_request(auth, client=c, seq=c, key=c) for c in range(8)]
    tampered = SignedRequest(
        client=requests[5].client, seq=requests[5].seq, key=requests[5].key,
        auth=requests[5].auth, body=requests[5].body + b"!",
    )
    requests[5] = tampered
    report = auth.verify_batch(requests)
    assert [i for i, ok in enumerate(report.results) if not ok] == [5]
    assert (report.stats.count, report.stats.invalid) == (8, 1)


def test_client_commitment_membership_is_proved_once(monkeypatch):
    """The nonce commitment is recomputed by the verifier, not carried: an
    authenticator is two scalars and nothing in it can be a base.  The only
    exponentiations outside the comb tables are the membership proofs of the
    client keys, which the verifier derives itself, once each.  A scalar out
    of range is ``False`` at decoding."""
    auth = RealClientAuth(seed=6, group_profile="test")
    group = auth.group
    width = group.scalar_width
    requests = [_request(auth, client=c, seq=c, key=c) for c in range(5)]
    assert all(len(r.auth) == 2 * width for r in requests)
    for bad in (
        group.q.to_bytes(width, "big") + requests[0].auth[width:],  # c == q
        requests[0].auth[:width] + b"\xff" * width,  # s >= q
        requests[0].auth[:-1],
        requests[0].auth + b"\x00",
    ):
        requests.append(SignedRequest(client=0, seq=0, key=0, auth=bad, body=requests[0].body))
    bases = []

    def powmod(base, exponent, modulus):
        bases.append(base)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(CryptoBackend, "powmod", staticmethod(powmod))
    assert auth.verify_batch(requests).results == [True] * 5 + [False] * 4
    assert set(bases) <= {auth.public(c) for c in range(5)}
    del bases[:]
    assert auth.verify_batch(requests).results == [True] * 5 + [False] * 4
    assert bases == []


def test_forged_request_in_block_rejected_by_pool():
    """A Byzantine proposer cannot smuggle a forged request into a block:
    the pool's batch admission hook rejects the whole block, while honest
    traffic keeps committing."""
    batcher = RequestBatcher(BatchSpec(batch_max=32, auth="real"), seed=3)
    population = ClientPopulation(
        PopulationSpec(clients=8, rate_per_second=20.0, key_space=32,
                       payload_bytes=32),
        batcher,
        seed=3,
    )
    cluster = _run_cluster(batcher, population)
    assert batcher.completed == batcher.submitted > 0

    # Hand-craft a block carrying one forged request and offer it to a pool.
    honest = _request(batcher.auth, client=1, seq=10 ** 6, key=1)
    forged = SignedRequest(
        client=2, seq=10 ** 6, key=1, auth=honest.auth, body=honest.body
    )
    pool = cluster.party(1).pool
    parent = cluster.party(1).output_log[-1]
    invalid_before = pool.stats.invalid_dropped

    def block_with(request):
        return Block(
            round=parent.round + 1, proposer=2, parent_hash=parent.hash,
            payload=Payload(commands=(request.wire(),)),
        )

    assert not pool.add(block_with(forged))
    assert pool.stats.invalid_dropped == invalid_before + 1
    # The same block shape with an honestly signed request is accepted.
    assert pool.add(block_with(honest))


def test_batched_and_unbatched_finalize_same_request_set():
    """Order-insensitive equality of the finalized request sets (the
    acceptance criterion): batching changes *when* requests land in
    blocks, never *which* requests are finalized."""
    digests = {}
    counts = {}
    for batch_max in (64, 1):
        batcher = RequestBatcher(BatchSpec(batch_max=batch_max), seed=11)
        population = ClientPopulation(
            PopulationSpec(clients=16, rate_per_second=8.0, key_space=64,
                           payload_bytes=48),
            batcher,
            seed=11,
        )
        _run_cluster(batcher, population, duration=2.0, drain=2.0)
        assert batcher.completed == batcher.submitted > 0
        digests[batch_max] = batcher.committed_digest()
        counts[batch_max] = batcher.completed
    assert digests[64] == digests[1]
    assert counts[64] == counts[1]


def test_replicas_apply_load_bodies_and_agree():
    """Committed load requests drive the KV machine identically everywhere."""
    batcher = RequestBatcher(BatchSpec(batch_max=16), seed=6)
    population = ClientPopulation(
        PopulationSpec(clients=8, rate_per_second=30.0, key_space=16,
                       payload_bytes=32),
        batcher,
        seed=6,
    )
    config = ClusterConfig(
        n=4, t=1, delta_bound=0.2, epsilon=0.001, seed=6,
        delay_model=FixedDelay(0.05),
        payload_source=batcher.payload_source,
        payload_verifier=batcher.verify_block,
    )
    cluster = build_cluster(config)
    replicas = attach_replicas(cluster, checkpoint_interval=5)
    batcher.bind(cluster)
    population.install(cluster, 2.0)
    cluster.start()
    cluster.run_for(3.5)
    cluster.check_safety()
    check_replica_agreement(replicas)
    machine = replicas[0].machine
    assert machine.applied > 0
    assert machine.rejected == 0  # every body is a well-formed KV put
    assert any(key.startswith(b"k") for key in machine.state)


def test_admission_control_sheds_beyond_queue_cap():
    batcher = RequestBatcher(BatchSpec(batch_max=4, queue_cap=10), seed=8)
    auth = batcher.auth
    batch = [
        (_request(auth, client=c, seq=c, key=c), 0.001 * c) for c in range(25)
    ]
    accepted = batcher.admit_batch(batch)
    assert accepted == 10
    assert batcher.rejected == 15
    assert batcher.queue_depth == 10


def test_duplicate_submissions_are_distilled():
    batcher = RequestBatcher(BatchSpec(), seed=8)
    request = _request(batcher.auth)
    assert batcher.admit_batch([(request, 0.0), (request, 0.1)]) == 1
    assert batcher.admit_batch([(request, 0.2)]) == 0
    assert batcher.duplicates == 2
    assert batcher.submitted == 1


def test_warm_bases_builds_tables():
    auth = RealClientAuth(seed=13, group_profile="test")
    ctx = auth._suite.ctx
    publics = [auth.public(c) for c in range(4)]
    for public in publics:
        ctx._tables.pop(public, None)
    built = ctx.warm_bases(publics)
    assert built == 4
    assert ctx.warm_bases(publics) == 0  # already cached


def test_commit_before_local_admission_still_counts():
    """A block can finalize before this party's ingress admitted its
    requests (live, epsilon=0): the ids are committed all the same, and
    their late admission is a duplicate, not a queue entry."""
    auth = FastClientAuth(seed=6)
    requests = [_request(auth, client=c, seq=1, key=c) for c in range(4)]
    block = Block(
        round=1, proposer=1, parent_hash=b"\x00" * 32,
        payload=Payload(commands=tuple(r.wire() for r in requests)),
    )
    arrivals = [(r, 0.0) for r in requests]

    admitted_first = RequestBatcher(BatchSpec(), seed=6)
    admitted_first.admit_batch(arrivals)
    admitted_first._on_commit(block)

    committed_first = RequestBatcher(BatchSpec(), seed=6)
    committed_first._on_commit(block)
    assert committed_first.admit_batch(arrivals) == 0

    assert committed_first.committed_digest() == admitted_first.committed_digest()
    assert committed_first.completed == admitted_first.completed == 4
    assert committed_first.queue_depth == 0
    assert committed_first.duplicates == 4
    assert committed_first.latencies == []  # no local submit time to measure from
