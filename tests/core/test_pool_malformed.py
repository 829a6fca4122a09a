"""A signature field of the wrong type is an invalid signature, not a crash.

A peer chooses which signature object sits in a message (the wire codec
admits any of its seven in any signature field) and an in-process Byzantine
behaviour chooses the type of every field.  Whatever is put where a share,
an aggregate or an authenticator signature belongs, ``MessagePool.add`` must answer ``False`` and count
``invalid_dropped`` — on both keyring backends — and no exception may leave
``on_receive``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.crypto.multisig import MultisigShare, Multisignature
from repro.crypto.schnorr import SchnorrSignature

from .test_pool import Forge


@pytest.fixture(params=["fast", "real"], scope="module")
def forge(request):
    return Forge(seed=2, backend=request.param)


def _dropped_as_invalid(forge, artifact, block=None) -> bool:
    pool = forge.pool()
    if block is not None:
        pool.add(block)
    return pool.add(artifact) is False and pool.stats.invalid_dropped == 1


class TestTypeConfusedSignatureField:
    """One test per line of the bug report."""

    def test_notarization_without_an_aggregate(self, forge):
        block = forge.block()
        forged = replace(forge.notarization(block), aggregate=None)
        assert _dropped_as_invalid(forge, forged, block)

    def test_notarization_share_carrying_a_beacon_share(self, forge):
        block = forge.block()
        beacon = forge.beacon_share(1, signer=2).share
        forged = replace(forge.notar_share(block, signer=2), share=beacon)
        assert _dropped_as_invalid(forge, forged, block)

    def test_beacon_share_carrying_a_notarization_share(self, forge):
        notar = forge.notar_share(forge.block(), signer=2).share
        forged = replace(forge.beacon_share(1, signer=2), share=notar)
        assert _dropped_as_invalid(forge, forged)

    def test_authenticator_with_an_unhashable_signature(self, forge):
        block = forge.block()
        forged = replace(forge.auth(block), signature=[1, 2])
        assert _dropped_as_invalid(forge, forged, block)

    def test_notarization_share_without_a_share(self, forge):
        block = forge.block()
        forged = replace(forge.notar_share(block, signer=2), share=None)
        assert _dropped_as_invalid(forge, forged, block)


class TestSameBugOneLevelDown:
    """The real backend hashes a signature into its verdict cache and reads
    its fields, so the fields' types are checked with it."""

    @pytest.fixture(scope="class")
    def real(self):
        return Forge(seed=2, backend="real")

    def test_finalization_artifacts(self, real):
        block = real.block()
        for forged in (
            replace(real.finalization(block), aggregate=None),
            replace(real.final_share(block, signer=2), share=None),
            replace(real.final_share(block, signer=2), share=real.beacon_share(1, 2).share),
        ):
            assert _dropped_as_invalid(real, forged, block)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda share: replace(share, signature=[1, 2]),
            lambda share: replace(share, signature=None),
            lambda share: replace(share, signature=SchnorrSignature("1", 2)),
            lambda share: replace(share, signature=SchnorrSignature(1, 2.0)),
        ],
        ids=["list", "none", "str-commitment", "float-response"],
    )
    def test_share_with_a_malformed_signature(self, real, spoil):
        block = real.block()
        genuine = real.notar_share(block, signer=2)
        forged = replace(genuine, share=spoil(genuine.share))
        assert _dropped_as_invalid(real, forged, block)

    def test_share_index_of_the_wrong_type(self, real):
        ring = real.rings[0]
        share = real.rings[1].sign_notary_share(b"m")
        for index in ("2", 2.0, None):
            assert not ring.verify_notary_share(b"m", replace(share, index=index))
        assert ring.verify_notary_share(b"m", share)

    def test_aggregate_with_malformed_shares(self, real):
        ring = real.rings[0]
        shares = [r.sign_notary_share(b"m") for r in real.rings[:3]]
        assert ring.verify_notary(b"m", Multisignature(tuple(shares)))
        for spoiled in (
            Multisignature(shares),  # a list: unhashable
            Multisignature(tuple(shares[:2]) + (None,)),
            Multisignature(tuple(shares[:2]) + (MultisigShare(3, [1, 2]),)),
            Multisignature(None),
        ):
            assert not ring.verify_notary(b"m", spoiled)
            assert not ring.verify_final(b"m", spoiled)

    def test_beacon_signature_of_the_wrong_type(self, real):
        ring = real.rings[0]
        shares = [r.sign_beacon_share(b"m") for r in real.rings[:2]]
        combined = ring.combine_beacon(b"m", shares)
        assert ring.verify_beacon(b"m", combined)
        for spoiled in (
            None,
            shares[0],
            replace(combined, shares=list(shares)),
            replace(combined, shares=(None, shares[1])),
            replace(combined, value="1"),
            replace(combined, shares=(replace(shares[0], proof=None), shares[1])),
        ):
            assert not ring.verify_beacon(b"m", spoiled)

    def test_batches_answer_false_for_the_malformed_item_only(self, real):
        ring = real.rings[0]
        good = real.rings[1].sign_notary_share(b"m")
        shares = [good, None, [1], good]
        assert [ring.verify_notary_share(b"m", s) for s in shares] == [True, False, False, True]
        auth = real.rings[1].sign_auth(b"m")
        items = [(2, auth), (2, [1, 2]), ("2", auth), (2, auth)]
        assert [ring.verify_auth(signer, b"m", sig) for signer, sig in items] == [
            True, False, False, True,
        ]


class TestFastKeyringReadsNoFieldUnchecked:
    """The hash keyring compares and hashes the fields of what it was handed,
    and the two live workloads run on it: a field of the wrong type is an
    invalid signature there too.  One case per line of the bug report; the
    ``bytearray`` digests compare equal to the genuine ``bytes`` and would be
    stored, unhashable."""

    @pytest.fixture(scope="class")
    def fast(self):
        return Forge(seed=2, backend="fast")

    @pytest.mark.parametrize("index", ["3", None, 2.0], ids=["str", "none", "float"])
    def test_share_index(self, fast, index):
        block = fast.block()
        genuine = fast.notar_share(block, signer=3)
        # The message names the same signer, so the pool's own index check passes.
        forged = replace(genuine, signer=index, share=replace(genuine.share, index=index))
        assert _dropped_as_invalid(fast, forged, block)

    @pytest.mark.parametrize(
        "signatories", [None, 5, ([1], [2], [3]), [1, 2, 3]], ids=["none", "int", "lists", "list"]
    )
    def test_aggregate_signatories(self, fast, signatories):
        block = fast.block()
        genuine = fast.notarization(block)
        forged = replace(genuine, aggregate=replace(genuine.aggregate, signatories=signatories))
        assert _dropped_as_invalid(fast, forged, block)

    def test_digest_that_only_compares_equal(self, fast):
        block = fast.block()
        share = fast.notar_share(block, signer=3)
        forged = replace(share, share=replace(share.share, digest=bytearray(share.share.digest)))
        assert _dropped_as_invalid(fast, forged, block)
        agg = fast.notarization(block)
        forged = replace(agg, aggregate=replace(agg.aggregate, digest=bytearray(agg.aggregate.digest)))
        assert _dropped_as_invalid(fast, forged, block)
        assert fast.pool().add(share) and fast.pool().add(agg)
