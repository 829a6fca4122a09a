"""The fast backend's MAC is the formula it always was.

``FastKeyring`` absorbs each scheme's ``(tag, master, scheme)`` prefix once
and feeds the rest per share.  The oracle here is the one-call formula,
``tagged_hash("ICC/fast/share", master, scheme, index, message)``: every
digest must equal it, and every verdict on a forgery must be the one the
old check (dataclass ``==`` against a freshly built share) gave.  Aggregates
naming a party outside 1..n are refused by both backends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import tagged_hash
from repro.crypto.keyring import (
    FAST_SCHEMES,
    FastAggregate,
    FastShare,
    generate_keyrings,
)

N, T = 7, 2
RINGS = generate_keyrings(N, T, seed=11, backend="fast")
MASTER = tagged_hash("ICC/fast/master", (11).to_bytes(8, "big"), N.to_bytes(4, "big"))

SIGN = {
    "auth": "sign_auth",
    "notary": "sign_notary_share",
    "final": "sign_final_share",
    "beacon": "sign_beacon_share",
}
VERIFY_SHARE = {
    "notary": "verify_notary_share",
    "final": "verify_final_share",
    "beacon": "verify_beacon_share",
}


def oracle_digest(scheme: str, index: int, message: bytes) -> bytes:
    return tagged_hash(
        "ICC/fast/share", MASTER, scheme.encode(), index.to_bytes(4, "big"), message
    )


def oracle_verify(scheme: str, message: bytes, share) -> bool:
    """The share check as it read before the prefix was absorbed once."""
    if not isinstance(share, FastShare) or share.scheme != scheme:
        return False
    index = share.index
    if type(index) is not int or type(share.digest) is not bytes or not 1 <= index <= N:
        return False
    return share == FastShare(scheme, index, oracle_digest(scheme, index, message))


def keyring_verify(scheme: str, message: bytes, share) -> bool:
    verifier = RINGS[0]
    if scheme == "auth":
        # verify_auth checks the claimed signer too; claim the share's own.
        signer = getattr(share, "index", 1)
        return verifier.verify_auth(signer, message, share)
    return getattr(verifier, VERIFY_SHARE[scheme])(message, share)


@dataclass(frozen=True)
class SubShare(FastShare):
    """A FastShare subclass: equal fields, other class."""


def forgeries(scheme: str, index: int, message: bytes):
    honest = FastShare(scheme, index, oracle_digest(scheme, index, message))
    other = FAST_SCHEMES[(FAST_SCHEMES.index(scheme) + 1) % len(FAST_SCHEMES)]
    flipped = bytes([honest.digest[0] ^ 1]) + honest.digest[1:]
    yield "honest", honest
    yield "wrong-scheme", replace(honest, scheme=other)
    yield "wrong-index", replace(honest, index=index % N + 1)
    yield "index-0", FastShare(scheme, 0, oracle_digest(scheme, 0, message))
    yield "index-n+1", FastShare(scheme, N + 1, oracle_digest(scheme, N + 1, message))
    yield "bool-index", replace(honest, index=True)
    yield "str-index", replace(honest, index=str(index))
    yield "bytearray-digest", replace(honest, digest=bytearray(honest.digest))
    yield "str-digest", replace(honest, digest=honest.digest.hex())
    yield "flipped-bit", replace(honest, digest=flipped)
    yield "subclass", SubShare(scheme, index, honest.digest)


messages = st.binary(max_size=200)


class TestDigestIsTheFormula:
    @settings(max_examples=60, deadline=None)
    @given(message=messages)
    def test_every_scheme_and_index(self, message):
        for scheme in FAST_SCHEMES:
            for ring in RINGS:
                share = getattr(ring, SIGN[scheme])(message)
                assert type(share) is FastShare
                assert share == FastShare(
                    scheme, ring.index, oracle_digest(scheme, ring.index, message)
                )

    def test_empty_message(self):
        for scheme in FAST_SCHEMES:
            share = getattr(RINGS[3], SIGN[scheme])(b"")
            assert share.digest == oracle_digest(scheme, 4, b"")

    @settings(max_examples=30, deadline=None)
    @given(message=messages)
    def test_aggregate_digest_is_the_formula(self, message):
        ring = RINGS[0]
        for scheme, combine, h in (
            ("notary", ring.combine_notary, N - T),
            ("final", ring.combine_final, N - T),
            ("beacon", ring.combine_beacon, T + 1),
        ):
            shares = [getattr(r, SIGN[scheme])(message) for r in RINGS]
            agg = combine(message, shares)
            assert agg == FastAggregate(
                scheme,
                tagged_hash("ICC/fast/agg", MASTER, scheme.encode(), message),
                tuple(range(1, h + 1)),
            )


class TestVerdictIsTheOldOne:
    @settings(max_examples=40, deadline=None)
    @given(message=messages, index=st.integers(1, N))
    def test_every_forgery(self, message, index):
        for scheme in FAST_SCHEMES:
            for name, share in forgeries(scheme, index, message):
                expected = oracle_verify(scheme, message, share)
                assert keyring_verify(scheme, message, share) == expected, (scheme, name)
                assert expected == (name == "honest"), (scheme, name)

    def test_subclass_is_refused(self):
        share = RINGS[1].sign_notary_share(b"m")
        assert RINGS[0].verify_notary_share(b"m", share)
        assert not RINGS[0].verify_notary_share(b"m", SubShare(*vars(share).values()))


BAD_INDICES = [0, 5, -3]  # n = 4: no party, one past n, negative


@pytest.fixture(params=["fast", "real"], scope="module")
def rings4(request):
    return generate_keyrings(4, 1, seed=5, backend=request.param)


def _naming(aggregate, bad: int):
    """``aggregate`` with its first signatory replaced by ``bad``."""
    if isinstance(aggregate, FastAggregate):
        return replace(aggregate, signatories=(bad, *aggregate.signatories[1:]))
    first, *rest = aggregate.shares
    return replace(aggregate, shares=(replace(first, index=bad), *rest))


class TestAggregateSignatoriesInRange:
    @pytest.mark.parametrize("bad", BAD_INDICES, ids=["zero", "n+1", "negative"])
    @pytest.mark.parametrize(
        "sign, combine, verify",
        [
            ("sign_notary_share", "combine_notary", "verify_notary"),
            ("sign_final_share", "combine_final", "verify_final"),
            ("sign_beacon_share", "combine_beacon", "verify_beacon"),
        ],
        ids=["notary", "final", "beacon"],
    )
    def test_out_of_range_signatory_rejected(self, rings4, sign, combine, verify, bad):
        message = b"statement"
        shares = [getattr(ring, sign)(message) for ring in rings4]
        genuine = getattr(rings4[1], combine)(message, shares)
        assert getattr(rings4[0], verify)(message, genuine)
        assert not getattr(rings4[0], verify)(message, _naming(genuine, bad))

    def test_fast_extra_signatory_out_of_range_rejected(self):
        rings = generate_keyrings(4, 1, seed=5, backend="fast")
        genuine = rings[0].combine_notary(b"m", [r.sign_notary_share(b"m") for r in rings])
        for bad in BAD_INDICES:
            named = replace(genuine, signatories=genuine.signatories + (bad,))
            assert not rings[0].verify_notary(b"m", named)
