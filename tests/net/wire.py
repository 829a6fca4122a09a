"""Real protocol messages for the framing and transport tests.

The wire carries only what :mod:`repro.net.codec` has a table row for, so
the tests that used to push strings and tuples through sockets push these.
"""

from __future__ import annotations

from repro.core.messages import BeaconShare
from repro.crypto.keyring import FastShare
from repro.net import codec


def msg(i: int) -> BeaconShare:
    """Distinct small messages: ``msg(i) == msg(j)`` iff ``i == j``."""
    return BeaconShare(
        round=i, signer=1, share=FastShare("beacon", 1, i.to_bytes(32, "big"))
    )


def body(i: int) -> bytes:
    return codec.encode(msg(i))
