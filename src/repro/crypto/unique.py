"""H2, the hash to the group under the unique signatures σ(m) = H2(m)**sk.

This is the pairing-free stand-in for BLS signatures (DESIGN.md §2).  The
*value* of a signature is fully determined by the message and the public key
— the property the random beacon needs (Section 2.3 of the paper: the scheme
"is required to provide unique signatures").  S_beacon signs this way through
the threshold shares of :mod:`repro.crypto.threshold`, each carried with a
DLEQ proof that is not unique but is never fed into the beacon, so uniqueness
of the beacon output is preserved.
"""

from __future__ import annotations

from .group import Group

_H2_TAG = "ICC/unique/h2"


def message_point(group: Group, message: bytes) -> int:
    """H2(m): hash the message to a group element."""
    return group.hash_to_group(_H2_TAG, message)
