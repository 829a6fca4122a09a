"""Schnorr groups: prime-order subgroups of Z_p*.

All discrete-log primitives (Schnorr signatures, DLEQ proofs, unique and
threshold signatures) operate in a cyclic group G of prime order q, realised
as the order-q subgroup of Z_p* for a prime p = c·q + 1 (classic DSA-style
parameters).  Parameters are generated *deterministically* from a
nothing-up-my-sleeve seed string, so every run of the simulator uses the same
group and results are reproducible.

Security note: the default profile uses a 512-bit p / 256-bit q, which is
plenty for a research simulation but NOT a production security level (the
paper's production system uses BLS12-381; see DESIGN.md §2 for the
substitution rationale).  A ``strong`` profile with a 2048-bit p is available
for users who want a classically-hard instance, and a tiny ``test`` profile
keeps the unit-test suite fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .backend import active_backend
from .field import PrimeField, is_probable_prime
from .hashing import hash_to_int, int_to_bytes, tagged_hash

_SEED_TAG = "ICC-repro/group-gen/v1"


def _prime_from_stream(tag: str, bits: int, start_counter: int = 0) -> tuple[int, int]:
    """First probable prime of exactly ``bits`` bits from a hash stream.

    Returns ``(prime, next_counter)`` so callers can continue the stream.
    """
    counter = start_counter
    while True:
        material = b""
        need = (bits + 7) // 8
        block = 0
        while len(material) < need:
            material += tagged_hash(
                _SEED_TAG, tag.encode(), counter.to_bytes(8, "big"), block.to_bytes(4, "big")
            )
            block += 1
        candidate = int.from_bytes(material[:need], "big")
        candidate |= 1 << (bits - 1)  # force exact bit length
        candidate |= 1  # force odd
        candidate &= (1 << bits) - 1
        if is_probable_prime(candidate):
            return candidate, counter + 1
        counter += 1


@dataclass(frozen=True)
class Group:
    """A cyclic group of prime order ``q`` inside Z_p*.

    Elements are canonical integers in [1, p).  ``g`` generates the order-q
    subgroup.  ``cofactor`` is (p-1)/q.
    """

    p: int
    q: int
    g: int

    @property
    def cofactor(self) -> int:
        return (self.p - 1) // self.q

    @cached_property
    def scalar_field(self) -> PrimeField:
        """The field Z_q, built once per group: ``PrimeField`` proves its
        modulus prime on construction (13 Miller–Rabin rounds, ≈ 1 ms at 256
        bits), which every signature and every ``combine`` used to pay."""
        return PrimeField(self.q)

    @cached_property
    def element_width(self) -> int:
        """Byte width of a serialized group element (fixed per group).

        Cached on the instance: ``element_to_bytes``/``element_from_bytes``
        sit on the share-serialization hot path and previously recomputed
        ``p.bit_length()`` on every call.
        """
        return (self.p.bit_length() + 7) // 8

    @cached_property
    def scalar_width(self) -> int:
        """Byte width of a serialized scalar in Z_q (fixed per group)."""
        return (self.q.bit_length() + 7) // 8

    # -- group operations -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Group operation (multiplication mod p)."""
        return (a * b) % self.p

    def power(self, base: int, exponent: int) -> int:
        """base**exponent in the group (exponent taken mod q).

        INVARIANT: reducing the exponent mod q is only correct when ``base``
        lies in the order-q subgroup (base**q == 1).  For an arbitrary
        element of Z_p* the order may be any divisor of p-1 = cofactor·q,
        and ``base**(e mod q) != base**e`` in general.  Callers must only
        pass subgroup members — either values they computed from subgroup
        members themselves, or untrusted values admitted through
        :meth:`decode_element` / :meth:`is_element` at deserialization.
        Every verifier in this package enforces this before exponentiating.

        Exponentiation routes through the active crypto backend (see
        :mod:`repro.crypto.backend`); backends differ only in evaluation
        strategy, never in result.
        """
        return active_backend().powmod(base, exponent % self.q, self.p)

    def power_g(self, exponent: int) -> int:
        """g**exponent — the most common operation, kept explicit."""
        return active_backend().powmod(self.g, exponent % self.q, self.p)

    def inv(self, a: int) -> int:
        return active_backend().invmod(a, self.p)

    def is_element(self, a: int) -> bool:
        """Membership test for the order-q subgroup."""
        if not 1 <= a < self.p:
            return False
        return active_backend().powmod(a, self.q, self.p) == 1

    def decode_element(self, a: int) -> int:
        """Admit an untrusted integer as a subgroup element, or raise.

        This is the single choke point for group elements entering from
        outside (deserialized messages, adversary-supplied artifacts): it
        enforces the subgroup-membership invariant that :meth:`power`
        relies on when reducing exponents mod q.  Returns the canonical
        element on success; raises :class:`ValueError` otherwise.
        """
        if not self.is_element(a):
            raise ValueError(f"{a} is not an element of the order-q subgroup")
        return a

    def element_to_bytes(self, a: int) -> bytes:
        """Fixed-width big-endian encoding of a group element."""
        return a.to_bytes(self.element_width, "big")

    def element_from_bytes(self, data: bytes) -> int:
        """Decode a fixed-width element encoding, with the subgroup check.

        Inverse of :meth:`element_to_bytes`; message deserialization must
        use this (not a bare ``int.from_bytes``) so that every element that
        reaches :meth:`power` satisfies the subgroup invariant.
        """
        width = self.element_width
        if len(data) != width:
            raise ValueError(f"element encoding must be {width} bytes, got {len(data)}")
        return self.decode_element(int.from_bytes(data, "big"))

    def hash_to_group(self, tag: str, *parts: bytes) -> int:
        """Hash arbitrary data to a group element (the ``H2`` of DESIGN.md).

        We derive u from the hash and return u**cofactor mod p, which lands
        in the order-q subgroup; the (negligible-probability) identity result
        is rejected by re-hashing with a counter.
        """
        counter = 0
        powmod = active_backend().powmod
        while True:
            u = hash_to_int(tag, *parts, counter.to_bytes(4, "big")) % self.p
            if u > 1:
                h = powmod(u, self.cofactor, self.p)
                if h != 1:
                    return h
            counter += 1

    def hash_to_scalar(self, tag: str, *parts: bytes) -> int:
        """Hash arbitrary data to a scalar in Z_q (Fiat–Shamir challenges)."""
        return hash_to_int(tag, *parts) % self.q

    def random_scalar(self, rng) -> int:
        return rng.randrange(self.q)


def generate_group(p_bits: int, q_bits: int) -> Group:
    """Deterministically generate a Schnorr group with the given sizes.

    The subgroup order q is drawn from a hash stream; then p = c·q + 1 is
    scanned (c even, also hash-derived) until p is prime.  The generator is
    h**c for the first h ≥ 2 giving a non-identity element.
    """
    if q_bits >= p_bits:
        raise ValueError("q must be smaller than p")
    q, _ = _prime_from_stream(f"q/{p_bits}/{q_bits}", q_bits)
    c_bits = p_bits - q_bits
    counter = 0
    while True:
        seed = hash_to_int(
            _SEED_TAG, f"c/{p_bits}/{q_bits}".encode(), counter.to_bytes(8, "big")
        )
        c = (seed % (1 << c_bits)) | (1 << (c_bits - 1))
        c &= ~1  # even, so p = c*q + 1 is odd
        if c == 0:
            counter += 1
            continue
        p = c * q + 1
        if p.bit_length() == p_bits and is_probable_prime(p):
            break
        counter += 1
    for h in range(2, 1000):
        g = pow(h, (p - 1) // q, p)
        if g != 1:
            break
    else:  # pragma: no cover - unreachable for prime p
        raise RuntimeError("no generator found")
    return Group(p=p, q=q, g=g)


@lru_cache(maxsize=None)
def _cached_group(p_bits: int, q_bits: int) -> Group:
    return generate_group(p_bits, q_bits)


def test_group() -> Group:
    """Small, fast, INSECURE group for unit tests (p 128-bit, q 96-bit)."""
    return _cached_group(128, 96)


def default_group() -> Group:
    """Default simulation group (p 512-bit, q 256-bit)."""
    return _cached_group(512, 256)


def strong_group() -> Group:
    """Classically-hard instance (p 2048-bit, q 256-bit); slow to generate."""
    return _cached_group(2048, 256)


#: Named security profiles: name -> group constructor (each builds once).
GROUP_PROFILES = {"test": test_group, "default": default_group, "strong": strong_group}


def group_for_profile(profile: str) -> Group:
    """Resolve a named security profile to a group instance."""
    try:
        return GROUP_PROFILES[profile]()
    except KeyError:
        raise ValueError(f"unknown group profile {profile!r}") from None


__all__ = [
    "Group",
    "generate_group",
    "test_group",
    "default_group",
    "strong_group",
    "GROUP_PROFILES",
    "group_for_profile",
    "int_to_bytes",
]
