"""Tests for the pluggable modular-exponentiation backends.

The contract under test: every backend computes bit-identical values for
every operation the group and fast path route through it, so backend
choice is purely a performance decision.
"""

from __future__ import annotations

import pytest

from repro.crypto import backend as backend_mod
from repro.crypto import schnorr
from repro.crypto.api import verifiers_for
from repro.crypto.backend import (
    DEFAULT_BACKEND,
    CryptoBackend,
    WindowBackend,
    active_backend,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from random import Random


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends()[:2] == ["pure", "window"]

    def test_pure_and_window_always_available(self):
        for name in ("pure", "window"):
            assert get_backend(name).name == name

    def test_get_backend_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            get_backend("quantum")

    def test_get_backend_is_cached(self):
        assert get_backend("window") is get_backend("window")

    def test_register_custom_backend(self):
        name = "test-registry-custom"
        register_backend(name, CryptoBackend)
        try:
            assert name in available_backends()
            assert isinstance(get_backend(name), CryptoBackend)
        finally:
            backend_mod._REGISTRY.pop(name, None)
            backend_mod._INSTANCES.pop(name, None)

    def test_default_backend_is_window(self):
        assert DEFAULT_BACKEND == "window"
        assert active_backend().name == DEFAULT_BACKEND

    def test_use_backend_scopes_and_restores(self):
        before = active_backend()
        with use_backend("pure"):
            assert active_backend().name == "pure"
        assert active_backend() is before

    def test_set_backend_returns_previous(self):
        before = active_backend()
        previous = set_backend("pure")
        try:
            assert previous is before
            assert active_backend().name == "pure"
        finally:
            set_backend(before)


class TestBitIdentity:
    """Every available backend computes the same numbers."""

    def _ops(self, group):
        rng = Random(7)
        x = group.random_scalar(rng)
        a = group.power_g(group.random_scalar(rng))
        return (
            group.power_g(x),
            group.power(a, x),
            group.inv(a),
            group.hash_to_group("backend/identity", b"probe"),
            group.is_element(a),
        )

    def test_group_operations_identical(self, group):
        with use_backend("pure"):
            reference = self._ops(group)
        for name in available_backends():
            with use_backend(name):
                assert self._ops(group) == reference, name

    def test_batch_verification_identical(self, group):
        rng = Random(11)
        items = []
        for i in range(8):
            pair = schnorr.keygen(group, rng)
            message = b"backend/batch/%d" % i
            items.append(
                (pair.public, message, schnorr.sign(group, pair.secret, message, rng))
            )
        # Forge one item so the rejecting path runs under each backend too.
        pk, message, sig = items[3]
        items[3] = (pk, message, type(sig)(sig.challenge, (sig.response + 1) % group.q))
        verdicts = []
        for name in available_backends():
            with use_backend(name):
                suite = verifiers_for(group)
                verdicts.append(suite.schnorr.verify_batch(items))
        expected = [True] * 8
        expected[3] = False
        assert all(v == expected for v in verdicts)

    def test_fixed_power_matches_pow(self, group):
        for name in available_backends():
            power = get_backend(name).fixed_power(
                group.g, group.p, group.q.bit_length()
            )
            for e in (0, 1, 2, group.q - 1, group.q // 3):
                assert power(e) == pow(group.g, e, group.p), name


class TestWindowBackend:
    def test_powmod_keeps_no_per_base_state(self, group):
        """Tables exist only for bases a caller declares (``fixed_power``):
        a base that keeps coming back through ``powmod`` leaves nothing
        behind, however often it comes."""
        b = WindowBackend()
        base = group.power_g(1234)
        for _ in range(5):
            assert b.powmod(base, 99, group.p) == pow(base, 99, group.p)
        assert vars(b) == {}
        assert WindowBackend.powmod is CryptoBackend.powmod

    def test_negative_exponent_falls_back_to_pow(self, group):
        b = WindowBackend()
        base = group.power_g(5)
        assert b.powmod(base, -1, group.p) == pow(base, -1, group.p)

    def test_table_overflow_exponent_rejected(self, group):
        power = get_backend("window").fixed_power(group.g, group.p, 16)
        with pytest.raises(ValueError):
            power(1 << 20)
