"""Shared fixtures for the test suite.

Tests default to the fast crypto backend and small groups so the suite
stays quick; dedicated crypto tests exercise the real backend explicitly.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.crypto.group import test_group
from repro.crypto.keyring import generate_keyrings


@pytest.fixture(scope="session")
def group():
    """Small (insecure, fast) Schnorr group shared across crypto tests."""
    return test_group()


@pytest.fixture
def rng():
    return Random(1234)


@pytest.fixture(scope="session")
def fast_keyrings_4_1():
    """4 parties, t=1, fast backend."""
    return generate_keyrings(4, 1, seed=42, backend="fast")


@pytest.fixture(scope="session")
def real_keyrings_4_1():
    """4 parties, t=1, real discrete-log backend (test group)."""
    return generate_keyrings(4, 1, seed=42, backend="real", group_profile="test")
