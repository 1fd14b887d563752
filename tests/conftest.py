"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.params import ProtocolParams
from repro.crypto.pki import PKI


@pytest.fixture(scope="session")
def small_pki() -> PKI:
    """A 12-process simulated-backend PKI, shared across tests for speed."""
    return PKI.create(12, backend="simulated", rng=random.Random(1234))


@pytest.fixture(scope="session")
def ec_pki() -> PKI:
    """A 4-process real secp256k1 PKI for the genuine-crypto paths."""
    return PKI.create(4, backend="ec", rng=random.Random(99))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(42)


@pytest.fixture
def committee_params() -> ProtocolParams:
    """Committee parameters known to be comfortably live at n=60."""
    return ProtocolParams.simulation_scale(n=60, f=4, lam=45)


def seeds(count: int, base: int = 0) -> range:
    """Deterministic seed range for Monte-Carlo tests."""
    return range(base, base + count)

