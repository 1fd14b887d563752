"""Signature backends, parametrised like the VRF contract tests."""

from __future__ import annotations

import random

import pytest

from repro.crypto.signatures import SchnorrSignatureScheme, SimulatedSignatureScheme


@pytest.fixture(scope="module", params=["simulated", "ec"])
def scheme(request):
    if request.param == "ec":
        return SchnorrSignatureScheme()
    return SimulatedSignatureScheme()


@pytest.fixture(scope="module")
def keys(scheme):
    return scheme.keygen(random.Random(41))


class TestSignatureContract:
    def test_roundtrip(self, scheme, keys):
        sk, pk = keys
        signature = scheme.sign(sk, b"msg")
        assert scheme.verify(pk, b"msg", signature)

    def test_message_binding(self, scheme, keys):
        sk, pk = keys
        signature = scheme.sign(sk, b"msg")
        assert not scheme.verify(pk, b"other", signature)

    def test_key_binding(self, scheme, keys):
        sk, _ = keys
        _, other_pk = scheme.keygen(random.Random(42))
        signature = scheme.sign(sk, b"msg")
        assert not scheme.verify(other_pk, b"msg", signature)

    def test_garbage_signature_rejected(self, scheme, keys):
        _, pk = keys
        assert not scheme.verify(pk, b"msg", b"\x00" * 32)
        assert not scheme.verify(pk, b"msg", None)

    def test_deterministic(self, scheme, keys):
        sk, _ = keys
        assert scheme.sign(sk, b"msg") == scheme.sign(sk, b"msg")

    def test_empty_message(self, scheme, keys):
        sk, pk = keys
        assert scheme.verify(pk, b"", scheme.sign(sk, b""))


class TestSimulatedSpecifics:
    def test_registries_are_isolated(self):
        a = SimulatedSignatureScheme()
        b = SimulatedSignatureScheme()
        sk, pk = a.keygen(random.Random(1))
        assert not b.verify(pk, b"m", a.sign(sk, b"m"))

    def test_signature_domain_separated_from_vrf(self):
        # The HMAC inputs are prefixed, so a VRF proof can never validate
        # as a signature on the same bytes.
        from repro.crypto.hashing import hmac_sha256

        scheme = SimulatedSignatureScheme()
        sk, pk = scheme.keygen(random.Random(1))
        raw_hmac = hmac_sha256(sk.secret, b"m")
        assert not scheme.verify(pk, b"m", raw_hmac)
