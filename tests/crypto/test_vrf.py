"""VRF backends: pseudorandomness surface, verifiability, uniqueness.

The two backends must be behaviourally interchangeable -- the protocol
suite runs on either -- so every contract test is parametrised over both.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.vrf import (
    ECVRF,
    VRF_OUTPUT_BITS,
    SimulatedVRF,
    VRFOutput,
    VRFScheme,
)


def make_scheme(name: str) -> VRFScheme:
    if name == "ec":
        return ECVRF()
    return SimulatedVRF()


@pytest.fixture(scope="module", params=["simulated", "ec"])
def scheme(request):
    return make_scheme(request.param)


@pytest.fixture(scope="module")
def keys(scheme):
    return scheme.keygen(random.Random(31))


class TestVRFContract:
    def test_output_in_range(self, scheme, keys):
        sk, _ = keys
        output = scheme.prove(sk, b"alpha")
        assert 0 <= output.value < 2**VRF_OUTPUT_BITS

    def test_verifiability(self, scheme, keys):
        sk, pk = keys
        output = scheme.prove(sk, b"alpha")
        assert scheme.verify(pk, b"alpha", output)

    def test_determinism(self, scheme, keys):
        sk, _ = keys
        assert scheme.prove(sk, b"alpha") == scheme.prove(sk, b"alpha")

    def test_input_sensitivity(self, scheme, keys):
        sk, _ = keys
        assert scheme.prove(sk, b"a").value != scheme.prove(sk, b"b").value

    def test_wrong_input_rejected(self, scheme, keys):
        sk, pk = keys
        output = scheme.prove(sk, b"a")
        assert not scheme.verify(pk, b"b", output)

    def test_tampered_value_rejected(self, scheme, keys):
        sk, pk = keys
        output = scheme.prove(sk, b"a")
        forged = VRFOutput(value=output.value ^ 1, proof=output.proof)
        assert not scheme.verify(pk, b"a", forged)

    def test_wrong_key_rejected(self, scheme, keys):
        sk, _ = keys
        _, other_pk = scheme.keygen(random.Random(32))
        output = scheme.prove(sk, b"a")
        assert not scheme.verify(other_pk, b"a", output)

    def test_uniqueness_cannot_present_two_values(self, scheme, keys):
        # Verifying any value other than the canonical one must fail, for
        # a sample of candidate forgeries.
        sk, pk = keys
        genuine = scheme.prove(sk, b"a")
        for delta in (1, 2, 2**128, 2**255):
            forged = VRFOutput(value=(genuine.value + delta) % 2**256, proof=genuine.proof)
            assert not scheme.verify(pk, b"a", forged)

    def test_keys_give_independent_values(self, scheme):
        rng = random.Random(33)
        sk1, _ = scheme.keygen(rng)
        sk2, _ = scheme.keygen(rng)
        assert scheme.prove(sk1, b"a").value != scheme.prove(sk2, b"a").value

    def test_value_out_of_range_rejected_at_construction(self):
        with pytest.raises(ValueError):
            VRFOutput(value=2**256, proof=b"")
        with pytest.raises(ValueError):
            VRFOutput(value=-1, proof=b"")


class TestOutputDistribution:
    """Crude uniformity checks shared by both backends."""

    def test_lsb_balanced(self, scheme, keys):
        sk, _ = keys
        bits = [scheme.prove(sk, str(i).encode()).value & 1 for i in range(200)]
        ones = sum(bits)
        assert 60 <= ones <= 140  # ~±5.7 sigma around 100

    def test_high_bits_vary(self, scheme, keys):
        sk, _ = keys
        tops = {scheme.prove(sk, str(i).encode()).value >> 248 for i in range(64)}
        assert len(tops) > 16


class TestSimulatedVRFSpecifics:
    def test_unknown_key_id_rejected(self):
        scheme = SimulatedVRF()
        sk, pk = scheme.keygen(random.Random(1))
        other = SimulatedVRF()  # separate registry
        output = scheme.prove(sk, b"a")
        assert not other.verify(pk, b"a", output)

    def test_proof_is_the_hmac(self):
        scheme = SimulatedVRF()
        sk, pk = scheme.keygen(random.Random(1))
        output = scheme.prove(sk, b"a")
        # A proof of the right shape but wrong bytes must fail.
        forged = VRFOutput(value=output.value, proof=bytes(32))
        assert not scheme.verify(pk, b"a", forged)
