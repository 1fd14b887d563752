"""Property-based tests across the crypto substrate (fast backends)."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import derive_seed, encode, hash_to_int
from repro.crypto.numtheory import is_probable_prime, modinv
from repro.crypto.shamir import FIELD_PRIME, split_secret, reconstruct_secret
from repro.crypto.vrf import SimulatedVRF

_VRF = SimulatedVRF()
_VRF_SK, _VRF_PK = _VRF.keygen(random.Random(405))


class TestSimulatedVRFProperties:
    @given(st.binary(max_size=64))
    @settings(max_examples=50)
    def test_prove_verify_roundtrip(self, alpha):
        output = _VRF.prove(_VRF_SK, alpha)
        assert _VRF.verify(_VRF_PK, alpha, output)

    @given(st.binary(max_size=32), st.binary(max_size=32))
    @settings(max_examples=50)
    def test_distinct_inputs_distinct_values(self, a, b):
        if a != b:
            assert _VRF.prove(_VRF_SK, a).value != _VRF.prove(_VRF_SK, b).value


class TestNumberTheoryProperties:
    @given(st.integers(3, 10**6))
    @settings(max_examples=50)
    def test_prime_factor_structure(self, n):
        # If Miller-Rabin says prime, trial division must find no factor.
        if is_probable_prime(n):
            assert all(n % k for k in range(2, min(int(n**0.5) + 1, 2000)))

    @given(st.integers(1, FIELD_PRIME - 1))
    @settings(max_examples=40)
    def test_modinv_in_shamir_field(self, a):
        assert a * modinv(a, FIELD_PRIME) % FIELD_PRIME == 1


class TestShamirHomomorphism:
    @given(
        s1=st.integers(0, FIELD_PRIME - 1),
        s2=st.integers(0, FIELD_PRIME - 1),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=20)
    def test_share_addition_is_secret_addition(self, s1, s2, seed):
        """Shamir sharing is linear: adding shares pointwise shares the
        sum -- the property threshold crypto constructions exploit."""
        from repro.crypto.shamir import Share

        rng = random.Random(seed)
        shares1 = split_secret(s1, 3, 5, rng)
        shares2 = split_secret(s2, 3, 5, rng)
        summed = [
            Share(x=a.x, y=(a.y + b.y) % FIELD_PRIME)
            for a, b in zip(shares1, shares2)
        ]
        assert reconstruct_secret(summed[:3]) == (s1 + s2) % FIELD_PRIME


class TestHashingProperties:
    @given(st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_hash_to_int_uniform_prefix_stability(self, parts):
        wide = hash_to_int("p", *parts, bits=256)
        assert 0 <= wide < 2**256

    @given(st.text(max_size=20), st.text(max_size=20))
    @settings(max_examples=50)
    def test_derive_seed_collision_free_on_distinct_labels(self, a, b):
        if a != b:
            assert derive_seed(a) != derive_seed(b)

    @given(st.binary(max_size=40))
    @settings(max_examples=50)
    def test_encode_embeds_bytes_losslessly(self, blob):
        assert blob in encode(blob)
