"""Number theory: primality and modular inverses."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.numtheory import (
    egcd,
    is_probable_prime,
    modinv,
)

# Known primes spanning the deterministic-witness regimes.
KNOWN_PRIMES = [
    2, 3, 5, 7, 11, 101, 997, 7919, 104729,
    2_147_483_647,              # 2^31 - 1 (Mersenne)
    67_280_421_310_721,         # factor of 2^128 + 1
    (1 << 89) - 1,              # Mersenne prime M89
    2**255 - 19,                # the curve25519 prime
    2**256 - 189,               # our Shamir field prime
]

# Composites chosen to embarrass naive tests: Carmichael numbers fool the
# Fermat test for every base coprime to n.
CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]

COMPOSITES = [
    1, 4, 6, 9, 15, 100, 1000, 7917, 104730,
    2_147_483_647 * 3,
    (2**61 - 1) * (2**31 - 1),  # product of two Mersenne primes
    2**255 - 18,
]


class TestEgcd:
    @given(st.integers(1, 10**12), st.integers(1, 10**12))
    def test_bezout_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert a * x + b * y == g
        assert a % g == 0 and b % g == 0

    def test_gcd_matches_math(self):
        import math

        for a, b in [(12, 18), (17, 5), (100, 75), (1, 1)]:
            assert egcd(a, b)[0] == math.gcd(a, b)

    def test_zero_operands(self):
        g, x, _ = egcd(0, 7)
        assert g == 7
        g, x, _ = egcd(7, 0)
        assert g == 7 and 7 * x == 7

    @given(st.integers(-(10**9), -1), st.integers(1, 10**9))
    def test_bezout_holds_for_negative_a(self, a, b):
        g, x, y = egcd(a, b)
        assert a * x + b * y == g


class TestModinv:
    @given(st.integers(2, 10**9))
    def test_inverse_mod_prime(self, a):
        p = 2**61 - 1
        inv = modinv(a, p)
        assert a * inv % p == 1

    def test_non_invertible_raises(self):
        with pytest.raises(ValueError):
            modinv(6, 9)

    def test_inverse_of_one(self):
        assert modinv(1, 97) == 1

    def test_negative_argument(self):
        assert (-3) * modinv(-3, 97) % 97 == 1

    @given(st.integers(-(10**30), 10**30), st.integers(2, 10**30))
    def test_matches_extended_euclid(self, a, m):
        """``pow(a, -1, m)`` agrees with the egcd definition, sign and all."""
        g, x, _ = egcd(a % m, m)
        if g == 1:
            inverse = modinv(a, m)
            assert inverse == x % m
            assert 0 <= inverse < m and a * inverse % m == 1
        else:
            with pytest.raises(ValueError, match=f"gcd={g}"):
                modinv(a, m)

    def test_zero_has_no_inverse(self):
        with pytest.raises(ValueError):
            modinv(0, 97)
        with pytest.raises(ValueError):
            modinv(97, 97)


class TestMillerRabin:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("c", COMPOSITES)
    def test_known_composites(self, c):
        assert not is_probable_prime(c)

    @pytest.mark.parametrize("c", CARMICHAELS)
    def test_carmichael_numbers(self, c):
        assert not is_probable_prime(c)

    def test_zero_and_negatives(self):
        assert not is_probable_prime(0)
        assert not is_probable_prime(-7)

    def test_matches_sieve_below_10000(self):
        limit = 10_000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        for value in range(limit):
            assert is_probable_prime(value) == sieve[value], value
