"""Number-theoretic primitives: primality testing and modular inverses.

Implemented from scratch (no external crypto dependencies).  ``modinv``
serves the secp256k1 arithmetic, Shamir reconstruction and the threshold
coin; ``egcd`` and ``is_probable_prime`` let the tests check it and the
hard-coded field primes.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

__all__ = [
    "egcd",
    "is_probable_prime",
    "modinv",
]

# Small primes for fast trial division before Miller-Rabin.
_SMALL_PRIMES: tuple[int, ...] = tuple(
    p
    for p in range(2, 1000)
    if all(p % q for q in range(2, int(p**0.5) + 1))
)

# Deterministic Miller-Rabin witness sets.  Testing against these bases is
# *proven* correct (no false positives) for n below the listed bounds; see
# Sinclair/Jaeschke and the records collected at miller-rabin.appspot.com.
_DETERMINISTIC_BASES: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` mod ``m``; raises ``ValueError`` if none exists."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(
            f"{a} has no inverse modulo {m} (gcd={math.gcd(a, m)})"
        ) from None


def _miller_rabin_witness(n: int, a: int, d: int, s: int) -> bool:
    """Return True iff ``a`` witnesses that ``n`` is composite."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, rounds: int = 30, rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test.

    Deterministic (provably exact) for ``n < 3.3 * 10**24``; probabilistic
    with error at most ``4**-rounds`` above that.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases: Iterable[int]
    for bound, witnesses in _DETERMINISTIC_BASES:
        if n < bound:
            bases = witnesses
            break
    else:
        rng = rng or random.Random(n & 0xFFFFFFFF)
        bases = (rng.randrange(2, n - 1) for _ in range(rounds))
    return not any(_miller_rabin_witness(n, a, d, s) for a in bases)
