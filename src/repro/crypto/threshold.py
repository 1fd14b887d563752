"""Dealer-based threshold common coins.

Two constructions, both used by Table 1 baseline protocols:

* :class:`ThresholdCoinDealer` -- a Cachin-Kursawe-Shoup-style coin: a
  trusted dealer Shamir-shares an exponent ``x`` in a Schnorr group; the
  coin share of process ``i`` for round ``r`` is ``H(r)**x_i`` and any
  ``k`` shares combine, via Lagrange interpolation *in the exponent*, to
  the unique group element ``H(r)**x`` whose hash's low bit is the coin.
  Fewer than ``k`` shares leave the coin unpredictable under CDH.  (CKS
  additionally attach zero-knowledge share-correctness proofs; we verify
  shares through the dealer's registry instead -- see DESIGN.md.)
* :class:`RabinLotteryDealer` -- Rabin's original scheme: the dealer
  pre-distributes Shamir sharings of a sequence of random bits (the
  "lottery tickets"), one sharing per round.

Setup happens once, before the protocol starts, matching the trusted-setup
assumptions of those papers.
"""

from __future__ import annotations

import random

from repro.crypto.hashing import derive_seed, hash_to_int
from repro.crypto.numtheory import modinv
from repro.crypto.shamir import FIELD_PRIME, Share, reconstruct_secret, split_secret

__all__ = [
    "RabinLotteryDealer",
    "ThresholdCoinDealer",
]

# The 768-bit MODP ("Oakley group 1") safe prime from RFC 2409.  P is prime
# and Q = (P - 1) / 2 is prime, so the quadratic residues form a group of
# prime order Q in which we do the threshold exponentiation.
_SCHNORR_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF",
    16,
)
_SCHNORR_Q = (_SCHNORR_P - 1) // 2


def _hash_to_group(round_id: int) -> int:
    """Map a round id to a generator-independent quadratic residue mod P."""
    raw = hash_to_int("threshold-coin-base", round_id, bits=768) % _SCHNORR_P
    # Squaring lands in the order-Q subgroup; avoid the identity.
    element = raw * raw % _SCHNORR_P
    return element if element != 1 else 4


def _lagrange_at_zero(xs: list[int], modulus: int) -> list[int]:
    """Lagrange coefficients l_i(0) mod ``modulus`` for evaluation points ``xs``."""
    coefficients = []
    for i, x_i in enumerate(xs):
        numerator = 1
        denominator = 1
        for j, x_j in enumerate(xs):
            if i == j:
                continue
            numerator = numerator * (-x_j) % modulus
            denominator = denominator * (x_i - x_j) % modulus
        coefficients.append(numerator * modinv(denominator, modulus) % modulus)
    return coefficients


class ThresholdCoinDealer:
    """Trusted setup for an unbounded-round threshold common coin.

    Parameters
    ----------
    n:
        Number of processes (share holders), identified as ``0 .. n-1``.
    threshold:
        Number of distinct valid shares needed to reconstruct a coin.
    rng:
        Source of randomness for the master secret and the sharing.
    """

    def __init__(self, n: int, threshold: int, rng: random.Random) -> None:
        if not 1 <= threshold <= n:
            raise ValueError("need 1 <= threshold <= n")
        self.n = n
        self.threshold = threshold
        master = rng.randrange(1, _SCHNORR_Q)
        polynomial = [master] + [rng.randrange(_SCHNORR_Q) for _ in range(threshold - 1)]
        self._exponent_shares: list[int] = []
        for i in range(1, n + 1):
            acc = 0
            for coefficient in reversed(polynomial):
                acc = (acc * i + coefficient) % _SCHNORR_Q
            self._exponent_shares.append(acc)
        # (process_id, round_id) -> share.  A share is a pure function of
        # the key, so each costs one 768-bit modexp per dealer instead of
        # one per verification.  Round ids are canonical values, on which
        # ``==`` is type-exact, so equal keys name one base.
        self._shares: dict[tuple[int, int], int] = {}

    def coin_share(self, process_id: int, round_id: int) -> int:
        """Process ``process_id``'s share of the round-``round_id`` coin."""
        if not 0 <= process_id < self.n:
            raise ValueError(f"process id {process_id} outside [0, {self.n})")
        key = (process_id, round_id)
        share = self._shares.get(key)
        if share is None:
            base = _hash_to_group(round_id)
            share = pow(base, self._exponent_shares[process_id], _SCHNORR_P)
            self._shares[key] = share
        return share

    def verify_share(self, process_id: int, round_id: int, share: int) -> bool:
        """Registry-backed share validity check (stands in for CKS's ZK proof)."""
        if not 0 <= process_id < self.n:
            return False
        return share == self.coin_share(process_id, round_id)

    def combine(self, shares: dict[int, int], round_id: int) -> int:
        """Combine ``threshold`` valid shares into the coin bit for the round.

        ``shares`` maps process id -> coin share.  Invalid or excess shares
        raise; the combination is independent of *which* k valid shares are
        used -- the property the baselines' agreement proofs need.
        """
        if len(shares) < self.threshold:
            raise ValueError(
                f"need {self.threshold} shares to reconstruct, got {len(shares)}"
            )
        chosen = sorted(shares.items())[: self.threshold]
        for process_id, share in chosen:
            if not self.verify_share(process_id, round_id, share):
                raise ValueError(f"invalid coin share from process {process_id}")
        xs = [process_id + 1 for process_id, _ in chosen]
        lagrange = _lagrange_at_zero(xs, _SCHNORR_Q)
        sigma = 1
        for (_, share), coefficient in zip(chosen, lagrange):
            sigma = sigma * pow(share, coefficient, _SCHNORR_P) % _SCHNORR_P
        return hash_to_int("threshold-coin-out", round_id, sigma, bits=1)


class RabinLotteryDealer:
    """Rabin's pre-distributed coin: per-round Shamir sharings of random bits.

    Sharings are derived deterministically from the dealer's seed so that
    rounds can be materialised lazily and reproducibly.
    """

    def __init__(self, n: int, threshold: int, rng: random.Random) -> None:
        if not 1 <= threshold <= n:
            raise ValueError("need 1 <= threshold <= n")
        self.n = n
        self.threshold = threshold
        self._seed = rng.getrandbits(128)
        self._rounds: dict[int, tuple[int, list[Share]]] = {}

    def _materialise(self, round_id: int) -> tuple[int, list[Share]]:
        cached = self._rounds.get(round_id)
        if cached is None:
            round_rng = random.Random(derive_seed(self._seed, round_id))
            bit = round_rng.getrandbits(1)
            # Hide the bit inside a random field element of matching parity
            # so shares reveal nothing structurally.
            blind = round_rng.randrange(FIELD_PRIME // 4) * 2 + bit
            shares = split_secret(blind, self.threshold, self.n, round_rng)
            cached = (bit, shares)
            self._rounds[round_id] = cached
        return cached

    def coin_share(self, process_id: int, round_id: int) -> Share:
        """Process ``process_id``'s pre-distributed share for the round."""
        if not 0 <= process_id < self.n:
            raise ValueError(f"process id {process_id} outside [0, {self.n})")
        _, shares = self._materialise(round_id)
        return shares[process_id]

    def verify_share(self, process_id: int, round_id: int, share: Share) -> bool:
        if not 0 <= process_id < self.n:
            return False
        return share == self.coin_share(process_id, round_id)

    def combine(self, shares: dict[int, Share], round_id: int) -> int:
        """Reconstruct the round's lottery bit from ``threshold`` valid shares."""
        if len(shares) < self.threshold:
            raise ValueError(
                f"need {self.threshold} shares to reconstruct, got {len(shares)}"
            )
        chosen = sorted(shares.items())[: self.threshold]
        for process_id, share in chosen:
            if not self.verify_share(process_id, round_id, share):
                raise ValueError(f"invalid lottery share from process {process_id}")
        return reconstruct_secret([share for _, share in chosen]) & 1
