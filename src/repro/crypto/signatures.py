"""Digital signatures: real (secp256k1 Schnorr) and simulated (HMAC) backends.

The approver's ``ok`` messages carry W signed ``echo`` messages as a
validity proof (paper Section 6.1); every authenticated channel in the
simulator also rides on these.  The two backends mirror the VRF backends:
identical API, one over the curve and one registry-checked.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.crypto.hashing import hmac_sha256

__all__ = [
    "SchnorrSignatureScheme",
    "SignatureScheme",
    "SimulatedSignatureScheme",
]


class SignatureScheme(ABC):
    """Abstract signature scheme: keygen / sign / verify."""

    @abstractmethod
    def keygen(self, rng: random.Random) -> tuple[Any, Any]:
        """Generate ``(private_key, public_key)``."""

    @abstractmethod
    def sign(self, private_key: Any, message: bytes) -> Any:
        """Sign ``message``."""

    @abstractmethod
    def verify(self, public_key: Any, message: bytes, signature: Any) -> bool:
        """Verify a signature on ``message``."""


class SchnorrSignatureScheme(SignatureScheme):
    """Schnorr signatures over secp256k1 (pairs with the ECVRF backend).

    Deterministic nonce (derived from the key and message), standard
    Fiat-Shamir transcript: signature (R, s) with e = H(R, pk, m) and
    s·G = R + e·pk.
    """

    def keygen(self, rng: random.Random):
        from repro.crypto import ec

        secret = rng.randrange(1, ec.CURVE_ORDER)
        return secret, ec.public_key(secret)

    def sign(self, private_key: int, message: bytes):
        from repro.crypto import ec
        from repro.crypto.hashing import hash_to_int

        nonce = (
            hash_to_int("schnorr-nonce", private_key, message, bits=256)
            % (ec.CURVE_ORDER - 1)
            + 1
        )
        r_point = ec.scalar_mult(nonce, ec.GENERATOR)
        public = ec.public_key(private_key)
        challenge = hash_to_int(
            "schnorr-challenge", r_point.encode(), public.encode(), message, bits=128
        )
        s = (nonce + challenge * private_key) % ec.CURVE_ORDER
        return (r_point.x, r_point.y, s)

    def verify(self, public_key, message: bytes, signature) -> bool:
        from repro.crypto import ec
        from repro.crypto.hashing import hash_to_int

        if not (isinstance(signature, tuple) and len(signature) == 3):
            return False
        r_x, r_y, s = signature
        if not all(isinstance(part, int) for part in signature):
            return False
        # One signature, one encoding: the curve arithmetic reduces scalars
        # mod N, so s ± N would verify too -- each a fresh verify-cache key.
        if not 0 <= s < ec.CURVE_ORDER:
            return False
        r_point = ec.Point(r_x, r_y)
        if r_point.is_infinity or not ec.is_on_curve(r_point):
            return False
        # The identity passes is_on_curve but is no key: R + e·∞ = R, so
        # (s·G, s) would verify for every message.
        if (
            not isinstance(public_key, ec.Point)
            or public_key.is_infinity
            or not ec.is_on_curve(public_key)
        ):
            return False
        challenge = hash_to_int(
            "schnorr-challenge", r_point.encode(), public_key.encode(), message,
            bits=128,
        )
        # s·G = R + e·pk, checked as s·G + e·(−pk) = R on one ladder; negating
        # the point keeps the 128-bit e short where −e mod N would not be.
        negated_key = ec.Point(public_key.x, -public_key.y % ec.FIELD_P)
        return ec.lincomb2(s, ec.GENERATOR, challenge, negated_key) == r_point


@dataclass(frozen=True)
class _SimulatedSigPublicKey:
    key_id: int


@dataclass(frozen=True)
class _SimulatedSigPrivateKey:
    key_id: int
    secret: bytes


class SimulatedSignatureScheme(SignatureScheme):
    """HMAC 'signatures' verified through the trusted setup's registry.

    Same capability argument as :class:`repro.crypto.vrf.SimulatedVRF`:
    only the key owner can produce the tag, so within the simulation the
    scheme is unforgeable.
    """

    def __init__(self) -> None:
        self._registry: dict[int, bytes] = {}

    def keygen(self, rng: random.Random) -> tuple[_SimulatedSigPrivateKey, _SimulatedSigPublicKey]:
        key_id = len(self._registry)
        secret = rng.getrandbits(256).to_bytes(32, "big")
        self._registry[key_id] = secret
        return (
            _SimulatedSigPrivateKey(key_id=key_id, secret=secret),
            _SimulatedSigPublicKey(key_id=key_id),
        )

    def sign(self, private_key: _SimulatedSigPrivateKey, message: bytes) -> bytes:
        return hmac_sha256(private_key.secret, b"sig/" + message)

    def verify(
        self, public_key: _SimulatedSigPublicKey, message: bytes, signature: Any
    ) -> bool:
        secret = self._registry.get(public_key.key_id)
        if secret is None:
            return False
        return signature == hmac_sha256(secret, b"sig/" + message)
