"""Verifiable random functions (VRFs).

The paper (Section 2) assumes a VRF with pseudorandomness, verifiability
and uniqueness.  Two interchangeable backends are provided:

* :class:`ECVRF` -- the secp256k1 elliptic-curve VRF (RFC 9381's ECVRF
  shape, the family the paper cites): the output is a hash of ``sk·H(alpha)``
  and the proof is a Chaum-Pedersen DLEQ transcript pinning it to the
  registered public key.  Uniqueness is structural.
* :class:`SimulatedVRF` -- a keyed-hash VRF whose verification goes through
  a registry held by the trusted setup.  It produces the *exact same output
  distribution* and exposes the same API, at a small fraction of the curve
  arithmetic's cost, so large-n Monte-Carlo sweeps exercise identical
  protocol paths.  Unforgeability is enforced by capability discipline:
  only the key owner (and the trusted verifier) can compute the HMAC.

Both satisfy the three properties the protocols consume; DESIGN.md records
the substitution.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.crypto.hashing import hash_to_int, hmac_sha256

__all__ = [
    "ECVRF",
    "SimulatedVRF",
    "VRFOutput",
    "VRFScheme",
    "VRF_OUTPUT_BITS",
]

# All VRF outputs are uniform integers in [0, 2**VRF_OUTPUT_BITS).  The
# shared coin compares them as integers and takes the LSB of the minimum.
VRF_OUTPUT_BITS = 256

# Width of the ECVRF Fiat-Shamir challenge c.
_EC_CHALLENGE_BITS = 128


@dataclass(frozen=True)
class VRFOutput:
    """A VRF evaluation: the pseudorandom value and its correctness proof.

    ``proof`` is a canonical value (:func:`~repro.crypto.hashing.is_canonical`)
    in every provided scheme -- bytes for the simulated VRF, a tuple of
    ints for ECVRF.  The PKI's verification cache keys on ``(process_id,
    alpha, value, proof)`` and relies on this, and the kernel admits no
    other proof from a corrupted sender.
    """

    value: int
    proof: Any

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << VRF_OUTPUT_BITS):
            raise ValueError("VRF value out of range")

    def __hash__(self) -> int:
        # Outputs are hashed constantly (verify-cache and validation-memo
        # keys) and the 256-bit value makes each hash non-trivial, so the
        # hash is computed once and cached on the instance.  Same value as
        # the generated ``hash((value, proof))``, so equal outputs still
        # hash equal.
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash((self.value, self.proof))
            object.__setattr__(self, "_cached_hash", cached)
        return cached


class VRFScheme(ABC):
    """Abstract VRF: keygen / prove / verify.

    ``prove`` is deterministic in ``(sk, alpha)`` -- this is the uniqueness
    property the shared coin relies on: a Byzantine process cannot choose
    its coin value nor equivocate about it.
    """

    @abstractmethod
    def keygen(self, rng: random.Random) -> tuple[Any, Any]:
        """Generate ``(private_key, public_key)``."""

    @abstractmethod
    def prove(self, private_key: Any, alpha: bytes) -> VRFOutput:
        """Evaluate the VRF on input ``alpha``."""

    @abstractmethod
    def verify(self, public_key: Any, alpha: bytes, output: VRFOutput) -> bool:
        """Check that ``output`` is the unique VRF evaluation for ``alpha``."""


class ECVRF(VRFScheme):
    """Elliptic-curve VRF over secp256k1 (the [16]/[19]/RFC-9381 family).

    * keygen: sk uniform in [1, N); pk = sk·G.
    * prove(alpha): H = hash-to-curve(alpha); Γ = sk·H; output value =
      hash(Γ); proof = a Chaum-Pedersen DLEQ transcript (c, s) showing
      log_G(pk) = log_H(Γ), with the nonce derived deterministically from
      (sk, alpha) so proving is stateless and identical proofs repeat.
    * verify: recompute U = s·G + c·pk, V = s·H + c·Γ and check the
      challenge c = hash(G, H, pk, Γ, U, V).

    Uniqueness is structural: Γ is a function of (sk, H), and the DLEQ
    proof pins Γ to the registered pk, so no second output can verify.
    """

    def keygen(self, rng: random.Random):
        from repro.crypto import ec

        secret = rng.randrange(1, ec.CURVE_ORDER)
        return secret, ec.public_key(secret)

    @staticmethod
    def _challenge(h_point, public_key, gamma, u_point, v_point) -> int:
        from repro.crypto import ec

        return hash_to_int(
            "ecvrf-challenge",
            ec.GENERATOR.encode(),
            h_point.encode(),
            public_key.encode(),
            gamma.encode(),
            u_point.encode(),
            v_point.encode(),
            bits=_EC_CHALLENGE_BITS,
        )

    def prove(self, private_key: int, alpha: bytes) -> VRFOutput:
        from repro.crypto import ec

        h_point = ec.hash_to_point(alpha)
        gamma = ec.scalar_mult(private_key, h_point)
        public_key = ec.public_key(private_key)
        # Deterministic nonce (RFC-6979 in spirit): keyed by sk and alpha.
        nonce = (
            hash_to_int("ecvrf-nonce", private_key, alpha, bits=256)
            % (ec.CURVE_ORDER - 1)
            + 1
        )
        u_point = ec.scalar_mult(nonce, ec.GENERATOR)
        v_point = ec.scalar_mult(nonce, h_point)
        challenge = self._challenge(h_point, public_key, gamma, u_point, v_point)
        s = (nonce - challenge * private_key) % ec.CURVE_ORDER
        value = hash_to_int("ecvrf-out", gamma.encode(), bits=VRF_OUTPUT_BITS)
        return VRFOutput(value=value, proof=(gamma.x, gamma.y, challenge, s))

    def verify(self, public_key, alpha: bytes, output: VRFOutput) -> bool:
        from repro.crypto import ec

        proof = output.proof
        if not (isinstance(proof, tuple) and len(proof) == 4):
            return False
        gamma_x, gamma_y, challenge, s = proof
        if not all(isinstance(part, int) for part in proof):
            return False
        # One proof, one encoding: the curve arithmetic reduces scalars
        # mod N, so s ± N would verify too -- each a fresh verify-cache key.
        if not (0 <= s < ec.CURVE_ORDER and 0 <= challenge < 1 << _EC_CHALLENGE_BITS):
            return False
        gamma = ec.Point(gamma_x, gamma_y)
        if gamma.is_infinity or not ec.is_on_curve(gamma):
            return False
        # The identity passes is_on_curve but is no key (sk = 0 is outside
        # keygen's range); refuse it as the Schnorr verifier must.
        if (
            not isinstance(public_key, ec.Point)
            or public_key.is_infinity
            or not ec.is_on_curve(public_key)
        ):
            return False
        h_point = ec.hash_to_point(alpha)
        u_point = ec.lincomb2(s, ec.GENERATOR, challenge, public_key)
        v_point = ec.lincomb2(s, h_point, challenge, gamma)
        if challenge != self._challenge(h_point, public_key, gamma, u_point, v_point):
            return False
        expected = hash_to_int("ecvrf-out", gamma.encode(), bits=VRF_OUTPUT_BITS)
        return expected == output.value


@dataclass(frozen=True)
class _SimulatedVRFPublicKey:
    """Opaque handle naming a key slot in the scheme's trusted registry."""

    key_id: int


@dataclass(frozen=True)
class _SimulatedVRFPrivateKey:
    key_id: int
    secret: bytes


class SimulatedVRF(VRFScheme):
    """Keyed-hash VRF with registry-backed verification.

    ``prove`` computes HMAC(secret, alpha); ``verify`` recomputes it using
    the secret the trusted setup stored for that public key.  Protocol code
    (including Byzantine behaviours) only ever holds its *own* private key,
    so forging another process's output requires guessing a 256-bit HMAC --
    the same infeasibility assumption as the real scheme, enforced
    structurally instead of number-theoretically.
    """

    def __init__(self) -> None:
        self._registry: dict[int, bytes] = {}

    def keygen(self, rng: random.Random) -> tuple[_SimulatedVRFPrivateKey, _SimulatedVRFPublicKey]:
        key_id = len(self._registry)
        secret = rng.getrandbits(256).to_bytes(32, "big")
        self._registry[key_id] = secret
        return (
            _SimulatedVRFPrivateKey(key_id=key_id, secret=secret),
            _SimulatedVRFPublicKey(key_id=key_id),
        )

    def prove(self, private_key: _SimulatedVRFPrivateKey, alpha: bytes) -> VRFOutput:
        digest = hmac_sha256(private_key.secret, alpha)
        value = int.from_bytes(digest, "big")
        return VRFOutput(value=value, proof=digest)

    def verify(
        self, public_key: _SimulatedVRFPublicKey, alpha: bytes, output: VRFOutput
    ) -> bool:
        secret = self._registry.get(public_key.key_id)
        if secret is None:
            return False
        digest = hmac_sha256(secret, alpha)
        return output.proof == digest and output.value == int.from_bytes(digest, "big")
