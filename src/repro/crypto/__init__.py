"""Cryptographic substrate built from scratch for the reproduction.

The paper assumes a trusted PKI and a verifiable random function (VRF).
This package provides:

- :mod:`repro.crypto.hashing` -- canonical encoding and domain-separated
  hashing used by every other module.
- :mod:`repro.crypto.numtheory` -- Miller-Rabin primality and modular
  inverses.
- :mod:`repro.crypto.ec` -- secp256k1 group arithmetic, the basis of the
  real VRF and signature scheme.
- :mod:`repro.crypto.vrf` -- the VRF abstraction with two backends: a
  genuine secp256k1 ECVRF and a fast registry-checked simulated VRF.
- :mod:`repro.crypto.signatures` -- digital signatures with matching
  real (Schnorr) / simulated backends (the approver's ``ok`` messages
  carry them).
- :mod:`repro.crypto.shamir` -- Shamir secret sharing over a prime field.
- :mod:`repro.crypto.threshold` -- a dealer-based threshold common coin
  (substrate for the Rabin and Cachin-style baselines).
- :mod:`repro.crypto.pki` -- the trusted setup that generates and
  registers every process's keys before a run starts.
"""

from repro.crypto.hashing import encode, hash_to_int, sha256, tagged_hash
from repro.crypto.pki import PKI
from repro.crypto.shamir import reconstruct_secret, split_secret
from repro.crypto.signatures import (
    SchnorrSignatureScheme,
    SignatureScheme,
    SimulatedSignatureScheme,
)
from repro.crypto.threshold import ThresholdCoinDealer
from repro.crypto.vrf import (
    ECVRF,
    VRF_OUTPUT_BITS,
    SimulatedVRF,
    VRFOutput,
    VRFScheme,
)

__all__ = [
    "ECVRF",
    "PKI",
    "SchnorrSignatureScheme",
    "SignatureScheme",
    "SimulatedSignatureScheme",
    "SimulatedVRF",
    "ThresholdCoinDealer",
    "VRFOutput",
    "VRFScheme",
    "VRF_OUTPUT_BITS",
    "encode",
    "hash_to_int",
    "reconstruct_secret",
    "sha256",
    "split_secret",
    "tagged_hash",
]
