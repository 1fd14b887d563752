"""Canonical encoding and domain-separated hashing.

Every protocol message, VRF input and committee seed in the reproduction is
hashed through this module so that two semantically different inputs can
never collide byte-wise.  The encoding is an unambiguous, length-prefixed
serialisation of nested tuples of ``int`` / ``str`` / ``bytes`` / ``bool`` /
``None``.  The protocols' value domain is the part of it on which ``==`` is
type-exact (:func:`is_canonical`).
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import Any

__all__ = [
    "encode",
    "hash_to_int",
    "is_canonical",
    "hmac_sha256",
    "sha256",
    "tagged_hash",
]

# Type tags for the canonical encoding.  One byte each, chosen to be
# mutually distinct so that e.g. the int 5 and the string "5" never encode
# to the same bytes.
_TAG_INT = b"i"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_TUPLE = b"t"
_TAG_NONE = b"n"
_TAG_BOOL = b"B"


def _encode_one(value: Any) -> bytes:
    """Encode a single value with a type tag and a length prefix."""
    if value is None:
        return _TAG_NONE + b"\x00" * 4
    if isinstance(value, bool):
        # bool must be checked before int (bool is a subclass of int).
        body = b"\x01" if value else b"\x00"
        return _TAG_BOOL + len(body).to_bytes(4, "big") + body
    if isinstance(value, int):
        # Two's-complement-free signed encoding: sign byte + magnitude.
        sign = b"-" if value < 0 else b"+"
        magnitude = abs(value)
        body = sign + magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        return _TAG_INT + len(body).to_bytes(4, "big") + body
    if isinstance(value, str):
        body = value.encode("utf-8")
        return _TAG_STR + len(body).to_bytes(4, "big") + body
    if isinstance(value, (bytes, bytearray)):
        body = bytes(value)
        return _TAG_BYTES + len(body).to_bytes(4, "big") + body
    if isinstance(value, (tuple, list)):
        body = b"".join(_encode_one(item) for item in value)
        return _TAG_TUPLE + len(body).to_bytes(4, "big") + body
    raise TypeError(f"cannot canonically encode value of type {type(value).__name__}")


def encode(*parts: Any) -> bytes:
    """Serialise ``parts`` into unambiguous bytes.

    ``encode(a, b) == encode(c, d)`` implies ``(a, b) == (c, d)`` for all
    supported value types, which is what makes the hash functions below
    safe to use for protocol transcripts.
    """
    return _encode_one(tuple(parts))


def is_canonical(value: Any, depth: int = 32) -> bool:
    """``value`` is in the protocols' value domain: ``None``, an ``int``
    that is not a ``bool``, a ``str``, ``bytes``, or a tuple of these,
    nested at most ``depth`` deep (deeper ones exhaust the recursion of
    ``hash`` and :func:`encode`).  On it ``a == b`` implies ``encode(a) ==
    encode(b)`` (``True`` and ``1.0`` equal ``1``, so they stay outside),
    and a memo keyed by a canonical value stands for its encoding."""
    kind = type(value)
    if kind is tuple:
        return depth > 0 and all(is_canonical(item, depth - 1) for item in value)
    return value is None or kind is int or kind is str or kind is bytes


def sha256(data: bytes) -> bytes:
    """SHA-256 of raw bytes."""
    return hashlib.sha256(data).digest()


def tagged_hash(tag: str, *parts: Any) -> bytes:
    """Domain-separated hash: SHA-256 over ``tag`` plus canonical parts.

    Distinct tags guarantee that hashes computed for one purpose (say,
    committee seeds) can never be replayed for another (say, coin values).
    """
    return sha256(encode("repro/" + tag, *parts))


def hash_to_int(tag: str, *parts: Any, bits: int = 256) -> int:
    """Hash to a uniform integer in ``[0, 2**bits)``.

    For ``bits > 256`` the digest is extended by counter-mode rehashing so
    the result stays uniform over the full range.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    out = b""
    counter = 0
    while len(out) * 8 < bits:
        out += sha256(encode("repro/int/" + tag, counter, *parts))
        counter += 1
    return int.from_bytes(out, "big") >> (len(out) * 8 - bits)


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256, used by the simulated (fast) VRF and signatures."""
    return _hmac.new(key, data, hashlib.sha256).digest()


def derive_seed(*parts: Any) -> int:
    """Derive a deterministic 64-bit RNG seed from structured parts.

    Used everywhere a sub-RNG is forked from a run seed (per-process
    randomness, per-round dealer sharings) so that runs are reproducible
    and independent streams never collide.
    """
    return hash_to_int("seed", *parts, bits=64)
