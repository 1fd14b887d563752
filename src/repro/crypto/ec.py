"""secp256k1 elliptic-curve arithmetic, from scratch.

Substrate for the ECVRF backend (:class:`repro.crypto.vrf.ECVRF`) -- the
style of VRF the paper's citations [16, 19] and deployed systems
(Algorand, and RFC 9381's ECVRF) actually use -- and its Schnorr signatures.

Curve: y² = x³ + 7 over F_p, p = 2²⁵⁶ − 2³² − 977, prime group order N.

:func:`point_add` is the textbook affine group law, one field inversion per
call: the small auditable definition, and the oracle the tests build their
reference double-and-add on.  :func:`scalar_mult` and :func:`lincomb2` share
one kernel, :func:`_multi_mult`, in Jacobian coordinates (X, Y, Z) ↔
(X/Z², Y/Z³), Z = 0 for infinity, with one inversion per *result*:

* doubling (a = 0): S = 4XY², M = 3X², X' = M² − 2S,
  Y' = M(S − X') − 8Y⁴, Z' = 2YZ;
* mixed addition of an affine (x₂, y₂): H = x₂Z² − X, R = y₂Z³ − Y,
  X' = R² − H³ − 2XH², Y' = R(XH² − X') − YH³, Z' = ZH;
* a variable base P is split by the GLV endomorphism of secp256k1:
  φ(x, y) = (βx, y) = λ·P with β³ ≡ 1 (mod p), λ³ ≡ 1 (mod N), so
  k·P = k₁·P + k₂·φ(P) where k ≡ k₁ + k₂λ (mod N).  Babai rounding
  against a reduced basis (a₁, b₁), (a₂, b₂) of the lattice
  {(a, b) : a + bλ ≡ 0 (mod N)}, c₁ = ⌊b₂k/N⌉, c₂ = ⌊−b₁k/N⌉,
  k₁ = k − c₁a₁ − c₂a₂, k₂ = −c₁b₁ − c₂b₂, gives |k₁|, |k₂| < 2¹²⁹ (about
  2¹²⁸), so the term becomes two half-length terms; a negative kᵢ takes
  the base's negation (x, p − y);
* a variable base gets a 4-bit window: 1·P … 15·P, made affine with one
  shared inversion (Montgomery's trick), then each window costs four
  doublings and at most one addition per term.  φ's window is the same
  table with every x times β.  The table is built on a base's first use
  and kept in an LRU cache keyed by the affine point (:data:`_BASE_TABLES`
  bases, under 3 KB each on CPython 3.11, so under 0.4 MiB when full):
  public keys and ``hash_to_point`` outputs recur in every prove and
  verify, while a proof's Γ is seen once per send;
* several terms share the doublings (Strauss-Shamir): ``a·P + b·Q`` is one
  ladder of max(|aᵢ|, |bᵢ|) ≈ 128 bits over four half-length terms, not
  two ladders of 256;
* terms on ``G`` need no doublings: (j·16ⁱ)·G for i < 64, j ≤ 15 is tabled
  on first use (never at import), so ``k·G`` is at most 64 additions.

Outputs are unchanged by construction: every result is normalised to the
unique affine (x, y) of the group element, which is what affine
double-and-add returned, and the split changes only the addition chain
that reaches that element, so keys, proofs, signatures and run
fingerprints are byte-identical.  The cases the affine law handled
implicitly are explicit: ``k ≡ 0 (mod N)``, zero halves and infinity
terms are dropped up front; the mixed addition doubles when accumulator
= addend (H = R = 0; also how the window table gets 2·P) and yields
infinity when accumulator = −addend (H = 0, R ≠ 0), which covers
``P = ±Q`` and a P-table entry meeting a ±φ(P) one; doubling keeps
infinity at infinity.  Off-curve inputs raise ``ValueError`` before any
table is built: on the curve no multiple below N is infinity, which the
shared inversion relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from repro.crypto.numtheory import modinv

__all__ = [
    "CURVE_ORDER",
    "FIELD_P",
    "GENERATOR",
    "Point",
    "hash_to_point",
    "lincomb2",
    "point_add",
    "public_key",
    "scalar_mult",
]

FIELD_P = 2**256 - 2**32 - 977
CURVE_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_B = 7

_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

# Window width of both scalar-multiplication tables; windows per scalar < N.
_WINDOW_BITS = 4
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1
_WINDOWS = 256 // _WINDOW_BITS

# The GLV endomorphism φ(x, y) = (βx, y) = λ·(x, y), and a reduced basis
# (a₁, b₁), (a₂, b₂) of {(a, b) : a + bλ ≡ 0 (mod N)} (b₂ = a₁).
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8

# Variable bases whose window tables are kept (LRU): room for every public
# key and committee hash point a small deployment's run keeps reusing.
_BASE_TABLES = 128


@dataclass(frozen=True)
class Point:
    """An affine curve point; ``None`` coordinates encode infinity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def encode(self) -> bytes:
        """Compressed SEC-style encoding (prefix by y parity)."""
        if self.is_infinity:
            return b"\x00"
        prefix = b"\x03" if self.y & 1 else b"\x02"
        return prefix + self.x.to_bytes(32, "big")


INFINITY = Point(None, None)
GENERATOR = Point(_GX, _GY)


def is_on_curve(point: Point) -> bool:
    """Membership check (infinity counts as on-curve; half-``None`` does not)."""
    if point.x is None or point.y is None:
        return point.x is None and point.y is None
    if not (0 <= point.x < FIELD_P and 0 <= point.y < FIELD_P):
        return False
    return (point.y * point.y - point.x**3 - _B) % FIELD_P == 0


def point_add(a: Point, b: Point) -> Point:
    """Group addition (affine formulas)."""
    if a.is_infinity:
        return b
    if b.is_infinity:
        return a
    if a.x == b.x and (a.y + b.y) % FIELD_P == 0:
        return INFINITY
    if a == b:
        slope = (3 * a.x * a.x) * modinv(2 * a.y, FIELD_P) % FIELD_P
    else:
        slope = (b.y - a.y) * modinv(b.x - a.x, FIELD_P) % FIELD_P
    x = (slope * slope - a.x - b.x) % FIELD_P
    y = (slope * (a.x - x) - a.y) % FIELD_P
    return Point(x, y)


# The kernel works on plain ``(X, Y, Z)`` and affine ``(x, y)`` tuples; only
# the public functions speak :class:`Point`.
_Jacobian = tuple[int, int, int]
_Affine = tuple[int, int]
_JACOBIAN_INFINITY: _Jacobian = (1, 1, 0)


def _jacobian_double(p: _Jacobian) -> _Jacobian:
    x, y, z = p
    yy = y * y % FIELD_P
    s = 4 * x * yy % FIELD_P
    m = 3 * x * x % FIELD_P
    x3 = (m * m - 2 * s) % FIELD_P
    return x3, (m * (s - x3) - 8 * yy * yy) % FIELD_P, 2 * y * z % FIELD_P


def _jacobian_add_affine(p: _Jacobian, q: _Affine) -> _Jacobian:
    x1, y1, z1 = p
    x2, y2 = q
    if not z1:
        return x2, y2, 1
    zz = z1 * z1 % FIELD_P
    h = (x2 * zz - x1) % FIELD_P
    r = (y2 * zz * z1 - y1) % FIELD_P
    if not h:
        return _JACOBIAN_INFINITY if r else _jacobian_double(p)
    hh = h * h % FIELD_P
    hhh = h * hh % FIELD_P
    v = x1 * hh % FIELD_P
    x3 = (r * r - hhh - 2 * v) % FIELD_P
    return x3, (r * (v - x3) - y1 * hhh) % FIELD_P, z1 * h % FIELD_P


def _to_affine(points: list[_Jacobian]) -> list[_Affine]:
    """Normalise finite points with one inversion of ΠZ (Montgomery's trick)."""
    prefixes = []
    product = 1
    for _, _, z in points:
        prefixes.append(product)
        product = product * z % FIELD_P
    inverse = pow(product, -1, FIELD_P)
    out: list[_Affine] = []
    for (x, y, z), prefix in zip(reversed(points), reversed(prefixes)):
        z_inv = inverse * prefix % FIELD_P
        inverse = inverse * z % FIELD_P
        zz_inv = z_inv * z_inv % FIELD_P
        out.append((x * zz_inv % FIELD_P, y * zz_inv * z_inv % FIELD_P))
    out.reverse()
    return out


def _multiples(base: _Affine, count: int) -> list[_Affine]:
    """Affine ``[1·P, …, count·P]``; all finite for on-curve ``P``, count < N."""
    chain: list[_Jacobian] = [(*base, 1)]
    while len(chain) < count:
        chain.append(_jacobian_add_affine(chain[-1], base))
    return _to_affine(chain)


@lru_cache(maxsize=None)
def _generator_table() -> tuple[list[_Affine], ...]:
    """Row ``i`` holds ``j·16ⁱ·G`` for j = 1 … 15; built on first use."""
    rows = []
    base: _Affine = (_GX, _GY)
    for _ in range(_WINDOWS):
        *row, base = _multiples(base, 1 << _WINDOW_BITS)
        rows.append(row)
    return tuple(rows)


@lru_cache(maxsize=_BASE_TABLES)
def _base_table(base: _Affine) -> tuple[_Affine, ...]:
    """Affine ``1·P … 15·P`` for a variable base; built on the base's first use."""
    return tuple(_multiples(base, _WINDOW_MASK))


def _glv_split(k: int) -> tuple[int, int]:
    """``(k₁, k₂)``, ``k ≡ k₁ + k₂·λ (mod N)``, ``|kᵢ| < 2¹²⁹``, for 0 ≤ k < N."""
    c1 = (2 * _A1 * k + CURVE_ORDER) // (2 * CURVE_ORDER)
    c2 = (-2 * _B1 * k + CURVE_ORDER) // (2 * CURVE_ORDER)
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _A1


def _multi_mult(terms: Iterable[tuple[int, Point]]) -> Point:
    """``Σ kᵢ·Pᵢ`` with every ``kᵢ`` reduced mod N (see the module docstring)."""
    fixed = 0
    variable: list[tuple[int, Sequence[_Affine]]] = []
    for k, point in terms:
        if not is_on_curve(point):
            raise ValueError(f"{point!r} is not on secp256k1")
        k %= CURVE_ORDER
        if not k or point.is_infinity:
            continue
        if point == GENERATOR:
            fixed += k
            continue
        table = _base_table((point.x, point.y))
        k1, k2 = _glv_split(k)
        if k1 > 0:
            variable.append((k1, table))
        elif k1:
            variable.append((-k1, [(x, FIELD_P - y) for x, y in table]))
        if k2:
            variable.append((abs(k2), [
                (_BETA * x % FIELD_P, y if k2 > 0 else FIELD_P - y) for x, y in table
            ]))
    acc = _JACOBIAN_INFINITY
    if variable:
        top_bit = max(k for k, _ in variable).bit_length() - 1
        for shift in range(top_bit - top_bit % _WINDOW_BITS, -1, -_WINDOW_BITS):
            if acc[2]:
                for _ in range(_WINDOW_BITS):
                    acc = _jacobian_double(acc)
            for k, table in variable:
                digit = (k >> shift) & _WINDOW_MASK
                if digit:
                    acc = _jacobian_add_affine(acc, table[digit - 1])
    fixed %= CURVE_ORDER
    if fixed:
        for row in _generator_table():
            digit = fixed & _WINDOW_MASK
            if digit:
                acc = _jacobian_add_affine(acc, row[digit - 1])
            fixed >>= _WINDOW_BITS
    return Point(*_to_affine([acc])[0]) if acc[2] else INFINITY


def scalar_mult(k: int, point: Point) -> Point:
    """``k·point``; ``k`` is reduced mod N, ``point`` must be on the curve."""
    return _multi_mult(((k, point),))


def lincomb2(a: int, p: Point, b: int, q: Point) -> Point:
    """``a·p + b·q`` on one shared ladder (what the verifiers compute)."""
    return _multi_mult(((a, p), (b, q)))


@lru_cache(maxsize=4096)
def public_key(secret: int) -> Point:
    """``secret·G``, once per key: every prove/sign transcript hashes it."""
    return scalar_mult(secret, GENERATOR)


def _sqrt_mod_p(value: int) -> int | None:
    """Square root modulo the field prime (p ≡ 3 mod 4), or ``None``."""
    candidate = pow(value, (FIELD_P + 1) // 4, FIELD_P)
    if candidate * candidate % FIELD_P == value % FIELD_P:
        return candidate
    return None


@lru_cache(maxsize=1024)
def hash_to_point(data: bytes) -> Point:
    """Try-and-increment hash-to-curve (the classic ECVRF H1).

    Deterministic; expected two attempts.  The resulting point's discrete
    log is unknown to everyone, which the VRF's security needs.  Memoised:
    the provers and verifiers of one committee share ``data``.
    """
    from repro.crypto.hashing import encode, hash_to_int

    counter = 0
    while True:
        x = hash_to_int("ec-h2c", counter, data) % FIELD_P
        y_squared = (x**3 + _B) % FIELD_P
        y = _sqrt_mod_p(y_squared)
        if y is not None:
            # Normalise parity from the hash so the map is deterministic.
            want_odd = hash_to_int("ec-h2c-sign", counter, data, bits=1)
            if (y & 1) != want_odd:
                y = FIELD_P - y
            return Point(x, y)
        counter += 1
