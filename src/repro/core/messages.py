"""Protocol messages for Algorithms 1-4, with paper-accurate word sizes.

Word accounting follows Section 2: one word per signature, VRF output, or
constant-size value.  A VRF output (value + proof) is counted as the paper
counts it -- "a VRF output (including a value and a proof)" is a constant
number of words; we charge 2 (value, proof).  The approver's ``ok``
justification carries W (membership proof, signature) pairs and is charged
accordingly, which is where the λ² in the paper's O(n λ²) comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable

from repro.crypto.hashing import encode
from repro.crypto.pki import PKI
from repro.crypto.vrf import VRFOutput
from repro.core.committees import committee_val, membership_checker
from repro.core.params import ProtocolParams
from repro.sim.messages import Message, canonical, exactly, integer, optional, pid
from repro.sim.messages import row, tuple_of

__all__ = [
    "CoinValue",
    "EchoMsg",
    "FirstMsg",
    "InitMsg",
    "OkMsg",
    "SecondMsg",
    "coin_value_alpha",
    "coin_value_checker",
    "echo_signing_bytes",
    "validate_coin_value",
]


@lru_cache(maxsize=1 << 16)
def coin_value_alpha(instance: Hashable) -> bytes:
    """VRF input for a process's random coin value in ``instance``.

    This is the ``VRF_i(r)`` of Algorithms 1 and 2, domain-separated from
    committee sampling so the two uses can never alias.  Pure and on the
    validation hot path, so memoized; an instance is a canonical value,
    on which ``==`` is type-exact, so the memo stands for the encoding.
    """
    return encode("coin-value", instance)


@dataclass(frozen=True)
class CoinValue:
    """A coin value together with everything needed to validate it.

    ``origin`` is the process whose VRF produced the value -- for FIRST
    messages the sender itself, for SECOND messages whoever held the
    minimum.  ``origin_membership`` is the origin's committee proof in the
    committee-based protocol (``None`` for the full-participation coin);
    without it a Byzantine second-committee member could inject the value
    of a colluder that was never sampled to the first committee.
    """

    value: int
    origin: int
    vrf: VRFOutput
    origin_membership: VRFOutput | None = None


# Field kinds of the messages below (repro.sim.messages.admit).
VRF_OUTPUT = exactly(VRFOutput, value=integer, proof=canonical)
COIN_VALUE = exactly(CoinValue, value=integer, origin=pid, vrf=VRF_OUTPUT,
                     origin_membership=optional(VRF_OUTPUT))


def validate_coin_value(
    pki: PKI,
    coin_value: CoinValue,
    instance: Hashable,
    params: ProtocolParams,
    first_committee_role: Hashable | None,
) -> bool:
    """Check a coin value: genuine VRF output, and (if committee-based)
    produced by a member of the FIRST committee.
    """
    if coin_value.value != coin_value.vrf.value:
        return False
    if not pki.vrf_verify(coin_value.origin, coin_value_alpha(instance), coin_value.vrf):
        return False
    if first_committee_role is not None:
        if coin_value.origin_membership is None:
            return False
        return committee_val(
            pki,
            instance,
            first_committee_role,
            coin_value.origin,
            coin_value.origin_membership,
            params,
        )
    return True


def coin_value_checker(
    pki: PKI,
    instance: Hashable,
    params: ProtocolParams,
    first_committee_role: Hashable | None,
):
    """:func:`validate_coin_value`, partially evaluated for one instance.

    Returns ``check(coin_value) -> bool`` performing exactly the same
    checks in the same order (so the PKI's verification counters advance
    identically), with the alpha bytes and -- in the committee-based
    variant -- the FIRST-committee seed/threshold hoisted out of the
    per-message loop.  Sharing a verdict across the receivers of one
    send is the caller's business (:meth:`PKI.send_verdict`).
    """
    alpha = coin_value_alpha(instance)
    check_origin_membership = (
        membership_checker(pki, instance, first_committee_role, params)
        if first_committee_role is not None
        else None
    )

    def check(coin_value: CoinValue) -> bool:
        if coin_value.value != coin_value.vrf.value:
            return False
        if not pki.vrf_verify(coin_value.origin, alpha, coin_value.vrf):
            return False
        if check_origin_membership is None:
            return True
        if coin_value.origin_membership is None:
            return False
        return check_origin_membership(
            coin_value.origin, coin_value.origin_membership
        )

    return check


@dataclass
class FirstMsg(Message):
    """Phase-1 coin message: the sender's own VRF value.

    ``membership`` is the sender's FIRST-committee proof (``None`` in the
    full-participation coin).
    """

    coin_value: CoinValue = None  # type: ignore[assignment]
    membership: VRFOutput | None = None
    field_kinds = {"coin_value": COIN_VALUE, "membership": optional(VRF_OUTPUT)}

    @property
    def value(self) -> int:
        """Exposed for the content-aware ablation scheduler (E6)."""
        return self.coin_value.value

    def words(self) -> int:
        return 2 + (2 if self.membership is not None else 0)


@dataclass
class SecondMsg(Message):
    """Phase-2 coin message: the minimum value the sender has seen."""

    coin_value: CoinValue = None  # type: ignore[assignment]
    membership: VRFOutput | None = None
    field_kinds = FirstMsg.field_kinds

    @property
    def value(self) -> int:
        return self.coin_value.value

    def words(self) -> int:
        words = 2 + (2 if self.membership is not None else 0)
        if self.coin_value.origin_membership is not None:
            words += 2
        return words


@dataclass
class InitMsg(Message):
    """Approver phase 1: an init-committee member's input value."""

    value: object = None
    membership: VRFOutput = None  # type: ignore[assignment]
    field_kinds = {"value": canonical, "membership": VRF_OUTPUT}

    def words(self) -> int:
        return 1 + 2


@lru_cache(maxsize=1 << 16)
def echo_signing_bytes(instance: Hashable, value: object) -> bytes:
    """The bytes an echo-committee member signs; ok-justifications verify them.

    Memoized: every ok-justification check re-derives these bytes, and the
    (instance, value) domain per run is tiny.  Both are canonical values,
    so equal keys have equal encodings.
    """
    return encode("approver-echo", instance, value)


@dataclass
class EchoMsg(Message):
    """Approver phase 2: boost a value seen in B+1 init messages.

    Carries the sender's proof of membership in the *value-specific* echo
    committee plus a signature that ok messages can cite as justification.
    """

    value: object = None
    membership: VRFOutput = None  # type: ignore[assignment]
    signature: object = None
    field_kinds = {"value": canonical, "membership": VRF_OUTPUT, "signature": canonical}

    def words(self) -> int:
        return 1 + 2 + 1


@dataclass
class OkMsg(Message):
    """Approver phase 3: a value backed by W signed echoes.

    ``justification`` is a tuple of ``(echo_sender, echo_membership,
    signature)`` triples -- the W signed echo messages the paper says an
    ok message includes as proof of validity.
    """

    value: object = None
    membership: VRFOutput = None  # type: ignore[assignment]
    justification: tuple = ()
    field_kinds = {"value": canonical, "membership": VRF_OUTPUT,
                   "justification": tuple_of(row(pid, VRF_OUTPUT, canonical))}

    def words(self) -> int:
        # value + own membership proof + (membership, signature) per echo.
        return 1 + 2 + 3 * len(self.justification)
