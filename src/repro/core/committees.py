"""Validated committee sampling (paper Section 5.1).

Every process holds a private function ``sample_i(s, λ)`` -- realised here
as a VRF evaluation on the domain-separated seed -- returning a boolean
and a proof; anyone can check the claim with the public ``committee-val``.
A process is sampled with probability λ/n, independently per seed, and
cannot lie about the outcome (VRF uniqueness) nor predict another
process's outcome (VRF pseudorandomness).

Seeds combine the protocol instance and the committee's role, e.g.
``(("ba", 2, "prop"), ("echo", 1))`` -- distinct protocol steps draw
independent committees, exactly as Figure 1 of the paper illustrates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Iterable

from repro.crypto.hashing import encode
from repro.crypto.pki import PKI
from repro.crypto.vrf import VRF_OUTPUT_BITS, VRFOutput
from repro.core.params import ProtocolParams
from repro.sim.process import ProcessContext

__all__ = [
    "committee_census",
    "committee_seed",
    "committee_val",
    "membership_checker",
    "sample",
    "sample_committee",
    "sampling_threshold",
]


@lru_cache(maxsize=1 << 16)
def committee_seed(instance: Hashable, role: Hashable) -> bytes:
    """Canonical VRF input for the committee named ``(instance, role)``.

    Pure in its arguments, and evaluated once per message per receiver on
    the validation hot path, so the canonical encoding is memoized.  Both
    are canonical values (the echo roles name admitted values), on which
    ``==`` is type-exact, so the memo stands for the encoding.
    """
    return encode("committee", instance, role)


@lru_cache(maxsize=1 << 12)
def _sampling_threshold_cached(params: ProtocolParams) -> int:
    return int(params.sample_probability * (1 << VRF_OUTPUT_BITS))


def sampling_threshold(params: ProtocolParams) -> int:
    """VRF outputs strictly below this integer mean "sampled".

    The VRF output is uniform in [0, 2**VRF_OUTPUT_BITS), so comparing to
    ``p * 2**VRF_OUTPUT_BITS`` samples each process with probability
    ``p = λ/n`` -- the primitive's contract.  ``ProtocolParams`` is frozen
    (hashable), so the conversion is memoized per parameter set.
    """
    try:
        return _sampling_threshold_cached(params)
    except TypeError:
        return int(params.sample_probability * (1 << VRF_OUTPUT_BITS))


def sample(
    ctx: ProcessContext, instance: Hashable, role: Hashable, params: ProtocolParams
) -> tuple[bool, VRFOutput]:
    """``sample_i(s, λ)``: am *I* in this committee?  Returns (bool, proof).

    Local computation only -- no communication, and unpredictable to
    everyone else until the proof is revealed (process replaceability).

    Every draw appends a ``sampled`` protocol record (role + outcome), so
    the self-reported committee sizes -- the quantity the (1±d)λ
    concentration bounds govern -- can be rolled up per run without the
    trusted :func:`sample_committee` view.
    """
    output = ctx.vrf(committee_seed(instance, role))
    member = output.value < sampling_threshold(params)
    ctx.annotate("sampled", instance=instance, role=role, member=member)
    return member, output


def committee_val(
    pki: PKI,
    instance: Hashable,
    role: Hashable,
    process_id: int,
    proof: VRFOutput,
    params: ProtocolParams,
) -> bool:
    """``committee-val(s, λ, i, σ)``: verify ``process_id``'s membership claim."""
    if not isinstance(proof, VRFOutput):
        return False
    if not pki.vrf_verify(process_id, committee_seed(instance, role), proof):
        return False
    return proof.value < sampling_threshold(params)


def membership_checker(
    pki: PKI, instance: Hashable, role: Hashable, params: ProtocolParams
):
    """One committee's :func:`committee_val`, partially evaluated.

    Returns ``check(process_id, proof) -> bool`` with the seed and
    threshold hoisted out of the per-message loop.  Performs *exactly*
    the checks of :func:`committee_val`, in the same order, against the
    same PKI counters.  ``pki.vrf_verify`` is resolved per call, not
    captured, so a caller that shadows it on the instance (the perf
    ledger's call counter) keeps seeing every verification.  Sharing a
    verdict across the receivers of one send is the caller's business
    (:meth:`PKI.send_verdict`).
    """
    seed = committee_seed(instance, role)
    threshold = sampling_threshold(params)

    def check(process_id: int, proof: VRFOutput) -> bool:
        if not isinstance(proof, VRFOutput):
            return False
        if not pki.vrf_verify(process_id, seed, proof):
            return False
        return proof.value < threshold

    return check


def sample_committee(
    pki: PKI, instance: Hashable, role: Hashable, params: ProtocolParams
) -> set[int]:
    """The full membership of one committee (trusted-setup view).

    Used by the sampling experiments (E2, F1) and by tests; protocol code
    never calls this -- processes only ever learn memberships through
    proofs attached to messages.
    """
    seed = committee_seed(instance, role)
    threshold = sampling_threshold(params)
    members = set()
    for pid in range(pki.n):
        output = pki.vrf_scheme.prove(pki.vrf_private(pid), seed)
        if output.value < threshold:
            members.add(pid)
    return members


def committee_census(
    pki: PKI,
    instance: Hashable,
    role: Hashable,
    params: ProtocolParams,
    corrupted: Iterable[int] = (),
) -> dict[str, int]:
    """Ground-truth committee counts: the quantities S1-S4 bound.

    Same trusted-setup view as :func:`sample_committee` (VRF *proofs*,
    never verifications, so calling this does not perturb a run's
    verification-cache counters), split against ``corrupted``:
    ``size`` for S1/S2, ``correct`` for S3 (>= W), ``byzantine`` for
    S4 (<= B).  The conformance monitors and the sampling experiments
    share this as the reference the self-reported records are judged by.
    """
    members = sample_committee(pki, instance, role, params)
    bad = set(corrupted)
    return {
        "size": len(members),
        "correct": len(members - bad),
        "byzantine": len(members & bad),
    }

