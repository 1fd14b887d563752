"""Trusted public-key infrastructure (paper Section 2).

Keys for all ``n`` processes are generated *before* the protocol begins and
public keys are well known; processes cannot manipulate them.  The PKI
bundles a VRF keypair and a signature keypair per process and hands out
private keys only for the process that owns them (the simulator enforces
this capability discipline even for Byzantine behaviours -- corruption
grants the adversary that process's keys, nothing more).

Verification is memoized.  ``vrf_verify``/``signature_verify`` are pure
functions of ``(process_id, alpha, proof)`` -- the public keys are fixed at
setup and both schemes are deterministic -- so a proof broadcast to ``n``
receivers needs to be checked once, not ``n`` times.  The cache stores
positive *and* negative verdicts (an invalid proof stays invalid) and
keeps hit/miss counters that the simulation kernel snapshots into its
:class:`~repro.sim.metrics.MetricsRecorder`.  Its keys are hashable:
proofs and signatures are canonical values, the only kind the kernel
admits from a corrupted sender (:func:`repro.sim.messages.admit`).
Disable it with ``verify_cache=False`` (or :meth:`PKI.set_verify_cache`)
to run the uncached path, e.g. for the equivalence checks in
``benchmarks/bench_kernel_hotpath.py``.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Any, Callable, Hashable

from repro.crypto.signatures import (
    SchnorrSignatureScheme,
    SignatureScheme,
    SimulatedSignatureScheme,
)
from repro.crypto.vrf import ECVRF, SimulatedVRF, VRFOutput, VRFScheme

__all__ = ["PKI", "VALIDATION_MEMO_MAX_ENTRIES"]


# Flush-on-overflow bound for the verification caches.  Far above what a
# single BA run produces at simulation scale; the flush keeps a PKI shared
# across thousands of runs from growing without bound, deterministically.
_VERIFY_CACHE_MAX_ENTRIES = 1 << 20

# Flush-on-overflow bound for one instance's validation-memo shelf.  A
# shelf leaves with its instance, but Byzantine justifications for a live
# instance are unbounded; the flush keeps them so, deterministically.
VALIDATION_MEMO_MAX_ENTRIES = 1 << 20

# Sentinel distinguishing "not cached" from a cached ``False`` verdict.
_MISS = object()

# What a shelf lookup returns for a send with no filed verdict: its first
# element, the pinned entry, is no entry, so one identity check tells a
# hit from a miss.
_NO_VERDICT = (None, False, 0, 0)


class PKI:
    """Per-run trusted setup: VRF and signature keys for ``n`` processes."""

    def __init__(
        self,
        n: int,
        vrf_scheme: VRFScheme,
        signature_scheme: SignatureScheme,
        rng: random.Random,
        verify_cache: bool = True,
    ) -> None:
        if n < 1:
            raise ValueError("need at least one process")
        self.n = n
        self.vrf_scheme = vrf_scheme
        self.signature_scheme = signature_scheme
        self._vrf_private: list[Any] = []
        self._vrf_public: list[Any] = []
        self._sig_private: list[Any] = []
        self._sig_public: list[Any] = []
        self.verify_cache_enabled = verify_cache
        self._vrf_cache: dict[tuple, bool] = {}
        self._sig_cache: dict[tuple, bool] = {}
        # Cross-receiver validation memo: one verdict per send, one shelf
        # per protocol instance.  A send reaches its n receivers as one
        # shared ``(sender, message)`` entry, and every receive-side
        # predicate (committee membership, coin value, the approver's W
        # signed echoes) is a pure function of that pair, so the first
        # receiver files ``id(entry) -> (entry, verdict, vrf_calls,
        # sig_calls)`` and the others replay it, both through
        # :meth:`send_verdict`.  A shelf lives as long as its instance:
        # the kernel drops it once every correct process has retired the
        # instance, and drops them all at run end (see
        # :meth:`drop_validation_memo`).  Gated on
        # ``verify_cache_enabled``; soundness rests on the same purity
        # argument as the per-call caches (fixed keys, deterministic
        # schemes).
        self.shared_validation_memo: dict[Hashable, dict] = {}
        # Monotone counters; the kernel reports per-run deltas of these
        # through MetricsRecorder (see Simulation.run).
        self.vrf_verifications = 0
        self.vrf_cache_hits = 0
        self.sig_verifications = 0
        self.sig_cache_hits = 0
        # Monotone wall-clock inside the schemes' verify (misses only: a hit
        # is a dict lookup); a profiled run's delta is ``kernel.verify``.
        self.verify_seconds = 0.0
        for _ in range(n):
            vrf_sk, vrf_pk = vrf_scheme.keygen(rng)
            sig_sk, sig_pk = signature_scheme.keygen(rng)
            self._vrf_private.append(vrf_sk)
            self._vrf_public.append(vrf_pk)
            self._sig_private.append(sig_sk)
            self._sig_public.append(sig_pk)

    @classmethod
    def create(
        cls,
        n: int,
        backend: str = "simulated",
        rng: random.Random | None = None,
        verify_cache: bool = True,
    ) -> "PKI":
        """Build a PKI with matched VRF/signature backends.

        ``backend`` is ``"simulated"`` (fast keyed-hash, default for
        simulation sweeps) or ``"ec"`` (real secp256k1 ECVRF + Schnorr
        signatures -- the VRF family the paper's citations and deployed
        systems use).  ``verify_cache=False`` disables verification
        memoization.
        """
        rng = rng or random.Random()
        if backend == "simulated":
            return cls(n, SimulatedVRF(), SimulatedSignatureScheme(), rng,
                       verify_cache=verify_cache)
        if backend == "ec":
            return cls(n, ECVRF(), SchnorrSignatureScheme(), rng,
                       verify_cache=verify_cache)
        raise ValueError(
            f"unknown PKI backend {backend!r} (expected 'simulated' or 'ec')"
        )

    # -- verification cache administration -----------------------------------

    def set_verify_cache(self, enabled: bool) -> None:
        """Switch memoized verification on or off (clears stored verdicts)."""
        self.verify_cache_enabled = enabled
        self.clear_verify_cache()

    def clear_verify_cache(self) -> None:
        self._vrf_cache.clear()
        self._sig_cache.clear()
        self.clear_validation_memo()

    def validation_memo(self, instance: Hashable) -> dict:
        """The validation-memo shelf of ``instance`` (created on first use).

        A validator fetches it once, when the cache is on, and files every
        verdict about ``instance``'s messages there."""
        return self.shared_validation_memo.setdefault(instance, {})

    def drop_validation_memo(self, instance: Hashable) -> None:
        """Empty ``instance``'s shelf.

        Counter-neutral: a re-validation after a drop takes the direct
        path, whose verify calls the per-call caches answer, crediting
        exactly what a replay would have.  The shelf stays
        filed (empty), so a validator that outlives the drop keeps
        filing where the PKI sees it, until :meth:`clear_validation_memo`.
        """
        memo = self.shared_validation_memo.get(instance)
        if memo is not None:
            memo.clear()

    def clear_validation_memo(self) -> None:
        """Empty and forget every shelf (a run's end, or a cache switch)."""
        memos = self.shared_validation_memo
        for memo in memos.values():
            memo.clear()
        memos.clear()

    def send_verdict(
        self, memo: dict | None, entry: tuple, validate: Callable[..., bool]
    ) -> bool:
        """One receiver's verdict on a delivered ``(sender, message)`` entry.

        ``validate(sender, message)`` is a pure function of the send, and
        a send reaches its n receivers as one shared entry.  So the first
        receiver runs it and, when ``memo`` is the instance's shelf and
        the cache is on, files ``id(entry) -> (entry, verdict, vrf_calls,
        sig_calls)``; the entry pins itself, so the id stays its own while
        the shelf holds it.  Every later receiver replays the verdict and
        credits the verify calls a re-run would make, each one a per-call
        cache hit, so the counters read as if every receiver had checked.
        The key is the send, not the message: a Byzantine process may
        re-broadcast another's message object under its own pid, and that
        send is judged on its own.
        """
        if memo is not None and self.verify_cache_enabled:
            cached = memo.get(id(entry), _NO_VERDICT)
            if cached[0] is entry:
                calls = cached[2]
                self.vrf_verifications += calls
                self.vrf_cache_hits += calls
                calls = cached[3]
                self.sig_verifications += calls
                self.sig_cache_hits += calls
                return cached[1]
        vrf_before = self.vrf_verifications
        sig_before = self.sig_verifications
        verdict = validate(*entry)
        if memo is not None and self.verify_cache_enabled:
            if len(memo) >= VALIDATION_MEMO_MAX_ENTRIES:
                memo.clear()
            memo[id(entry)] = (
                entry,
                verdict,
                self.vrf_verifications - vrf_before,
                self.sig_verifications - sig_before,
            )
        return verdict

    def verification_counters(self) -> tuple[int, int, int, int]:
        """``(vrf_calls, vrf_hits, sig_calls, sig_hits)`` since construction."""
        return (
            self.vrf_verifications,
            self.vrf_cache_hits,
            self.sig_verifications,
            self.sig_cache_hits,
        )

    # -- key access ---------------------------------------------------------

    def vrf_private(self, process_id: int) -> Any:
        return self._vrf_private[process_id]

    def vrf_public(self, process_id: int) -> Any:
        return self._vrf_public[process_id]

    def signature_private(self, process_id: int) -> Any:
        return self._sig_private[process_id]

    def signature_public(self, process_id: int) -> Any:
        return self._sig_public[process_id]

    # -- convenience wrappers (public operations) ----------------------------

    def vrf_verify(self, process_id: int, alpha: bytes, output: VRFOutput) -> bool:
        """Verify that ``output`` is process ``process_id``'s VRF value on ``alpha``.

        Memoized on ``(process_id, alpha, value, proof)`` when the cache is
        enabled; soundness rests on verification being a pure function of
        that key (fixed public keys, deterministic schemes).  A
        ``process_id`` outside ``[0, n)`` is rejected uncounted.
        """
        if not 0 <= process_id < self.n:
            return False
        self.vrf_verifications += 1
        key = None
        if self.verify_cache_enabled:
            key = (process_id, alpha, output.value, output.proof)
            cached = self._vrf_cache.get(key, _MISS)
            if cached is not _MISS:
                self.vrf_cache_hits += 1
                return cached
        start = perf_counter()
        result = self.vrf_scheme.verify(self._vrf_public[process_id], alpha, output)
        self.verify_seconds += perf_counter() - start
        if key is not None:
            if len(self._vrf_cache) >= _VERIFY_CACHE_MAX_ENTRIES:
                self._vrf_cache.clear()
            self._vrf_cache[key] = result
        return result

    def signature_verify(self, process_id: int, message: bytes, signature: Any) -> bool:
        """Verify process ``process_id``'s signature on ``message``.

        Memoized on ``(process_id, message, signature)`` -- same purity
        argument as :meth:`vrf_verify`; an out-of-range ``process_id``
        is rejected uncounted.
        """
        if not 0 <= process_id < self.n:
            return False
        self.sig_verifications += 1
        key = None
        if self.verify_cache_enabled:
            key = (process_id, message, signature)
            cached = self._sig_cache.get(key, _MISS)
            if cached is not _MISS:
                self.sig_cache_hits += 1
                return cached
        start = perf_counter()
        result = self.signature_scheme.verify(
            self._sig_public[process_id], message, signature
        )
        self.verify_seconds += perf_counter() - start
        if key is not None:
            if len(self._sig_cache) >= _VERIFY_CACHE_MAX_ENTRIES:
                self._sig_cache.clear()
            self._sig_cache[key] = result
        return result
