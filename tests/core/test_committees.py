"""Validated committee sampling: the sample / committee-val contract."""

from __future__ import annotations

import random

import pytest

from repro.core.committees import (
    committee_seed,
    committee_val,
    membership_checker,
    sample_committee,
    sampling_threshold,
)
from repro.core.params import ProtocolParams
from repro.crypto.pki import PKI
from repro.crypto.vrf import VRF_OUTPUT_BITS, VRFOutput


@pytest.fixture(scope="module")
def pki():
    return PKI.create(40, rng=random.Random(60))


@pytest.fixture(scope="module")
def params():
    return ProtocolParams(n=40, f=3, lam=12.0, d=0.05)


def member_proof(pki, pid, instance, role):
    return pki.vrf_scheme.prove(pki.vrf_private(pid), committee_seed(instance, role))


class TestSeeds:
    def test_distinct_roles_distinct_seeds(self):
        assert committee_seed("i", "init") != committee_seed("i", "ok")

    def test_distinct_instances_distinct_seeds(self):
        assert committee_seed(("ba", 1), "init") != committee_seed(("ba", 2), "init")

    def test_value_specific_echo_committees(self):
        assert committee_seed("i", ("echo", 0)) != committee_seed("i", ("echo", 1))


class TestSamplingThreshold:
    def test_probability_mapping(self, params):
        threshold = sampling_threshold(params)
        assert threshold == int(12 / 40 * (1 << VRF_OUTPUT_BITS))

    def test_full_participation(self):
        params = ProtocolParams(n=10, f=0, lam=10.0, d=0.05)
        assert sampling_threshold(params) == 1 << VRF_OUTPUT_BITS


class TestCommitteeVal:
    def test_genuine_membership_verifies(self, pki, params):
        members = sample_committee(pki, "inst", "init", params)
        assert members  # sanity: expected size 12
        pid = next(iter(members))
        proof = member_proof(pki, pid, "inst", "init")
        assert committee_val(pki, "inst", "init", pid, proof, params)

    def test_non_member_claim_rejected(self, pki, params):
        members = sample_committee(pki, "inst", "init", params)
        outsider = next(pid for pid in range(pki.n) if pid not in members)
        proof = member_proof(pki, outsider, "inst", "init")
        # The proof is a valid VRF output but above the threshold.
        assert not committee_val(pki, "inst", "init", outsider, proof, params)

    def test_replayed_proof_rejected_across_roles(self, pki, params):
        members = sample_committee(pki, "inst", "init", params)
        pid = next(iter(members))
        proof = member_proof(pki, pid, "inst", "init")
        assert not committee_val(pki, "inst", "ok", pid, proof, params)

    def test_replayed_proof_rejected_across_instances(self, pki, params):
        members = sample_committee(pki, "inst", "init", params)
        pid = next(iter(members))
        proof = member_proof(pki, pid, "inst", "init")
        assert not committee_val(pki, "other", "init", pid, proof, params)

    def test_stolen_proof_rejected(self, pki, params):
        members = sample_committee(pki, "inst", "init", params)
        pid = next(iter(members))
        proof = member_proof(pki, pid, "inst", "init")
        impostor = (pid + 1) % pki.n
        assert not committee_val(pki, "inst", "init", impostor, proof, params)

    def test_forged_low_value_rejected(self, pki, params):
        forged = VRFOutput(value=0, proof=b"\x00" * 32)
        assert not committee_val(pki, "inst", "init", 0, forged, params)

    def test_non_vrf_proof_rejected(self, pki, params):
        assert not committee_val(pki, "inst", "init", 0, "not-a-proof", params)


class TestSampleCommitteeStatistics:
    def test_deterministic(self, pki, params):
        assert sample_committee(pki, "a", "r", params) == sample_committee(
            pki, "a", "r", params
        )

    def test_different_seeds_different_committees(self, pki, params):
        committees = {
            frozenset(sample_committee(pki, ("seed", i), "init", params))
            for i in range(6)
        }
        assert len(committees) > 1

    def test_expected_size(self, pki, params):
        sizes = [
            len(sample_committee(pki, ("size", i), "init", params)) for i in range(40)
        ]
        mean = sum(sizes) / len(sizes)
        # E = lam = 12, sigma ~ 2.9; mean of 40 draws within ~4 sigma/sqrt(40).
        assert 9.5 <= mean <= 14.5

    def test_full_participation_samples_everyone(self, pki):
        params = ProtocolParams(n=40, f=3, lam=40.0, d=0.05)
        assert sample_committee(pki, "x", "init", params) == set(range(40))

    def test_independence_across_roles(self, pki, params):
        init = sample_committee(pki, "x", "init", params)
        ok = sample_committee(pki, "x", "ok", params)
        assert init != ok  # astronomically unlikely to coincide


class TestProcessSideSampling:
    def test_sample_matches_trusted_view(self, pki, params):
        """ctx.sample agrees with the committee computed from the registry."""
        from repro.sim.adversary import Adversary
        from repro.sim.network import Simulation
        from repro.core.committees import sample

        sim = Simulation(n=40, f=0, pki=pki, adversary=Adversary(), seed=0, params=params)
        members = sample_committee(pki, "proc", "init", params)
        for pid in range(pki.n):
            sampled, proof = sample(sim.contexts[pid], "proc", "init", params)
            assert sampled == (pid in members)
            if sampled:
                assert committee_val(pki, "proc", "init", pid, proof, params)


class TestMembershipCheckerCounterIdentity:
    """One send's membership verdict, filed by its first receiver and
    replayed by the rest, credits *exactly* the counters the direct path
    (all answered from the verify cache) would produce."""

    def _pair(self, n=40, seed=62):
        return (
            PKI.create(n, rng=random.Random(seed)),
            PKI.create(n, rng=random.Random(seed)),
        )

    def test_repeat_checks_match_committee_val_counters(self):
        direct_pki, memo_pki = self._pair()
        params = ProtocolParams(n=40, f=3, lam=12.0, d=0.05)
        member = next(iter(sample_committee(direct_pki, "x", "init", params)))
        entry = (member, member_proof(memo_pki, member, "x", "init"))
        direct_proof = member_proof(direct_pki, member, "x", "init")
        memo = memo_pki.validation_memo("x")
        validate = membership_checker(memo_pki, "x", "init", params)
        # Simulate n receivers each validating the same broadcast.
        for _ in range(5):
            direct_verdict = committee_val(
                direct_pki, "x", "init", member, direct_proof, params
            )
            memo_verdict = memo_pki.send_verdict(memo, entry, validate)
            assert memo_verdict is direct_verdict is True
            assert memo_pki.verification_counters() == (
                direct_pki.verification_counters()
            )
        assert list(memo) == [id(entry)]

    def test_negative_verdict_replayed_with_identical_counters(self):
        direct_pki, memo_pki = self._pair()
        params = ProtocolParams(n=40, f=3, lam=12.0, d=0.05)
        non_member = next(
            pid for pid in range(40)
            if pid not in sample_committee(direct_pki, "x", "init", params)
        )
        entry = (non_member, member_proof(memo_pki, non_member, "x", "init"))
        direct_proof = member_proof(direct_pki, non_member, "x", "init")
        memo = memo_pki.validation_memo("x")
        validate = membership_checker(memo_pki, "x", "init", params)
        for _ in range(3):
            assert not committee_val(
                direct_pki, "x", "init", non_member, direct_proof, params
            )
            assert not memo_pki.send_verdict(memo, entry, validate)
            assert memo_pki.verification_counters() == (
                direct_pki.verification_counters()
            )

    def test_different_proof_object_takes_full_path(self):
        """A Byzantine re-proof (structurally equal, different object) is
        another send: validated on its own, not replayed blindly."""
        _, pki = self._pair()
        params = ProtocolParams(n=40, f=3, lam=12.0, d=0.05)
        member = next(iter(sample_committee(pki, "x", "init", params)))
        proof = member_proof(pki, member, "x", "init")
        clone = VRFOutput(value=proof.value, proof=proof.proof)
        memo = pki.validation_memo("x")
        validate = membership_checker(pki, "x", "init", params)
        assert pki.send_verdict(memo, (member, proof), validate)
        assert pki.send_verdict(memo, (member, clone), validate)  # re-verified
        forged = VRFOutput(value=proof.value, proof=b"forged")
        assert pki.send_verdict(memo, (member, forged), validate) is False
        assert len(memo) == 3

    def test_replayed_object_under_another_pid_takes_full_path(self):
        """The key is the send, not the message: a Byzantine process that
        re-sends a member's very proof object as its own is judged as
        its own send, after and before the member's."""
        _, pki = self._pair()
        params = ProtocolParams(n=40, f=3, lam=12.0, d=0.05)
        members = sample_committee(pki, "x", "init", params)
        member = next(iter(members))
        replayer = next(pid for pid in range(40) if pid not in members)
        proof = member_proof(pki, member, "x", "init")
        memo = pki.validation_memo("x")
        validate = membership_checker(pki, "x", "init", params)
        for _ in range(2):
            assert pki.send_verdict(memo, (member, proof), validate)
        assert pki.send_verdict(memo, (replayer, proof), validate) is False
        replay = (replayer, proof)
        assert pki.send_verdict(memo, replay, validate) is False
        assert pki.send_verdict(memo, replay, validate) is False
        assert pki.send_verdict(memo, (member, proof), validate)

    def test_uncached_mode_never_memoizes(self):
        pki = PKI.create(40, rng=random.Random(63), verify_cache=False)
        params = ProtocolParams(n=40, f=3, lam=12.0, d=0.05)
        member = next(iter(sample_committee(pki, "x", "init", params)))
        entry = (member, member_proof(pki, member, "x", "init"))
        validate = membership_checker(pki, "x", "init", params)
        assert pki.send_verdict(None, entry, validate)
        assert pki.send_verdict(None, entry, validate)
        assert pki.shared_validation_memo == {}
        # Two full verifications, zero cache hits.
        assert pki.verification_counters()[:2] == (2, 0)
