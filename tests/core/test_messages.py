"""Protocol message word accounting and coin-value validation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.committees import committee_seed, sample_committee
from repro.core.messages import (
    CoinValue,
    EchoMsg,
    FirstMsg,
    InitMsg,
    OkMsg,
    SecondMsg,
    coin_value_alpha,
    coin_value_checker,
    echo_signing_bytes,
    validate_coin_value,
)
from repro.core.params import ProtocolParams
from repro.crypto.hashing import encode
from repro.crypto.pki import PKI
from repro.crypto.vrf import VRFOutput
from repro.sim.messages import admit


@pytest.fixture(scope="module")
def pki():
    return PKI.create(20, rng=random.Random(70))


@pytest.fixture(scope="module")
def params():
    return ProtocolParams(n=20, f=2, lam=14.0, d=0.05)


def make_value(pki, pid, instance, membership=None):
    output = pki.vrf_scheme.prove(pki.vrf_private(pid), coin_value_alpha(instance))
    return CoinValue(
        value=output.value, origin=pid, vrf=output, origin_membership=membership
    )


class TestWordSizes:
    def test_first_msg_plain(self, pki):
        cv = make_value(pki, 0, "i")
        assert FirstMsg("i", coin_value=cv).words() == 2

    def test_first_msg_with_membership(self, pki):
        cv = make_value(pki, 0, "i")
        proof = VRFOutput(value=1, proof=b"p")
        assert FirstMsg("i", coin_value=cv, membership=proof).words() == 4

    def test_second_msg_counts_origin_membership(self, pki):
        proof = VRFOutput(value=1, proof=b"p")
        cv = make_value(pki, 0, "i", membership=proof)
        msg = SecondMsg("i", coin_value=cv, membership=proof)
        assert msg.words() == 6

    def test_init_and_echo_sizes(self):
        proof = VRFOutput(value=1, proof=b"p")
        assert InitMsg("i", value=0, membership=proof).words() == 3
        assert EchoMsg("i", value=0, membership=proof, signature=b"s").words() == 4

    def test_ok_size_scales_with_justification(self):
        proof = VRFOutput(value=1, proof=b"p")
        justification = tuple((i, proof, b"s") for i in range(10))
        msg = OkMsg("i", value=0, membership=proof, justification=justification)
        assert msg.words() == 1 + 2 + 3 * 10

    def test_malformed_coin_value_field_does_not_raise(self):
        """A malformed coin value never reaches ``words()``: the kernel
        admits a corrupted sender's message before it builds the flight
        that sizes it."""
        proof = VRFOutput(value=1, proof=b"p")
        for msg in (
            FirstMsg("i", coin_value=None),
            SecondMsg("i", coin_value=None),
            SecondMsg("i", coin_value="junk", membership=proof),
        ):
            assert not admit(msg, 20)

    def test_value_property_exposed_for_scheduler(self, pki):
        cv = make_value(pki, 3, "i")
        assert FirstMsg("i", coin_value=cv).value == cv.value
        assert SecondMsg("i", coin_value=cv).value == cv.value


class TestValidateCoinValue:
    def test_genuine_value_accepted(self, pki, params):
        cv = make_value(pki, 1, "inst")
        assert validate_coin_value(pki, cv, "inst", params, None)

    def test_value_field_must_match_vrf(self, pki, params):
        cv = make_value(pki, 1, "inst")
        tampered = CoinValue(value=(cv.value ^ 1), origin=1, vrf=cv.vrf)
        assert not validate_coin_value(pki, tampered, "inst", params, None)

    def test_wrong_instance_rejected(self, pki, params):
        cv = make_value(pki, 1, "inst")
        assert not validate_coin_value(pki, cv, "other", params, None)

    def test_wrong_origin_rejected(self, pki, params):
        cv = make_value(pki, 1, "inst")
        relabelled = CoinValue(value=cv.value, origin=2, vrf=cv.vrf)
        assert not validate_coin_value(pki, relabelled, "inst", params, None)

    def test_junk_vrf_rejected(self, pki, params):
        """Rejected at admission: no validator sees a coin value whose
        VRF output is no :class:`VRFOutput`."""
        cv = CoinValue(value=0, origin=1, vrf="garbage")
        assert not admit(FirstMsg("inst", coin_value=cv), pki.n)

    @pytest.mark.parametrize("malformed", [None, "junk", (0, 1, None)])
    @pytest.mark.parametrize("role", [None, "first"])
    def test_non_coin_value_rejected(self, pki, params, malformed, role):
        """A coin field that is no :class:`CoinValue` is rejected at
        admission, in the full-participation coin (no membership) and the
        committee one alike; the genuine value beside it is admitted."""
        membership = None if role is None else VRFOutput(value=1, proof=b"p")
        for kind in (FirstMsg, SecondMsg):
            assert not admit(
                kind("inst", coin_value=malformed, membership=membership), pki.n
            )
            genuine = make_value(pki, 1, "inst", membership=membership)
            assert admit(kind("inst", coin_value=genuine, membership=membership), pki.n)

    def test_committee_mode_requires_membership(self, pki, params):
        cv = make_value(pki, 1, "inst")  # no origin_membership
        assert not validate_coin_value(pki, cv, "inst", params, "first")

    def test_committee_mode_accepts_member(self, pki, params):
        members = sample_committee(pki, "inst", "first", params)
        pid = next(iter(members))
        membership = pki.vrf_scheme.prove(
            pki.vrf_private(pid), committee_seed("inst", "first")
        )
        cv = make_value(pki, pid, "inst", membership=membership)
        assert validate_coin_value(pki, cv, "inst", params, "first")

    def test_committee_mode_rejects_non_member(self, pki, params):
        members = sample_committee(pki, "inst", "first", params)
        outsider = next(pid for pid in range(pki.n) if pid not in members)
        membership = pki.vrf_scheme.prove(
            pki.vrf_private(outsider), committee_seed("inst", "first")
        )
        cv = make_value(pki, outsider, "inst", membership=membership)
        assert not validate_coin_value(pki, cv, "inst", params, "first")


class TestCoinValueCheckerCounterIdentity:
    """One send's coin-value verdict, filed by its first receiver and
    replayed by the rest, credits exactly the counters the direct path
    (answered from the verify cache) would."""

    def _pair(self, seed=71):
        return (
            PKI.create(20, rng=random.Random(seed)),
            PKI.create(20, rng=random.Random(seed)),
        )

    @staticmethod
    def _validator(pki, params, role):
        check = coin_value_checker(pki, "c", params, role)
        return lambda sender, coin_value: check(coin_value)

    def test_repeat_checks_match_validate_coin_value(self):
        direct_pki, memo_pki = self._pair()
        params = ProtocolParams(n=20, f=2, lam=14.0, d=0.05)
        direct_value = make_value(direct_pki, 4, "c")
        entry = (4, make_value(memo_pki, 4, "c"))
        memo = memo_pki.validation_memo("c")
        validate = self._validator(memo_pki, params, None)
        for _ in range(5):
            direct_verdict = validate_coin_value(
                direct_pki, direct_value, "c", params, None
            )
            memo_verdict = memo_pki.send_verdict(memo, entry, validate)
            assert memo_verdict is direct_verdict is True
            assert memo_pki.verification_counters() == (
                direct_pki.verification_counters()
            )

    def test_committee_variant_counts_membership_verification(self):
        direct_pki, memo_pki = self._pair()
        params = ProtocolParams(n=20, f=2, lam=14.0, d=0.05)
        member = next(iter(sample_committee(direct_pki, "c", "first", params)))

        def proof_for(pki):
            return pki.vrf_scheme.prove(
                pki.vrf_private(member), committee_seed("c", "first")
            )

        direct_value = make_value(direct_pki, member, "c", proof_for(direct_pki))
        entry = (member, make_value(memo_pki, member, "c", proof_for(memo_pki)))
        memo = memo_pki.validation_memo("c")
        validate = self._validator(memo_pki, params, "first")
        for _ in range(4):
            assert validate_coin_value(
                direct_pki, direct_value, "c", params, "first"
            )
            assert memo_pki.send_verdict(memo, entry, validate)
            assert memo_pki.verification_counters() == (
                direct_pki.verification_counters()
            )

    def test_different_object_same_origin_takes_full_path(self):
        """A Byzantine per-receiver variant (same origin, different object)
        is another send: re-validated, not replayed."""
        _, pki = self._pair()
        params = ProtocolParams(n=20, f=2, lam=14.0, d=0.05)
        genuine = (4, make_value(pki, 4, "c"))
        memo = pki.validation_memo("c")
        validate = self._validator(pki, params, None)
        assert pki.send_verdict(memo, genuine, validate)
        forged = CoinValue(
            value=genuine[1].value + 1, origin=4, vrf=genuine[1].vrf
        )
        assert pki.send_verdict(memo, (4, forged), validate) is False  # value != vrf.value
        assert pki.send_verdict(memo, genuine, validate)  # the genuine verdict replays

    @pytest.mark.parametrize(
        "origin", [[0], "x", None, 1.0], ids=["list", "str", "none", "float"]
    )
    def test_non_int_origin_rejected_like_validate_coin_value(self, origin):
        """A SECOND message's coin value names its origin freely: anything
        but an exact ``int`` is rejected at admission, before either
        checker or the PKI sees it -- uncounted."""
        pki = PKI.create(20, rng=random.Random(71))
        genuine = make_value(pki, 1, "c")
        odd = CoinValue(value=genuine.value, origin=origin, vrf=genuine.vrf)
        assert admit(SecondMsg("c", coin_value=genuine), pki.n)
        assert not admit(SecondMsg("c", coin_value=odd), pki.n)
        assert pki.verification_counters() == (0, 0, 0, 0)

    def test_a_dropped_shelf_credits_what_its_replay_would(self):
        """Dropping an instance's memo shelf is counter-neutral: the next
        receiver re-validates through the per-call caches, which credit
        what the shelf's replay would have."""
        kept_pki, dropped_pki = self._pair()
        params = ProtocolParams(n=20, f=2, lam=14.0, d=0.05)
        kept_entry = (4, make_value(kept_pki, 4, "c"))
        dropped_entry = (4, make_value(dropped_pki, 4, "c"))
        kept_memo = kept_pki.validation_memo("c")
        dropped_memo = dropped_pki.validation_memo("c")
        kept = self._validator(kept_pki, params, None)
        dropped = self._validator(dropped_pki, params, None)
        for _ in range(3):
            assert kept_pki.send_verdict(kept_memo, kept_entry, kept)
            assert dropped_pki.send_verdict(dropped_memo, dropped_entry, dropped)
            assert dropped_pki.shared_validation_memo["c"]
            dropped_pki.drop_validation_memo("c")
            assert dropped_pki.shared_validation_memo["c"] == {}
            assert dropped_pki.verification_counters() == (
                kept_pki.verification_counters()
            )

    def test_uncached_mode_identical_verdicts_no_memo(self):
        pki = PKI.create(20, rng=random.Random(72), verify_cache=False)
        params = ProtocolParams(n=20, f=2, lam=14.0, d=0.05)
        entry = (3, make_value(pki, 3, "c"))
        validate = self._validator(pki, params, None)
        assert pki.send_verdict(None, entry, validate)
        assert pki.send_verdict(None, entry, validate)
        assert pki.shared_validation_memo == {}


class TestMemosStandForTheEncoding:
    @given(
        st.lists(
            st.one_of(
                st.none(), st.integers(-2, 2), st.sampled_from(("a", b"a", ("d", 1)))
            ),
            max_size=8,
        )
    )
    def test_memoized_bytes_equal_the_encoding_in_any_order(self, values):
        """Every memoized encoding equals a fresh one, whatever equal
        canonical value it met first."""
        for value in values:
            instance = ("memo", value)
            assert committee_seed(instance, ("echo", value)) == encode(
                "committee", instance, ("echo", value)
            )
            assert echo_signing_bytes(instance, value) == encode(
                "approver-echo", instance, value
            )
            assert coin_value_alpha(instance) == encode("coin-value", instance)
