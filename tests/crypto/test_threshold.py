"""Threshold common coins: the CKS-style dealer and Rabin's lottery."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.crypto.threshold import RabinLotteryDealer, ThresholdCoinDealer


@pytest.fixture(scope="module")
def cks_dealer():
    return ThresholdCoinDealer(n=7, threshold=3, rng=random.Random(51))


@pytest.fixture(scope="module")
def lottery_dealer():
    return RabinLotteryDealer(n=7, threshold=3, rng=random.Random(52))


@pytest.fixture(scope="module", params=["cks", "lottery"])
def dealer(request, cks_dealer, lottery_dealer):
    return cks_dealer if request.param == "cks" else lottery_dealer


class TestDealerContract:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            ThresholdCoinDealer(3, 4, random.Random(0))
        with pytest.raises(ValueError):
            RabinLotteryDealer(3, 0, random.Random(0))

    def test_share_verifies(self, dealer):
        for pid in range(dealer.n):
            share = dealer.coin_share(pid, 0)
            assert dealer.verify_share(pid, 0, share)

    def test_share_bound_to_process(self, dealer):
        share = dealer.coin_share(0, 0)
        assert not dealer.verify_share(1, 0, share)

    def test_share_bound_to_round(self, dealer):
        share = dealer.coin_share(0, 0)
        assert not dealer.verify_share(0, 1, share)

    def test_invalid_pid_rejected(self, dealer):
        share = dealer.coin_share(0, 0)
        assert not dealer.verify_share(-1, 0, share)
        assert not dealer.verify_share(dealer.n, 0, share)
        # A negative index would otherwise read pid n-1's share.
        for pid in (-1, dealer.n):
            with pytest.raises(ValueError):
                dealer.coin_share(pid, 0)

    def test_combine_needs_threshold_shares(self, dealer):
        shares = {pid: dealer.coin_share(pid, 0) for pid in range(dealer.threshold - 1)}
        with pytest.raises(ValueError):
            dealer.combine(shares, 0)

    def test_combine_rejects_invalid_share(self, dealer):
        shares = {pid: dealer.coin_share(pid, 0) for pid in range(dealer.threshold)}
        shares[0] = dealer.coin_share(0, 1)  # valid for the wrong round
        with pytest.raises(ValueError):
            dealer.combine(shares, 0)

    def test_all_subsets_combine_to_same_bit(self, dealer):
        round_id = 3
        all_shares = {pid: dealer.coin_share(pid, round_id) for pid in range(dealer.n)}
        bits = set()
        for subset in combinations(range(dealer.n), dealer.threshold):
            bits.add(dealer.combine({pid: all_shares[pid] for pid in subset}, round_id))
        assert len(bits) == 1
        assert bits.pop() in (0, 1)

    def test_coin_sequence_is_balanced(self, dealer):
        shares = lambda r: {pid: dealer.coin_share(pid, r) for pid in range(dealer.threshold)}
        bits = [dealer.combine(shares(r), r) for r in range(60)]
        assert 12 <= sum(bits) <= 48  # both outcomes occur, roughly balanced

    def test_rounds_are_independent(self, dealer):
        shares = lambda r: {pid: dealer.coin_share(pid, r) for pid in range(dealer.threshold)}
        bits = {dealer.combine(shares(r), r) for r in range(16)}
        assert bits == {0, 1}


class TestLotterySpecifics:
    def test_deterministic_rematerialisation(self):
        a = RabinLotteryDealer(5, 2, random.Random(9))
        share_first = a.coin_share(3, 7)
        a._rounds.clear()  # force rematerialisation from the seed
        assert a.coin_share(3, 7) == share_first

    def test_distinct_dealers_distinct_lotteries(self):
        a = RabinLotteryDealer(5, 2, random.Random(1))
        b = RabinLotteryDealer(5, 2, random.Random(2))
        bits_a = [a.combine({0: a.coin_share(0, r), 1: a.coin_share(1, r)}, r) for r in range(24)]
        bits_b = [b.combine({0: b.coin_share(0, r), 1: b.coin_share(1, r)}, r) for r in range(24)]
        assert bits_a != bits_b


class TestCKSSpecifics:
    def test_share_is_group_element(self, cks_dealer):
        from repro.crypto.threshold import _SCHNORR_P

        share = cks_dealer.coin_share(2, 5)
        assert 1 < share < _SCHNORR_P

    def test_tuple_round_ids_supported(self, cks_dealer):
        # Protocol round ids are tuples like ("mmr", 3); the hash-to-group
        # accepts any canonically encodable value.
        share = cks_dealer.coin_share(0, ("mmr", 3))
        assert cks_dealer.verify_share(0, ("mmr", 3), share)


class TestCKSShareMemo:
    """Each share is computed once per dealer; verification stays exact."""

    def test_hash_to_group_once_per_pid_and_round(self, monkeypatch):
        from repro.crypto import threshold

        calls = []
        original = threshold._hash_to_group

        def counting(round_id):
            calls.append(round_id)
            return original(round_id)

        monkeypatch.setattr(threshold, "_hash_to_group", counting)
        dealer = ThresholdCoinDealer(n=5, threshold=2, rng=random.Random(7))
        for _ in range(3):
            for round_id in range(4):
                shares = {pid: dealer.coin_share(pid, round_id) for pid in range(5)}
                for pid, share in shares.items():
                    assert dealer.verify_share(pid, round_id, share)
                dealer.combine(shares, round_id)
        assert len(calls) == 5 * 4

    def test_bad_shares_fail_with_memo_warm(self):
        dealer = ThresholdCoinDealer(n=5, threshold=2, rng=random.Random(8))
        shares = {pid: dealer.coin_share(pid, 0) for pid in range(5)}
        dealer.coin_share(0, 1)
        assert dealer.verify_share(0, 0, shares[0])
        assert not dealer.verify_share(0, 0, shares[0] + 1)  # tampered
        assert not dealer.verify_share(0, 0, dealer.coin_share(0, 1))  # wrong round
        assert not dealer.verify_share(0, 0, shares[1])  # another process's
        with pytest.raises(ValueError):
            dealer.combine({0: shares[0] + 1, 1: shares[1]}, 0)
        with pytest.raises(ValueError):
            dealer.combine({0: dealer.coin_share(0, 1), 1: shares[1]}, 0)
