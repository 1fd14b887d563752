"""Fuzzing mechanism layer: candidates, typed mutations, corruption moves.

Pin the algebra the fuzz driver builds on: mutations are deterministic
functions of their RNG, schedule mutations preserve the delivery
multiset invariants they claim, lossy mutations never build an invalid
config, and :class:`ScheduledCorruption` fires at the exact delivery
counts it was given.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.fuzz import (
    MUTATIONS,
    FuzzCandidate,
    MutationContext,
    ScheduledCorruption,
    mutate,
)
from repro.sim.network import LossyLinkConfig

SCHEDULE = ((0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 2), (4, 1, 0), (5, 2, 1))


def seed_candidate(**overrides) -> FuzzCandidate:
    return FuzzCandidate(schedule=SCHEDULE, **overrides)


def ctx(corrupted=(2,)) -> MutationContext:
    return MutationContext(corrupted=tuple(corrupted), deliveries=len(SCHEDULE))


class TestCandidate:
    def test_dict_round_trip(self):
        candidate = seed_candidate(
            lossy=LossyLinkConfig(duplicate_rate=0.3),
            corrupt_after=((2, 4),),
            explore_seed=99,
            mutation="lossy_explore",
            parent=3,
        )
        assert FuzzCandidate.from_dict(candidate.to_dict()) == candidate

    def test_plain_round_trip(self):
        candidate = seed_candidate()
        restored = FuzzCandidate.from_dict(candidate.to_dict())
        assert restored == candidate
        assert restored.lossy is None
        assert restored.corrupt_after is None


class TestScheduleMutations:
    def test_swaps_preserve_delivery_multiset(self):
        for name in ("swap_adjacent", "swap_random", "delay_delivery"):
            mutated = MUTATIONS[name](seed_candidate(), random.Random(1), ctx())
            assert mutated is not None, name
            # Whole deliveries move: each seq keeps its link.
            assert sorted(mutated.schedule) == sorted(SCHEDULE), name
            assert mutated.schedule != SCHEDULE, name

    def test_drop_removes_exactly_one(self):
        mutated = MUTATIONS["drop_delivery"](
            seed_candidate(), random.Random(1), ctx()
        )
        assert len(mutated.schedule) == len(SCHEDULE) - 1
        assert set(mutated.schedule) < set(SCHEDULE)

    def test_move_corruption_needs_a_corrupted_pid(self):
        assert (
            MUTATIONS["move_corruption"](
                seed_candidate(), random.Random(1), ctx(corrupted=())
            )
            is None
        )
        mutated = MUTATIONS["move_corruption"](
            seed_candidate(), random.Random(1), ctx(corrupted=(2,))
        )
        assert mutated.corrupt_after is not None
        assert [pid for pid, _ in mutated.corrupt_after] == [2]


class TestLossyMutations:
    def test_lossy_mutations_build_valid_configs(self):
        for name in ("lossy_duplicate", "lossy_corrupt", "lossy_explore"):
            for seed in range(20):
                mutated = MUTATIONS[name](
                    seed_candidate(), random.Random(seed), ctx()
                )
                if mutated is None:
                    continue
                config = mutated.lossy
                # Constructing LossyLinkConfig validates; re-validate sums.
                total = (
                    config.drop_rate + config.duplicate_rate
                    + config.reorder_rate + config.corrupt_rate
                )
                assert 0.0 < total <= 1.0 + 1e-9, name

    def test_lossy_explore_switches_to_random_schedule(self):
        mutated = MUTATIONS["lossy_explore"](
            seed_candidate(), random.Random(3), ctx()
        )
        assert mutated.explore_seed is not None
        assert mutated.lossy.active

    def test_lossy_perturb_needs_existing_config(self):
        assert (
            MUTATIONS["lossy_perturb"](
                seed_candidate(), random.Random(1), ctx()
            )
            is None
        )
        base = seed_candidate(lossy=LossyLinkConfig(duplicate_rate=0.4))
        mutated = MUTATIONS["lossy_perturb"](base, random.Random(1), ctx())
        assert mutated is not None
        assert mutated.lossy != base.lossy

    def test_duplicate_rate_saturates_to_none(self):
        # A config already at the exclusivity ceiling cannot absorb a
        # further duplicate bump: the mutation declines rather than
        # building an invalid config.
        base = seed_candidate(
            lossy=LossyLinkConfig(drop_rate=0.5, duplicate_rate=0.5)
        )
        assert (
            MUTATIONS["lossy_duplicate"](base, random.Random(1), ctx()) is None
        )


class TestMutateDispatch:
    def test_deterministic_given_rng(self):
        a = mutate(seed_candidate(), random.Random(7), ctx())
        b = mutate(seed_candidate(), random.Random(7), ctx())
        assert a == b

    def test_stamps_mutation_name(self):
        mutated = mutate(seed_candidate(), random.Random(7), ctx())
        assert mutated is not None
        assert mutated.mutation in MUTATIONS
        assert mutated != seed_candidate()

    def test_restricted_names(self):
        mutated = mutate(
            seed_candidate(), random.Random(7), ctx(), names=["swap_adjacent"]
        )
        assert mutated.mutation == "swap_adjacent"

    def test_exhausted_attempts_return_none(self):
        # Only inapplicable mutations offered -> every attempt misfires.
        assert (
            mutate(
                seed_candidate(),
                random.Random(7),
                ctx(corrupted=()),
                names=["move_corruption", "lossy_perturb"],
            )
            is None
        )


class TestScheduledCorruption:
    def test_initial_sites_fire_before_any_delivery(self):
        strategy = ScheduledCorruption([(1, 0), (3, 2)])
        assert strategy.initial_corruptions(n=4, f=2) == {1}

    def test_fires_at_the_given_delivery_count(self):
        strategy = ScheduledCorruption([(3, 2)])
        assert strategy.on_delivery(None, frozenset()) == set()   # seen=1
        assert strategy.on_delivery(None, frozenset()) == {3}     # seen=2

    def test_never_recorrupts(self):
        strategy = ScheduledCorruption([(3, 1)])
        assert strategy.on_delivery(None, frozenset({3})) == set()
