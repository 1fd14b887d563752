"""Unit tests for schedule minimization (synthetic reproduce oracles).

The real pipeline (record a Byzantine-split run, rebuild it under
seq-exact replay, shrink it) is exercised in
tests/integration/test_forensics.py; here ``reproduce`` is a pure
function of the candidate schedule so the search logic itself --
prefix binary search, complement ddmin, the test counter -- is pinned.
"""

from __future__ import annotations

import time

import pytest

from repro.sim.minimize import (
    MinimizationResult,
    ddmin_deliveries,
    minimal_prefix,
    minimize_schedule,
)

SCHEDULE = [(s, s, (s + 1) % 4) for s in range(10)]


def needs(*essential):
    """A failure that recurs iff every essential seq was delivered."""
    wanted = set(essential)
    return lambda schedule: wanted <= {seq for seq, _, _ in schedule}


class TestMinimalPrefix:
    def test_prefix_is_exactly_past_the_last_essential_seq(self):
        assert minimal_prefix(needs(3, 7), SCHEDULE) == 8

    def test_raises_when_full_schedule_does_not_reproduce(self):
        with pytest.raises(ValueError, match="does not reproduce"):
            minimal_prefix(needs(99), SCHEDULE)


class TestDdmin:
    def test_keeps_exactly_the_essential_deliveries(self):
        kept = ddmin_deliveries(needs(3, 7), SCHEDULE)
        assert [SCHEDULE[i][0] for i in kept] == [3, 7]

    def test_empty_failure_shrinks_to_nothing(self):
        assert ddmin_deliveries(needs(), SCHEDULE) == []


class TestMinimizeSchedule:
    def test_composes_prefix_and_ddmin(self):
        result = minimize_schedule(needs(3, 7), SCHEDULE)
        assert isinstance(result, MinimizationResult)
        assert result.original == 10
        assert result.prefix == 8
        assert result.schedule == (SCHEDULE[3], SCHEDULE[7])
        assert result.dropped == (0, 1, 2, 4, 5, 6)
        assert result.deliveries == 2

    def test_prefix_only_skips_ddmin(self):
        result = minimize_schedule(needs(3, 7), SCHEDULE, prefix_only=True)
        assert result.prefix == 8
        assert result.schedule == tuple(SCHEDULE[:8])
        assert result.dropped == ()

    def test_counts_every_reproduce_call(self):
        calls = []
        oracle = needs(3, 7)

        def counted(schedule):
            calls.append(tuple(schedule))
            return oracle(schedule)

        result = minimize_schedule(counted, SCHEDULE)
        assert result.tests == len(calls)
        assert result.tests > 0

    def test_diverging_candidates_just_fail_to_reproduce(self):
        """A candidate that makes the replay diverge must be treated as
        non-reproducing, not crash the search (forensics catches the
        scheduler's RuntimeError and returns False; here the oracle
        models that directly)."""
        essential = needs(3, 7)

        def oracle(schedule):
            if len(schedule) == 5:  # pretend these candidates diverge
                return False
            return essential(schedule)

        result = minimize_schedule(oracle, SCHEDULE)
        assert {3, 7} <= {seq for seq, _, _ in result.schedule}

    def test_describe_and_to_dict_agree(self):
        result = minimize_schedule(needs(3, 7), SCHEDULE)
        payload = result.to_dict()
        assert payload["describe"] == result.describe()
        assert payload["minimal_prefix"] == 8
        assert payload["deliveries"] == 2
        assert payload["schedule"] == [[3, 3, 0], [7, 7, 0]]
        assert payload["dropped_seqs"] == [0, 1, 2, 4, 5, 6]
        assert "8" in result.describe() and "2 essential" in result.describe()

    def test_dropped_is_linear_in_the_prefix(self):
        """A long prefix that ddmin, out of budget, keeps almost whole: the
        dropped seqs are one pass over the prefix, not a set rebuilt per
        index (which took ~13 s on a 2-core x86 host)."""
        schedule = [(seq, 0, 1) for seq in range(20_000)]
        start = time.perf_counter()
        result = minimize_schedule(needs(0, 19_999), schedule, max_tests=2)
        elapsed = time.perf_counter() - start
        assert result.prefix == 20_000
        assert result.deliveries == 20_000 and result.dropped == ()
        assert elapsed < 3.0, f"minimize_schedule took {elapsed:.1f} s"
