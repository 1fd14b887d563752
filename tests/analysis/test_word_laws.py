"""The word laws of :mod:`repro.analysis.complexity` against measured runs.

A run's measured words come from each message class's ``words()``; a law
restates those costs and the protocol's broadcast pattern on its own.
So a change to a ``words()`` or to who broadcasts what fails here until
the law moves with it.  Grid: f = 2 silent processes, n in {16, 32, 64},
seeds 0-4, split (``pid % 2``) and unanimous inputs.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.analysis.complexity import (
    WORD_LAWS,
    bracha_words_bound,
    mmr_words_bound,
    whp_ba_words,
)
from repro.core.params import ProtocolParams
from repro.experiments.protocols import PROTOCOLS, make_runner
from repro.experiments.sweep import BARun, ba_trial, sweep
from repro.sim.adversary import Adversary, FIFOScheduler, StaticCorruption
from repro.sim.runner import run_protocol, stop_when_all_decided

F = 2
N_VALUES, SEEDS = (16, 32, 64), range(5)
GRID = [(n, seed, split) for n in N_VALUES for seed in SEEDS for split in (True, False)]


def _runs(protocol: str, n_values=N_VALUES) -> dict[tuple, BARun]:
    """``(n, seed, split) -> run`` over the grid, through the sweep
    harness on two workers (cachin's 768-bit coin arithmetic is most of
    this file's time)."""
    runs = {}
    for split in (True, False):
        trial = partial(ba_trial, f=F, unanimous_value=None if split else 1)
        cells = [(protocol, n, None) for n in n_values]
        for (_, n, _), records in sweep(trial, cells, SEEDS, workers=2):
            for seed, run in zip(SEEDS, records):
                assert run.completed, (n, seed, split)
                runs[n, seed, split] = run
    return runs


class TestLawTable:
    def test_every_protocol_has_a_law_or_a_bound(self):
        bounded = {"mmr", "bracha"}
        assert set(WORD_LAWS) | bounded | {"whp_ba"} == set(PROTOCOLS)
        assert not set(WORD_LAWS) & bounded


@pytest.mark.parametrize("protocol", sorted(WORD_LAWS))
def test_baseline_words_equal_the_law(protocol):
    runs = _runs(protocol)
    for (n, seed, split), run in runs.items():
        law = WORD_LAWS[protocol](n, F, run.max_round, split)
        assert run.words == run.law_words == law, (n, seed, split, run.max_round)
    if protocol == "rabin":
        # Split inputs give no value the (n + f)/2 majority, so round 1
        # adopts the common coin: rabin's law is checked at r = 1 and 2 only.
        rounds = {(split, run.max_round) for (_, _, split), run in runs.items()}
        assert rounds == {(True, 2), (False, 1)}


@pytest.mark.parametrize(
    "protocol, bound, n_values",
    [("mmr", mmr_words_bound, (16, 32)), ("bracha", bracha_words_bound, (16,))],
)
def test_schedule_dependent_baselines_stay_under_their_bound(protocol, bound, n_values):
    for (n, seed, split), run in _runs(protocol, n_values).items():
        assert 0 < run.words <= bound(n, F, run.max_round), (n, seed, split)


def _whp_ba(n: int, seed: int, split: bool, fifo: bool):
    value_fn = None if split else (lambda ctx: 1)
    factory, params, f = make_runner(
        "whp_ba", n, f=F, seed=seed, value_fn=value_fn, safety_sigmas=3.0
    )
    adversary = (
        Adversary(FIFOScheduler(), corruption=StaticCorruption(set(range(f))))
        if fifo else None
    )
    result = run_protocol(
        n, f, factory, adversary=adversary, corrupt=None if fifo else set(range(f)),
        params=params, stop_condition=stop_when_all_decided, seed=seed,
    )
    return result, params


@pytest.mark.parametrize("fifo", [False, True], ids=["random", "fifo"])
def test_whp_ba_words_equal_the_law_up_to_its_named_terms(fifo):
    for n, seed, split in GRID:
        result, params = _whp_ba(n, seed, split, fifo)
        run = BARun.from_result(result)
        assert run.completed
        members = result.metrics.sampled_members()
        W, r = params.committee_quorum, run.max_round
        law = whp_ba_words(n, W, r, members)
        ok_words, second_words = n * (3 + 3 * W), 6 * n
        cut = members.get((("ba", r, "est"), "ok"), 0)
        closed_ok = sum(c for (_, role), c in members.items() if role == "ok") - cut
        second = sum(c for (_, role), c in members.items() if role == "second")
        sent = result.metrics.messages_by_kind
        # c - e_ok and e_second of the law's docstring.
        ok_term = sent["OkMsg"] // n - closed_ok
        second_term = second - sent["SecondMsg"] // n
        where = (n, seed, split, r)
        assert result.words == law + ok_words * ok_term - second_words * second_term, where
        assert -closed_ok <= ok_term <= cut, where
        assert 0 <= second_term <= second, where
        assert (
            law - ok_words * closed_ok - second_words * second
            <= result.words
            <= law + ok_words * cut
        ), where


def expected_round_words(params: ProtocolParams) -> float:
    """``whp_ba``'s law for one round in which every committee -- each
    approver's init, one echo and ok, the coin's FIRST and SECOND -- holds
    its expected λ members."""
    members = {}
    for step in ("est", "prop"):
        for role in ("init", ("echo", 0), "ok"):
            members[("ba", 0, step), role] = params.lam
    for role in ("first", "second"):
        members[("whp_coin", ("ba", 0)), role] = params.lam
    # r = 1 would cut round 2's first approver, which is absent here.
    return whp_ba_words(params.n, params.committee_quorum, 1, members)


class TestLawShapes:
    """Table 1's ordering, from the laws: at E4's margin a round of ours
    costs more than one of Cachin's at n = 50 and less at n = 10^5."""

    @staticmethod
    def ours(n: int) -> float:
        return expected_round_words(ProtocolParams.simulation_scale(n=n, f=F))

    def test_ours_beats_cachin_asymptotically(self):
        n = 100_000
        assert self.ours(n) < WORD_LAWS["cachin"](n, F, 1, True)

    def test_cachin_wins_at_tiny_n(self):
        n = 50
        assert self.ours(n) > WORD_LAWS["cachin"](n, F, 1, True)
