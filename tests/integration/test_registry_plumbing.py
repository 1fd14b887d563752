"""make_runner plumbing: value functions, round bounds, sigma overrides."""

from __future__ import annotations

from repro.experiments.protocols import make_runner
from repro.sim.runner import run_protocol, stop_when_all_decided


class TestValueFnPlumbing:
    def test_unanimous_value_fn_reaches_protocol(self):
        factory, params, f = make_runner(
            "mmr", 13, seed=1, value_fn=lambda ctx: 1
        )
        result = run_protocol(
            13, f, factory, corrupt=set(range(f)), params=params,
            stop_condition=stop_when_all_decided, seed=1,
        )
        assert result.decided_values == {1}

    def test_max_rounds_reaches_protocol(self):
        factory, params, f = make_runner(
            "benor", 13, seed=2, max_rounds=1, value_fn=lambda ctx: ctx.pid % 2
        )
        result = run_protocol(
            13, f, factory, corrupt=set(range(f)), params=params, seed=2,
        )
        # One Ben-Or round on split inputs: everyone returns (mostly
        # undecided), nobody blocks.
        assert result.live
        assert len(result.returns) == 13 - f


class TestSigmaOverride:
    def test_safety_sigmas_changes_thresholds(self):
        _, loose, _ = make_runner("whp_ba", 200, f=2, safety_sigmas=3.0)
        _, tight, _ = make_runner("whp_ba", 200, f=2, safety_sigmas=4.0)
        # More sigmas -> smaller d -> W closer to the committee mean, and
        # (often) a larger lambda; either way the margin must widen.
        loose_margin = (200 - 2) * loose.sample_probability - loose.committee_quorum
        tight_margin = (200 - 2) * tight.sample_probability - tight.committee_quorum
        assert tight_margin >= loose_margin

    def test_sigma_ignored_for_baselines(self):
        _, a, _ = make_runner("mmr", 20, safety_sigmas=3.0)
        _, b, _ = make_runner("mmr", 20, safety_sigmas=4.0)
        assert a == b


class TestDealerDeterminism:
    def test_same_seed_same_dealer_coin(self):
        results = []
        for _ in range(2):
            factory, params, f = make_runner("rabin", 22, seed=9)
            result = run_protocol(
                22, f, factory, corrupt=set(range(f)), params=params,
                stop_condition=stop_when_all_decided, seed=9,
            )
            results.append(result.decided_values)
        assert results[0] == results[1]
