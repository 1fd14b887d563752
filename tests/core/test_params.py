"""Parameter windows, thresholds, and feasibility logic."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.params import ProtocolParams, paper_d_window, paper_epsilon_window


class TestBasicConstruction:
    def test_quorum_and_epsilon(self):
        params = ProtocolParams(n=30, f=5)
        assert params.quorum == 25
        assert params.epsilon == pytest.approx(1 / 3 - 5 / 30)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=0, f=0)
        with pytest.raises(ValueError):
            ProtocolParams(n=5, f=5)
        with pytest.raises(ValueError):
            ProtocolParams(n=5, f=-1)

    def test_lam_and_d_must_come_together(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=10, f=1, lam=5.0)
        with pytest.raises(ValueError):
            ProtocolParams(n=10, f=1, d=0.05)

    def test_d_range_checked(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=10, f=1, lam=5.0, d=0.5)
        with pytest.raises(ValueError):
            ProtocolParams(n=10, f=1, lam=5.0, d=0.0)

    def test_committee_properties_require_lam(self):
        params = ProtocolParams(n=10, f=1)
        with pytest.raises(ValueError):
            _ = params.committee_quorum
        with pytest.raises(ValueError):
            _ = params.sample_probability


class TestThresholds:
    def test_w_and_b_formulas(self):
        params = ProtocolParams(n=100, f=5, lam=30.0, d=0.05)
        assert params.committee_quorum == math.ceil((2 / 3 + 0.15) * 30)
        assert params.committee_byzantine_bound == math.floor((1 / 3 - 0.05) * 30)

    def test_sample_probability_caps_at_one(self):
        params = ProtocolParams(n=10, f=1, lam=50.0, d=0.05)
        assert params.sample_probability == 1.0

    @given(
        n=st.integers(10, 5000),
        f_frac=st.floats(0.0, 0.30),
        lam_frac=st.floats(0.05, 1.0),
        d=st.floats(0.001, 0.33, exclude_max=True),
    )
    def test_threshold_invariants(self, n, f_frac, lam_frac, d):
        f = int(f_frac * n)
        lam = max(1.0, lam_frac * n)
        params = ProtocolParams(n=n, f=f, lam=lam, d=d)
        W = params.committee_quorum
        B = params.committee_byzantine_bound
        # W > 2B: the quorum always out-votes twice the Byzantine bound --
        # this is what makes 'first value to reach W echoes' well defined.
        assert W > 2 * B
        # Intersection property shape (S5): two W-quorums inside a
        # committee of at most (1+d)λ overlap in more than B members.
        assert 2 * W - (1 + d) * lam > B

    def test_paper_example_thresholds(self):
        # λ = 8 ln n at n = 10^4, d mid-window: W/λ ≈ 2/3+3d, B/λ ≈ 1/3-d.
        params = ProtocolParams.from_paper(10_000)
        assert params.lam == pytest.approx(8 * math.log(10_000))
        assert params.committee_quorum / params.lam == pytest.approx(
            2 / 3 + 3 * params.d, abs=0.02
        )


class TestPaperWindows:
    def test_epsilon_window_shrinks_with_n(self):
        low_small, _ = paper_epsilon_window(100)
        low_big, _ = paper_epsilon_window(10**9)
        assert low_big < low_small
        assert low_big > 0.109  # the constant floor persists

    def test_epsilon_window_nonempty_for_large_n(self):
        low, high = paper_epsilon_window(10**6)
        assert low < high

    def test_d_window_matches_paper_constants(self):
        lam = 8 * math.log(10**6)
        low, high = paper_d_window(0.2, lam)
        assert low == pytest.approx(max(1 / lam, 0.0362))
        assert high == pytest.approx(0.2 / 3 - 1 / (3 * lam))

    def test_from_paper_large_n_satisfies_everything(self):
        params = ProtocolParams.from_paper(10**7)
        assert params.paper_violations() == []

    def test_from_paper_moderate_n_already_satisfiable(self):
        # The paper's windows are non-empty surprisingly early; what fails
        # at small n is *statistical concentration*, not the constraints.
        assert ProtocolParams.from_paper(50).paper_violations() == []

    def test_from_paper_tiny_n_reports_violations(self):
        params = ProtocolParams.from_paper(3)
        assert params.paper_violations()  # the epsilon window is empty

    def test_violations_mention_lambda_when_wrong(self):
        params = ProtocolParams(n=1000, f=100, lam=10.0, d=0.05)
        assert any("lam" in v for v in params.paper_violations())


class TestSimulationScale:
    def test_default_lambda_escalates_to_feasibility(self):
        params = ProtocolParams.simulation_scale(n=200, f=5)
        # At least the paper's 8 ln n, inflated until a 3-sigma d exists.
        assert params.lam >= 8 * math.log(200)
        assert params.lam <= 200
        assert params.d > 0

    def test_chooses_feasible_d(self, committee_params):
        # The fixture (n=60, f=4, lam=45) must leave the promised margins.
        p = committee_params.sample_probability
        mu_correct = (committee_params.n - committee_params.f) * p
        sigma = math.sqrt(mu_correct * (1 - p))
        assert committee_params.committee_quorum <= mu_correct - 3 * sigma + 1

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            ProtocolParams.simulation_scale(n=30, f=9, lam=10)

    def test_n_1_raises_instead_of_dividing_by_zero(self):
        # 8 ln 1 = 0: there is no lambda to climb from.
        with pytest.raises(ValueError, match="no feasible d for n=1"):
            ProtocolParams.simulation_scale(n=1, f=0)

    def test_explicit_d_passes_through(self):
        params = ProtocolParams.simulation_scale(n=100, f=2, lam=60, d=0.04)
        assert params.d == 0.04

    def test_lam_capped_at_n(self):
        params = ProtocolParams.simulation_scale(n=20, f=0, lam=500)
        assert params.lam == 20.0


class TestDescribe:
    def test_describe_full(self, committee_params):
        text = committee_params.describe()
        for token in ("n=60", "f=4", "W=", "B="):
            assert token in text

    def test_describe_quorum_only(self):
        text = ProtocolParams(n=10, f=2).describe()
        assert "W=" not in text
        assert "n=10" in text
