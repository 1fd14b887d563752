"""End-to-end runs over the *real* crypto backend (small n).

Everything else in the suite uses the fast simulated backend; these tests
pin that the genuine secp256k1 ECVRF + Schnorr paths drive the same
protocol logic.
"""

from __future__ import annotations

import random

import pytest

from repro.core.agreement import byzantine_agreement
from repro.core.approver import approve
from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.crypto.pki import PKI
from repro.experiments.protocols import make_runner
from repro.sim.runner import RunResult, run_protocol, stop_when_all_decided

from tests.integration.test_cached_kernel_equivalence import observable


@pytest.fixture(scope="module")
def pki_8():
    return PKI.create(8, backend="ec", rng=random.Random(500))


class TestRealCryptoPaths:
    def test_shared_coin_over_ec(self, pki_8):
        params = ProtocolParams(n=8, f=1)
        result = run_protocol(
            8, 1, lambda ctx: shared_coin(ctx, 0), corrupt={0},
            pki=pki_8, params=params, seed=1,
        )
        assert result.live
        assert len(result.returned_values) == 1
        assert result.returned_values <= {0, 1}

    def test_approver_over_ec(self, pki_8):
        # Fat committees (lam = n) so tiny n stays live.
        params = ProtocolParams(n=8, f=0, lam=8.0, d=0.05)
        result = run_protocol(
            8, 0, lambda ctx: approve(ctx, ("ec-approve",), 1, params),
            pki=pki_8, params=params, seed=2,
        )
        assert result.live
        assert result.returned_values == {frozenset({1})}

    def test_agreement_over_ec(self, pki_8):
        params = ProtocolParams(n=8, f=0, lam=8.0, d=0.05)
        result = run_protocol(
            8, 0, lambda ctx: byzantine_agreement(ctx, ctx.pid % 2, params),
            pki=pki_8, params=params,
            stop_condition=stop_when_all_decided, seed=3,
        )
        assert result.live
        assert result.all_correct_decided
        assert result.agreement


def run_ba_over_ec(value_fn, verify_cache: bool = True) -> RunResult:
    """``whp_ba`` at n = 8, f = 1 (pid 0 silent) over ECVRF + Schnorr."""
    factory, params, f = make_runner("whp_ba", 8, seed=3, value_fn=value_fn)
    pki = PKI.create(8, backend="ec", rng=random.Random(71), verify_cache=verify_cache)
    return run_protocol(
        8, f, factory, corrupt=set(range(f)), pki=pki, params=params,
        stop_condition=stop_when_all_decided, seed=3,
    )


class TestAgreementOverEC:
    """The paper's VRF-validated construction, run for real in tier-1."""

    @pytest.fixture(scope="class")
    def unanimous(self) -> RunResult:
        return run_ba_over_ec(lambda ctx: 1)

    def test_split_inputs_reach_agreement(self):
        result = run_ba_over_ec(lambda ctx: ctx.pid % 2)
        assert result.live
        assert result.all_correct_decided
        assert result.agreement
        assert result.decided_values <= {0, 1}

    def test_unanimous_input_is_the_decision(self, unanimous):
        assert unanimous.live
        assert unanimous.all_correct_decided
        assert unanimous.decided_values == {1}  # Validity (and Agreement)
        assert unanimous.metrics.verification_cache_hits > 0

    def test_verify_cache_does_not_change_the_run(self, unanimous):
        """``verify_cache=False`` performs every verification in full."""
        uncached = run_ba_over_ec(lambda ctx: 1, verify_cache=False)
        assert uncached.metrics.verification_cache_hits == 0
        assert observable(uncached) == observable(unanimous)
