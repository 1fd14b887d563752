"""Micro-benchmarks for the cryptographic and simulation substrate.

Not a paper artefact -- these exist so regressions in the hot paths (VRF
evaluation dominates committee protocols; the kernel's delivery loop
dominates everything) are visible in benchmark history.
"""

from __future__ import annotations

import random

from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.crypto.shamir import reconstruct_secret, split_secret
from repro.crypto.signatures import SchnorrSignatureScheme
from repro.crypto.threshold import ThresholdCoinDealer
from repro.crypto.vrf import ECVRF, SimulatedVRF
from repro.sim.runner import run_protocol


def test_simulated_vrf_prove(benchmark):
    scheme = SimulatedVRF()
    sk, _ = scheme.keygen(random.Random(2))
    benchmark(lambda: scheme.prove(sk, b"round-7"))


def test_simulated_vrf_verify(benchmark):
    scheme = SimulatedVRF()
    sk, pk = scheme.keygen(random.Random(3))
    output = scheme.prove(sk, b"round-7")
    benchmark(lambda: scheme.verify(pk, b"round-7", output))


def test_ecvrf_prove(benchmark):
    scheme = ECVRF()
    sk, _ = scheme.keygen(random.Random(7))
    benchmark(lambda: scheme.prove(sk, b"round-7"))


def test_ecvrf_verify(benchmark):
    scheme = ECVRF()
    sk, pk = scheme.keygen(random.Random(8))
    output = scheme.prove(sk, b"round-7")
    assert benchmark(lambda: scheme.verify(pk, b"round-7", output))


def test_schnorr_sign(benchmark):
    scheme = SchnorrSignatureScheme()
    sk, _ = scheme.keygen(random.Random(9))
    benchmark(lambda: scheme.sign(sk, b"message"))


def test_schnorr_verify(benchmark):
    scheme = SchnorrSignatureScheme()
    sk, pk = scheme.keygen(random.Random(10))
    signature = scheme.sign(sk, b"message")
    assert benchmark(lambda: scheme.verify(pk, b"message", signature))


def test_shamir_split_reconstruct(benchmark):
    rng = random.Random(5)

    def roundtrip():
        shares = split_secret(123456789, threshold=11, num_shares=31, rng=rng)
        return reconstruct_secret(shares[:11])

    assert benchmark(roundtrip) == 123456789


def test_threshold_coin_combine(benchmark):
    dealer = ThresholdCoinDealer(n=31, threshold=11, rng=random.Random(6))
    shares = {pid: dealer.coin_share(pid, 0) for pid in range(11)}
    benchmark(lambda: dealer.combine(shares, 0))


def test_kernel_shared_coin_n32(benchmark):
    """One full Algorithm 1 instance at n=32: ~4k envelope deliveries."""
    params = ProtocolParams(n=32, f=5)
    counter = iter(range(10**9))

    def run_once():
        return run_protocol(
            32, 5, lambda ctx: shared_coin(ctx, 0),
            corrupt={0, 1, 2, 3, 4}, params=params, seed=next(counter),
        )

    result = benchmark(run_once)
    assert result.live
