"""The trusted PKI setup."""

from __future__ import annotations

import random

import pytest

from repro.core.messages import OkMsg
from repro.crypto.pki import PKI
from repro.crypto.vrf import VRFOutput
from repro.sim.messages import admit


class TestCreation:
    def test_simulated_backend(self):
        pki = PKI.create(5, backend="simulated", rng=random.Random(0))
        assert pki.n == 5

    def test_ec_backend(self):
        pki = PKI.create(2, backend="ec", rng=random.Random(0))
        assert pki.n == 2

    def test_unknown_backend_rejected(self):
        for backend in ("rsa", "quantum"):
            with pytest.raises(ValueError) as info:
                PKI.create(3, backend=backend)
            assert str(info.value) == (
                f"unknown PKI backend {backend!r} (expected 'simulated' or 'ec')"
            )

    def test_rejects_empty_system(self):
        with pytest.raises(ValueError):
            PKI.create(0)


class TestKeyRouting:
    def test_vrf_verify_routes_to_right_key(self, small_pki):
        alpha = b"input"
        for pid in range(small_pki.n):
            output = small_pki.vrf_scheme.prove(small_pki.vrf_private(pid), alpha)
            assert small_pki.vrf_verify(pid, alpha, output)
            other = (pid + 1) % small_pki.n
            assert not small_pki.vrf_verify(other, alpha, output)

    def test_signature_verify_routes_to_right_key(self, small_pki):
        for pid in range(small_pki.n):
            sig = small_pki.signature_scheme.sign(
                small_pki.signature_private(pid), b"msg"
            )
            assert small_pki.signature_verify(pid, b"msg", sig)
            other = (pid + 1) % small_pki.n
            assert not small_pki.signature_verify(other, b"msg", sig)

    def test_out_of_range_pid_rejected(self, small_pki):
        output = small_pki.vrf_scheme.prove(small_pki.vrf_private(0), b"a")
        assert not small_pki.vrf_verify(small_pki.n, b"a", output)
        assert not small_pki.vrf_verify(-1, b"a", output)
        sig = small_pki.signature_scheme.sign(small_pki.signature_private(0), b"a")
        assert not small_pki.signature_verify(small_pki.n, b"a", sig)

    @pytest.mark.parametrize(
        "pid", [[0], "x", None, 1.0, True], ids=["list", "str", "none", "float", "bool"]
    )
    def test_non_int_pid_rejected_uncounted(self, small_pki, pid):
        """A Byzantine field naming a process never reaches a key lookup:
        anything but an exact ``int`` in ``[0, n)`` makes its message
        inadmissible, so it is no call."""
        output = small_pki.vrf_scheme.prove(small_pki.vrf_private(1), b"a")
        sig = small_pki.signature_scheme.sign(small_pki.signature_private(1), b"a")
        before = small_pki.verification_counters()

        def ok_citing(echo_sender):
            return OkMsg(
                "i", value=0, membership=output,
                justification=((echo_sender, output, sig),),
            )

        assert admit(ok_citing(1), small_pki.n)
        assert not admit(ok_citing(pid), small_pki.n)
        assert small_pki.verification_counters() == before

    def test_keys_are_distinct_across_processes(self, small_pki):
        values = {
            small_pki.vrf_scheme.prove(small_pki.vrf_private(pid), b"x").value
            for pid in range(small_pki.n)
        }
        assert len(values) == small_pki.n

    def test_same_rng_reproduces_keys(self):
        a = PKI.create(4, rng=random.Random(77))
        b = PKI.create(4, rng=random.Random(77))
        out_a = a.vrf_scheme.prove(a.vrf_private(2), b"x")
        out_b = b.vrf_scheme.prove(b.vrf_private(2), b"x")
        assert out_a.value == out_b.value


class TestECEndToEnd:
    def test_ec_vrf_through_pki(self, ec_pki):
        output = ec_pki.vrf_scheme.prove(ec_pki.vrf_private(1), b"round-0")
        assert isinstance(output, VRFOutput)
        assert ec_pki.vrf_verify(1, b"round-0", output)
        assert not ec_pki.vrf_verify(0, b"round-0", output)
