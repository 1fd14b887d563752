"""secp256k1 arithmetic and the ECVRF / Schnorr constructions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec
from repro.crypto.pki import PKI
from repro.crypto.signatures import SchnorrSignatureScheme
from repro.crypto.vrf import ECVRF, VRFOutput

N = ec.CURVE_ORDER
G = ec.GENERATOR


def negate(point: ec.Point) -> ec.Point:
    return ec.Point(point.x, ec.FIELD_P - point.y)


def reference_scalar_mult(k: int, point: ec.Point) -> ec.Point:
    """The affine double-and-add ``ec.scalar_mult`` used to be.

    Built on :func:`ec.point_add` alone (one inversion per step), it is the
    oracle the Jacobian kernel is compared against point for point.
    """
    k %= N
    result = ec.INFINITY
    addend = point
    while k:
        if k & 1:
            result = ec.point_add(result, addend)
        addend = ec.point_add(addend, addend)
        k >>= 1
    return result


EDGE_SCALARS = [0, 1, 2, 15, 16, 17, N - 1, N, N + 1, 2**255, -1]
RANDOM_POINT = reference_scalar_mult(0xC0FFEE, ec.hash_to_point(b"random point"))
BASES = {
    "G": G, "-G": negate(G), "random": RANDOM_POINT, "-random": negate(RANDOM_POINT),
    "infinity": ec.INFINITY,
}


class TestKernelAgainstReference:
    """The windowed Jacobian kernel vs. affine double-and-add."""

    @pytest.mark.parametrize("base", BASES)
    def test_edge_scalars(self, base):
        point = BASES[base]
        for k in EDGE_SCALARS:
            assert ec.scalar_mult(k, point) == reference_scalar_mult(k, point), k

    @given(st.integers(0, 2**256 - 1), st.sampled_from(sorted(BASES)))
    @settings(max_examples=25, deadline=None)
    def test_random_scalars(self, k, base):
        point = BASES[base]
        assert ec.scalar_mult(k, point) == reference_scalar_mult(k, point)

    @given(st.integers(0, 2**256 - 1), st.integers(0, 2**128 - 1),
           st.sampled_from(sorted(BASES)), st.sampled_from(sorted(BASES)))
    @settings(max_examples=25, deadline=None)
    def test_lincomb2_random(self, a, b, p_name, q_name):
        p, q = BASES[p_name], BASES[q_name]
        expected = ec.point_add(reference_scalar_mult(a, p), reference_scalar_mult(b, q))
        assert ec.lincomb2(a, p, b, q) == expected

    @pytest.mark.parametrize("a, b", [(0, 0), (0, 7), (7, 0), (1, 1), (N - 1, 1),
                                      (5, N - 5), (2**255, 2**127), (N, N + 3)])
    @pytest.mark.parametrize("p_name, q_name", [
        ("G", "G"), ("G", "-G"), ("random", "random"), ("random", "-random"),
        ("random", "G"), ("G", "infinity"), ("infinity", "random"),
    ])
    def test_lincomb2_exceptional_cases(self, a, b, p_name, q_name):
        """a = 0, b = 0, P = Q and P = -Q (sums that cancel to infinity)."""
        p, q = BASES[p_name], BASES[q_name]
        expected = ec.point_add(reference_scalar_mult(a, p), reference_scalar_mult(b, q))
        assert ec.lincomb2(a, p, b, q) == expected

    def test_accumulator_meets_its_own_addend_mid_ladder(self):
        # (1, P; 1, P) adds P to an accumulator that *is* P (the doubling
        # fallback); (16, P; N-16, P) cancels to infinity on the last add.
        p = RANDOM_POINT
        assert ec.lincomb2(1, p, 1, p) == ec.point_add(p, p)
        assert ec.lincomb2(16, p, N - 16, p).is_infinity

    def test_results_are_on_curve_points(self):
        assert ec.is_on_curve(ec.scalar_mult(0xDEADBEEF, RANDOM_POINT))
        assert ec.scalar_mult(0, RANDOM_POINT) is ec.INFINITY

    @pytest.mark.parametrize("bad", [
        ec.Point(1, 1), ec.Point(G.x, G.y ^ 1), ec.Point(None, 5), ec.Point(5, None),
    ])
    def test_off_curve_base_is_refused(self, bad):
        with pytest.raises(ValueError):
            ec.scalar_mult(3, bad)
        with pytest.raises(ValueError):
            ec.lincomb2(3, G, 4, bad)

    def test_public_key_is_the_fixed_base_multiple(self):
        assert ec.public_key(0xABCDEF) == reference_scalar_mult(0xABCDEF, G)

    def test_generator_table_is_built_on_first_use_not_at_import(self):
        """The simulated backends must not pay for (or even import) the table."""
        import os
        import subprocess
        import sys

        script = (
            "import sys, repro.crypto\n"
            "assert 'repro.crypto.ec' not in sys.modules\n"
            "from repro.crypto import ec\n"
            "assert ec._generator_table.cache_info().currsize == 0\n"
            "ec.scalar_mult(5, ec.GENERATOR)\n"
            "assert ec._generator_table.cache_info().currsize == 1\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", script], check=True, timeout=60, env=env)


class TestCurveArithmetic:
    def test_generator_on_curve(self):
        assert ec.is_on_curve(ec.GENERATOR)

    def test_infinity_is_identity(self):
        assert ec.point_add(ec.GENERATOR, ec.INFINITY) == ec.GENERATOR
        assert ec.point_add(ec.INFINITY, ec.GENERATOR) == ec.GENERATOR

    def test_inverse_sums_to_infinity(self):
        negated = ec.Point(ec.GENERATOR.x, ec.FIELD_P - ec.GENERATOR.y)
        assert ec.point_add(ec.GENERATOR, negated).is_infinity

    def test_doubling_matches_addition_chain(self):
        two_g = ec.point_add(ec.GENERATOR, ec.GENERATOR)
        three_g = ec.point_add(two_g, ec.GENERATOR)
        assert ec.scalar_mult(2, ec.GENERATOR) == two_g
        assert ec.scalar_mult(3, ec.GENERATOR) == three_g
        assert ec.is_on_curve(three_g)

    def test_order_annihilates_generator(self):
        assert ec.scalar_mult(ec.CURVE_ORDER, ec.GENERATOR).is_infinity

    @given(st.integers(1, 2**128), st.integers(1, 2**128))
    @settings(max_examples=10)
    def test_scalar_mult_is_homomorphic(self, a, b):
        left = ec.scalar_mult(a + b, ec.GENERATOR)
        right = ec.point_add(
            ec.scalar_mult(a, ec.GENERATOR), ec.scalar_mult(b, ec.GENERATOR)
        )
        assert left == right

    def test_known_vector_2g(self):
        # 2*G for secp256k1, a published test vector.
        two_g = ec.scalar_mult(2, ec.GENERATOR)
        assert two_g.x == int(
            "C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5", 16
        )
        assert two_g.y == int(
            "1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A", 16
        )

    def test_known_vector_3g(self):
        three_g = ec.scalar_mult(3, ec.GENERATOR)
        assert three_g.x == int(
            "F9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9", 16
        )
        assert three_g.y == int(
            "388F7B0F632DE8140FE337E62A37F3566500A99934C2231B6CB9FD7584B8E672", 16
        )

    def test_known_vector_order_minus_one(self):
        # (N-1)·G = -G: same x as G, y negated (published as the last
        # entry of the usual secp256k1 multiples table).
        last = ec.scalar_mult(N - 1, ec.GENERATOR)
        assert last.x == G.x
        assert last.y == int(
            "B7C52588D95C3B9AA25B0403F1EEF75702E84BB7597AABE663B82F6F04EF2777", 16
        )

    def test_half_none_points_are_not_curve_points(self):
        assert ec.is_on_curve(ec.INFINITY)
        assert not ec.is_on_curve(ec.Point(None, 5))
        assert not ec.is_on_curve(ec.Point(5, None))

    def test_compressed_encoding_distinguishes_parity(self):
        point = ec.scalar_mult(5, ec.GENERATOR)
        mirrored = ec.Point(point.x, ec.FIELD_P - point.y)
        assert point.encode() != mirrored.encode()
        assert point.encode()[0] in (2, 3)


class TestHashToPoint:
    def test_lands_on_curve(self):
        for i in range(10):
            assert ec.is_on_curve(ec.hash_to_point(str(i).encode()))

    def test_deterministic(self):
        assert ec.hash_to_point(b"a") == ec.hash_to_point(b"a")

    def test_input_sensitive(self):
        assert ec.hash_to_point(b"a") != ec.hash_to_point(b"b")


class TestECVRF:
    @pytest.fixture(scope="class")
    def keys(self):
        return ECVRF().keygen(random.Random(61))

    def test_roundtrip(self, keys):
        scheme = ECVRF()
        sk, pk = keys
        output = scheme.prove(sk, b"alpha")
        assert scheme.verify(pk, b"alpha", output)

    def test_uniqueness_and_binding(self, keys):
        scheme = ECVRF()
        sk, pk = keys
        output = scheme.prove(sk, b"alpha")
        assert scheme.prove(sk, b"alpha") == output  # deterministic
        assert not scheme.verify(pk, b"beta", output)
        assert not scheme.verify(
            pk, b"alpha", VRFOutput(value=output.value ^ 1, proof=output.proof)
        )

    def test_gamma_must_be_on_curve(self, keys):
        scheme = ECVRF()
        sk, pk = keys
        output = scheme.prove(sk, b"alpha")
        gx, gy, c, s = output.proof
        forged = VRFOutput(value=output.value, proof=(gx, gy ^ 1, c, s))
        assert not scheme.verify(pk, b"alpha", forged)

    def test_malformed_proofs_rejected(self, keys):
        scheme = ECVRF()
        _, pk = keys
        assert not scheme.verify(pk, b"a", VRFOutput(value=0, proof=b"bytes"))
        assert not scheme.verify(pk, b"a", VRFOutput(value=0, proof=(1, 2, 3)))
        assert not scheme.verify(pk, b"a", VRFOutput(value=0, proof=(1, 2, 3, "s")))

    def test_wrong_public_key_rejected(self, keys):
        scheme = ECVRF()
        sk, _ = keys
        _, other_pk = scheme.keygen(random.Random(62))
        output = scheme.prove(sk, b"alpha")
        assert not scheme.verify(other_pk, b"alpha", output)

    def test_scalar_malleability_rejected(self, keys):
        """(Γ, c, s ± N) names the same transcript; only s in [0, N) verifies."""
        scheme = ECVRF()
        sk, pk = keys
        output = scheme.prove(sk, b"alpha")
        gx, gy, c, s = output.proof
        for proof in [(gx, gy, c, s + N), (gx, gy, c, s - N), (gx, gy, c, s + 2 * N),
                      (gx, gy, c + 2**128, s), (gx, gy, c - 2**128, s), (gx, gy, -c, s)]:
            forged = VRFOutput(value=output.value, proof=proof)
            assert not scheme.verify(pk, b"alpha", forged), proof

    def test_identity_public_key_rejected(self, keys):
        scheme = ECVRF()
        sk, _ = keys
        output = scheme.prove(sk, b"alpha")
        assert not scheme.verify(ec.INFINITY, b"alpha", output)
        assert not scheme.verify(ec.Point(None, 5), b"alpha", output)
        assert not scheme.verify(ec.Point(5, None), b"alpha", output)

    def test_key_on_the_generator_verifies(self):
        """pk = ±G puts P = ±Q inside the verifier's two-term combination."""
        scheme = ECVRF()
        for sk in (1, N - 1):
            pk = ec.public_key(sk)
            output = scheme.prove(sk, b"alpha")
            assert scheme.verify(pk, b"alpha", output)
            assert not scheme.verify(pk, b"beta", output)

    def test_frozen_proof(self, keys):
        """Captured from the affine implementation: the backend is byte-identical."""
        sk, pk = keys
        assert sk == 0x4B17653E5213DCB1E8337BE0CF4B4D1F377E6FF88E8359612E843B2C7E96BA88
        assert pk == ec.Point(
            0x74FEB663068CFA3A9AA0E449C8B5F3F098121EEA9ADD28C3EE28150169B5D159,
            0x4F9EE377141EDA403412D82BF3EF14E3222B1984186DAC697793EE9F50D0AB40,
        )
        output = ECVRF().prove(sk, b"alpha")
        assert output.value == (
            0xCDAB9D790CA95FB66D26285A750CA0E6BC63CAC70D3DDC8617E528EADF3D8A9A
        )
        assert output.proof == (
            0x73B50F49EF8A70217DB3FE5F4C56BDD14AB2D48660BF8FF7DCAD4E384E004526,
            0x986BB12579BB3A388A30419D18FAB26BF56CF09CDE6CC93EB7649C7ED1F91E61,
            0x77FAC77EAC775A5F5ABD8E4DB34F1D4F,
            0xD1E14EFCEB4B487ECE558D22E1CE821D61948C0C59902EB2A5F034E62B1F7C63,
        )
        assert ECVRF().verify(pk, b"alpha", output)


class TestSchnorr:
    @pytest.fixture(scope="class")
    def keys(self):
        return SchnorrSignatureScheme().keygen(random.Random(63))

    def test_roundtrip(self, keys):
        scheme = SchnorrSignatureScheme()
        sk, pk = keys
        signature = scheme.sign(sk, b"message")
        assert scheme.verify(pk, b"message", signature)

    def test_binding(self, keys):
        scheme = SchnorrSignatureScheme()
        sk, pk = keys
        signature = scheme.sign(sk, b"message")
        assert not scheme.verify(pk, b"other", signature)
        _, other_pk = scheme.keygen(random.Random(64))
        assert not scheme.verify(other_pk, b"message", signature)

    def test_s_tampering_rejected(self, keys):
        scheme = SchnorrSignatureScheme()
        sk, pk = keys
        r_x, r_y, s = scheme.sign(sk, b"message")
        assert not scheme.verify(pk, b"message", (r_x, r_y, s + 1))

    def test_malformed_rejected(self, keys):
        scheme = SchnorrSignatureScheme()
        _, pk = keys
        assert not scheme.verify(pk, b"m", None)
        assert not scheme.verify(pk, b"m", (1, 2))

    def test_scalar_malleability_rejected(self, keys):
        scheme = SchnorrSignatureScheme()
        sk, pk = keys
        r_x, r_y, s = scheme.sign(sk, b"message")
        for shifted in (s + N, s - N, s + 2 * N):
            assert not scheme.verify(pk, b"message", (r_x, r_y, shifted)), shifted

    def test_identity_public_key_rejected(self):
        """Under pk = infinity, (R = s·G, s) would verify for *any* message."""
        scheme = SchnorrSignatureScheme()
        five_g = ec.scalar_mult(5, G)
        forged = (five_g.x, five_g.y, 5)
        assert not scheme.verify(ec.INFINITY, b"anything", forged)
        assert not scheme.verify(ec.Point(None, 5), b"anything", forged)
        assert not scheme.verify(ec.Point(5, None), b"anything", forged)

    def test_key_on_the_generator_verifies(self):
        scheme = SchnorrSignatureScheme()
        for sk in (1, N - 1):
            pk = ec.public_key(sk)
            signature = scheme.sign(sk, b"message")
            assert scheme.verify(pk, b"message", signature)
            assert not scheme.verify(pk, b"other", signature)

    def test_frozen_signature(self, keys):
        """Captured from the affine implementation: the backend is byte-identical."""
        sk, pk = keys
        assert sk == 0xA8E9F01D7BFB802440C01E4BE8D054B6EE34CF804B4961F171B9016371F4A4E5
        assert pk == ec.Point(
            0x7F38F5CD78A057D26849EE0D0CB7622EA16B4CE95B15E555322D76600C07A855,
            0x70BA96FA58E203A6EFE945FA69B19D21E1D9F522D9B58833E70A6D59D26264F9,
        )
        signature = SchnorrSignatureScheme().sign(sk, b"message")
        assert signature == (
            0x134CD1CF38C2244D0D59F65650D7CCF453DD990A54612DB222F553D24837B672,
            0xAED95E294538B6B4DF7594A7345EC648F0B42F74738F1478B6B06D020169CC06,
            0xCBA817816972F91F21FF36168FD9CFF18458EE5C2ED3EBA89947AD00BC2CDC42,
        )
        assert SchnorrSignatureScheme().verify(pk, b"message", signature)


# (vrf_pk.x, vrf_pk.y, sig_pk.x, sig_pk.y) per process of
# ``PKI.create(4, "ec", Random(70))``, captured from the affine implementation.
FROZEN_PKI_KEYS = [
    (0xCC3DFA4BAE70E4DB336245D0BA7D68A3D112953729AD8C257BB631763E5169ED,
     0xD7AF656CF8ADC0A7263E7BA7D8819C4D4AB4FC6428707D06D92A11B28057BCA6,
     0x24AE59481843D114A53ED81ECAC92F20375278A2C8B922F35629DBA420AF7702,
     0x3B2712A328FBE514E12A01B0805B46E95B47BF2A67C1E7E2497C45204FFCC6CD),
    (0x4C30C8F0D5F191362537C32728D930A5194350142EC39BEE306495E6D4264FC1,
     0x6AF009E0A8182E3112212211B06283DDDA814C1598BAD2BC54886573CD90AA56,
     0x5DBEE8319C4C2531761565EF5DD3138898CBF249D3899E8EAB906D9A694579BF,
     0x33A34FE6314B4C1342F42DB6E6CED0234E33B28F57908840BDD16883E0D59FFD),
    (0xC5DF476412D80670669DCF194ACFE8A1D3D6BE494C20D110C4FE6A56686F4F70,
     0xA256E207E77948606E599951BAB0607437BBBB532F6077263AF9900C242E3412,
     0x41A70A9900D6AC98242EB9AE86DF873BAAD32589959B345799FFF42C1A93FF43,
     0x2C88DF1842EB085827780F0B9183F5076E25E6ADAA6F77870B15BF2D50C03CE3),
    (0xC8659727C398C8DCCCCCE92A959D8E053E9E6EC0CC889B69D46AEBDA5BEE20DA,
     0x2D685D0E38F91BB589D5266B7203E783DD56836BB10CC1FE5DCD8A52728749D8,
     0x59BFCBE90CA4E8E387431A3DD22882344C4579B1837BF01644A2C85B003FB3D8,
     0x4FE8C1BA4AF276C4D4C3FC667031D6D7369221764C5F5A3A98BC2E037081789B),
]


class TestECPKIEndToEnd:
    def test_frozen_pki_public_keys(self):
        pki = PKI.create(4, "ec", random.Random(70))
        keys = [
            (pki.vrf_public(i).x, pki.vrf_public(i).y,
             pki.signature_public(i).x, pki.signature_public(i).y)
            for i in range(4)
        ]
        assert keys == FROZEN_PKI_KEYS

    def test_shared_coin_over_ec(self):
        """The full protocol stack over the genuine elliptic-curve VRF."""
        from repro.core.params import ProtocolParams
        from repro.core.shared_coin import shared_coin
        from repro.crypto.pki import PKI
        from repro.sim.runner import run_protocol

        n = 5
        pki = PKI.create(n, backend="ec", rng=random.Random(70))
        result = run_protocol(
            n, 0, lambda ctx: shared_coin(ctx, 0),
            pki=pki, params=ProtocolParams(n=n, f=0), seed=70,
        )
        assert result.live
        assert len(result.returned_values) == 1
        assert result.returned_values <= {0, 1}
