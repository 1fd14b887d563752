"""Canonical encoding and hashing: unambiguity is load-bearing for every
protocol transcript, so it gets property-based coverage."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import (
    derive_seed,
    encode,
    hash_to_int,
    hmac_sha256,
    is_canonical,
    sha256,
    tagged_hash,
)

# Values the canonical encoding supports, nested up to depth 3.
atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**130), max_value=2**130),
    st.text(max_size=40),
    st.binary(max_size=40),
)
values = st.recursive(atoms, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=12)

# The protocols' value domain, drawn from few atoms so that equal pairs
# are common.
canonical_values = st.recursive(
    st.one_of(
        st.none(), st.integers(-2, 2), st.sampled_from(("", "a")),
        st.sampled_from((b"", b"a")),
    ),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


def _holds_a_bool(value):
    if type(value) is tuple:
        return any(map(_holds_a_bool, value))
    return type(value) is bool


class TestEncode:
    def test_deterministic(self):
        assert encode(1, "a", b"b") == encode(1, "a", b"b")

    def test_type_distinguishes_int_from_str(self):
        assert encode(5) != encode("5")

    def test_type_distinguishes_bytes_from_str(self):
        assert encode("ab") != encode(b"ab")

    def test_bool_is_not_int(self):
        assert encode(True) != encode(1)
        assert encode(False) != encode(0)

    def test_none_is_distinct_from_empties(self):
        assert encode(None) != encode("")
        assert encode(None) != encode(0)
        assert encode(None) != encode(())

    def test_nesting_matters(self):
        assert encode((1, 2), 3) != encode(1, (2, 3))
        assert encode((1,), (2,)) != encode((1, 2))

    def test_negative_ints(self):
        assert encode(-1) != encode(1)
        assert encode(-(2**64)) != encode(2**64)

    def test_empty_string_vs_empty_bytes(self):
        assert encode("") != encode(b"")

    def test_list_and_tuple_encode_alike(self):
        assert encode([1, 2]) == encode((1, 2))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            encode(object())

    def test_float_rejected(self):
        # Floats are deliberately unsupported: protocol transcripts must
        # never depend on float formatting.
        with pytest.raises(TypeError):
            encode(1.5)

    @given(values, values)
    def test_injective_on_pairs(self, a, b):
        if encode(a) == encode(b):
            assert a == b

    @given(st.lists(values, max_size=5), st.lists(values, max_size=5))
    def test_injective_on_argument_lists(self, xs, ys):
        if encode(*xs) == encode(*ys):
            assert tuple(xs) == tuple(ys)


class TestCanonicalDomain:
    @given(canonical_values, canonical_values)
    def test_equal_canonical_values_encode_alike(self, a, b):
        """Why a memo keyed by a canonical value (``committee_seed``,
        ``echo_signing_bytes``, ``coin_value_alpha``) is sound: ``==``
        on the domain is type-exact."""
        assert is_canonical(a) and is_canonical(b)
        if a == b:
            assert encode(a) == encode(b)

    @given(values)
    def test_the_domain_is_the_encodable_values_without_bools(self, value):
        assert is_canonical(value) is not _holds_a_bool(value)

    @pytest.mark.parametrize(
        "outside, inside",
        [(True, 1), (False, 0), (1.0, 1), (bytearray(b"a"), b"a"),
         (("d", True), ("d", 1))],
    )
    def test_equal_values_outside_the_domain(self, outside, inside):
        assert is_canonical(inside) and not is_canonical(outside)
        assert outside == inside


class TestHashing:
    def test_sha256_known_vector(self):
        # SHA-256 of the empty string, from FIPS 180-4.
        assert (
            sha256(b"").hex()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_tagged_hash_separates_domains(self):
        assert tagged_hash("a", 1) != tagged_hash("b", 1)

    def test_tagged_hash_depends_on_parts(self):
        assert tagged_hash("a", 1) != tagged_hash("a", 2)

    def test_hash_to_int_range_default(self):
        value = hash_to_int("t", 1)
        assert 0 <= value < 2**256

    @pytest.mark.parametrize("bits", [1, 8, 64, 255, 256, 300, 768])
    def test_hash_to_int_range(self, bits):
        for part in range(20):
            assert 0 <= hash_to_int("t", part, bits=bits) < 2**bits

    def test_hash_to_int_deterministic(self):
        assert hash_to_int("t", "x", bits=128) == hash_to_int("t", "x", bits=128)

    def test_hash_to_int_bits_change_value(self):
        assert hash_to_int("t", 1, bits=64) != hash_to_int("t", 1, bits=65)

    def test_hash_to_int_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            hash_to_int("t", 1, bits=0)

    def test_hash_to_int_single_bit_varies(self):
        bits = {hash_to_int("t", i, bits=1) for i in range(64)}
        assert bits == {0, 1}

    def test_hmac_differs_by_key(self):
        assert hmac_sha256(b"k1", b"m") != hmac_sha256(b"k2", b"m")

    def test_hmac_differs_by_message(self):
        assert hmac_sha256(b"k", b"m1") != hmac_sha256(b"k", b"m2")


class TestDeriveSeed:
    def test_in_64_bit_range(self):
        assert 0 <= derive_seed("a", 1) < 2**64

    def test_deterministic(self):
        assert derive_seed(7, "process", 3) == derive_seed(7, "process", 3)

    def test_distinct_streams(self):
        assert derive_seed(7, "process", 3) != derive_seed(7, "process", 4)
        assert derive_seed(7, "process", 3) != derive_seed(7, "sched", 3)

    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    def test_no_trivial_collisions(self, a, b):
        if a != b:
            assert derive_seed("s", a) != derive_seed("s", b)
