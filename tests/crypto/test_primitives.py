"""Tests for hashing, HKDF, and the deterministic DRBG."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.crypto.primitives import (
    DeterministicRandom,
    constant_time_equal,
    hkdf,
    hmac_sha256,
    sha256,
)


class TestSha256:
    def test_concatenation_equivalence(self):
        assert sha256(b"ab", b"cd") == sha256(b"abcd")

    def test_known_empty_digest(self):
        assert sha256().hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

    def test_distinct_inputs_distinct_digests(self):
        assert sha256(b"a") != sha256(b"b")


class TestHmac:
    def test_key_separates(self):
        assert hmac_sha256(b"k1", b"msg") != hmac_sha256(b"k2", b"msg")

    def test_message_separates(self):
        assert hmac_sha256(b"k", b"m1") != hmac_sha256(b"k", b"m2")

    def test_multi_part_concatenation(self):
        assert hmac_sha256(b"k", b"a", b"b") == hmac_sha256(b"k", b"ab")


class TestConstantTimeEqual:
    def test_equal(self):
        assert constant_time_equal(b"same", b"same")

    def test_unequal(self):
        assert not constant_time_equal(b"same", b"diff")

    def test_length_mismatch(self):
        assert not constant_time_equal(b"short", b"longer")


class TestHkdf:
    def test_length_control(self):
        for length in (1, 16, 32, 33, 64, 100):
            assert len(hkdf(b"ikm", b"info", length)) == length

    def test_info_separates_keys(self):
        assert hkdf(b"ikm", b"a") != hkdf(b"ikm", b"b")

    def test_salt_separates_keys(self):
        assert hkdf(b"ikm", b"i", salt=b"s1") != hkdf(b"ikm", b"i", salt=b"s2")

    def test_deterministic(self):
        assert hkdf(b"ikm", b"info") == hkdf(b"ikm", b"info")

    def test_prefix_property(self):
        assert hkdf(b"ikm", b"info", 64)[:32] == hkdf(b"ikm", b"info", 32)

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            hkdf(b"ikm", b"info", 0)
        with pytest.raises(ValueError):
            hkdf(b"ikm", b"info", 255 * 32 + 1)


class TestDeterministicRandom:
    def test_reproducible_from_seed(self):
        a = DeterministicRandom(b"seed")
        b = DeterministicRandom(b"seed")
        assert a.bytes(100) == b.bytes(100)

    def test_different_seeds_diverge(self):
        assert (DeterministicRandom(b"s1").bytes(32)
                != DeterministicRandom(b"s2").bytes(32))

    def test_stream_advances(self):
        rng = DeterministicRandom(b"seed")
        assert rng.bytes(32) != rng.bytes(32)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRandom(b"")

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRandom(b"s").bytes(-1)

    def test_fork_independence(self):
        rng = DeterministicRandom(b"seed")
        child_a = rng.fork(b"a")
        child_b = rng.fork(b"b")
        assert child_a.bytes(32) != child_b.bytes(32)

    def test_fork_does_not_consume_parent_stream(self):
        plain = DeterministicRandom(b"seed")
        forked = DeterministicRandom(b"seed")
        forked.fork(b"child")
        assert plain.bytes(32) == forked.bytes(32)

    @given(st.integers(-1000, 1000), st.integers(0, 500))
    def test_randint_in_range(self, low, span):
        rng = DeterministicRandom(b"hyp")
        value = rng.randint(low, low + span)
        assert low <= value <= low + span

    def test_randint_invalid_range(self):
        with pytest.raises(ValueError):
            DeterministicRandom(b"s").randint(5, 4)

    def test_randint_covers_range(self):
        rng = DeterministicRandom(b"cover")
        seen = {rng.randint(0, 3) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_random_unit_interval(self):
        rng = DeterministicRandom(b"float")
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    def test_expovariate_mean(self):
        rng = DeterministicRandom(b"exp")
        samples = [rng.expovariate(10.0) for _ in range(5000)]
        mean = sum(samples) / len(samples)
        assert math.isclose(mean, 0.1, rel_tol=0.1)

    def test_expovariate_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            DeterministicRandom(b"s").expovariate(0.0)

    def test_choice(self):
        rng = DeterministicRandom(b"choice")
        items = ["a", "b", "c"]
        assert rng.choice(items) in items

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRandom(b"s").choice([])

    def test_shuffle_is_permutation(self):
        rng = DeterministicRandom(b"shuffle")
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity


class TestKnownAnswers:
    """Outputs pinned as hex: the DRBG and HKDF streams feed every key and
    nonce in the simulation, so they must never change."""

    def test_drbg_stream(self):
        rng = DeterministicRandom(b"kat-drbg")
        assert rng.bytes(100).hex() == (
            "89828410fc7ff3637a06a029dcbefa946d866acdea956682fa1fb0618b2112a0"
            "88b6ad99e4989b8291a12a8dac477446c3722b748e5559563b0679bb4d13b5aa"
            "0b4b3ec77f6d131b60f55fec58937153c9639463b80d928523c0b3e2e0a93106"
            "3cc2f627")
        # A short draw still consumes whole blocks: the next call starts at
        # the following counter.
        assert rng.bytes(5).hex() == "bdd5c285c7"
        assert rng.bytes(40).hex() == (
            "f4d6d077c7b640c47c814981cd27e3d702ec274e0f8bafa3fe13a13d134a6250"
            "c02b657245f8b610")

    def test_drbg_draw_sizes(self):
        # Around the one-block boundary; an empty draw consumes no block.
        rng = DeterministicRandom(b"kat-drbg-draws")
        assert [rng.bytes(n).hex() for n in (0, 1, 31, 32, 33)] == [
            "",
            "f6",
            "8e20a08ace3abd77d2180daec4945f6f70d11d076900f85f488f0dc3df7de3",
            "806d91b1bab8245d7478585f1888daf57aa9ee98e390c3f89f18f3284a0f051c",
            "4fc4093859c01d2e6276d0e63782705ba16cd69f08a4d5dc9170f9c99ddee6ec"
            "68"]

    def test_drbg_derived_draws(self):
        rng = DeterministicRandom(b"kat-drbg-draws")
        assert rng.randint(0, 99) == 42
        assert repr(rng.random()) == "0.501671892062149"
        assert repr(rng.expovariate(250000.0)) == "1.4934538299975635e-06"
        assert rng.randint(10**20, 10**21) == 231194780917594824149

    def test_hkdf(self):
        assert hkdf(b"kat-ikm", b"kat-info", 64, salt=b"kat-salt").hex() == (
            "e02838d75bb94332f67458f00532311894d09b38a6248939586c53f1233a53db"
            "ea71c475adc5ab550495d7575cfead7acef89c12bfc40afded9b7a6f5fe7e520")
