"""Unit tests for the pairwise-independent hash family."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.hashing import (
    DIGEST_BITS,
    HashFamily,
    PairwiseIndependentHash,
    key_digest,
)


class TestKeyDigest:
    def test_digest_is_deterministic(self):
        assert key_digest("hello") == key_digest("hello")

    def test_digest_fits_in_declared_bits(self):
        assert 0 <= key_digest("anything") < (1 << DIGEST_BITS)

    def test_distinct_keys_have_distinct_digests(self):
        assert key_digest("key-a") != key_digest("key-b")

    def test_int_and_str_keys_digest_differently(self):
        assert key_digest(1) != key_digest("1")

    def test_bool_and_int_keys_digest_differently(self):
        assert key_digest(True) != key_digest(1)

    def test_bytes_keys_supported(self):
        assert key_digest(b"payload") == key_digest(b"payload")
        assert key_digest(b"payload") != key_digest("payload")

    def test_tuple_keys_supported(self):
        assert key_digest(("a", 1)) == key_digest(("a", 1))
        assert key_digest(("a", 1)) != key_digest(("a", 2))


class TestPairwiseIndependentHash:
    def test_output_within_space(self):
        fn = PairwiseIndependentHash(name="h", a=12345, b=678, bits=16)
        for key in ("a", "b", "c", 42, b"bytes"):
            assert 0 <= fn(key) < (1 << 16)

    def test_same_key_same_point(self):
        fn = PairwiseIndependentHash(name="h", a=3, b=7, bits=32)
        assert fn("stable") == fn("stable")

    def test_point_alias(self):
        fn = PairwiseIndependentHash(name="h", a=3, b=7, bits=32)
        assert fn.point("k") == fn("k")

    def test_space_size(self):
        fn = PairwiseIndependentHash(name="h", a=3, b=7, bits=10)
        assert fn.space_size == 1024

    def test_zero_a_rejected(self):
        with pytest.raises(ValueError):
            PairwiseIndependentHash(name="h", a=0, b=7, bits=10)

    def test_bits_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PairwiseIndependentHash(name="h", a=3, b=7, bits=0)
        with pytest.raises(ValueError):
            PairwiseIndependentHash(name="h", a=3, b=7, bits=1000)

    def test_functions_are_hashable_and_frozen(self):
        fn = PairwiseIndependentHash(name="h", a=3, b=7, bits=10)
        assert fn in {fn}
        with pytest.raises(AttributeError):
            fn.a = 4  # type: ignore[misc]


class TestHashFamily:
    def test_sampled_functions_differ(self):
        family = HashFamily(bits=32, seed=1)
        first, second = family.sample(), family.sample()
        assert (first.a, first.b) != (second.a, second.b)
        assert first("key") != second("key") or first("other") != second("other")

    def test_same_seed_same_family(self):
        first = HashFamily(bits=32, seed=5).sample("h")
        second = HashFamily(bits=32, seed=5).sample("h")
        assert (first.a, first.b) == (second.a, second.b)

    def test_default_names_are_sequential(self):
        family = HashFamily(bits=32, seed=0)
        assert [family.sample().name for _ in range(3)] == ["h-0", "h-1", "h-2"]

    def test_sample_many_names_use_prefix(self):
        family = HashFamily(bits=32, seed=0)
        names = [fn.name for fn in family.sample_many(4, prefix="hr")]
        assert names == ["hr-0", "hr-1", "hr-2", "hr-3"]

    def test_sample_many_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            HashFamily(bits=32, seed=0).sample_many(0)

    def test_family_records_samples(self):
        family = HashFamily(bits=32, seed=0)
        family.sample_many(3)
        assert len(family) == 3
        assert len(list(family)) == 3

    def test_seed_and_rng_are_mutually_exclusive(self):
        import random
        with pytest.raises(ValueError):
            HashFamily(bits=32, seed=1, rng=random.Random(2))

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            HashFamily(bits=0)

    def test_functions_spread_keys_over_space(self):
        family = HashFamily(bits=32, seed=3)
        fn = family.sample()
        points = {fn(f"key-{index}") for index in range(200)}
        # With a 32-bit space, 200 keys should essentially never collide.
        assert len(points) == 200


class TestHashingProperties:
    @given(key=st.one_of(st.text(), st.integers(), st.binary()))
    @settings(max_examples=60, deadline=None)
    def test_outputs_always_in_range(self, key):
        fn = PairwiseIndependentHash(name="h", a=987654321, b=123456789, bits=24)
        assert 0 <= fn(key) < (1 << 24)

    @given(key=st.text(min_size=1), bits=st.integers(min_value=4, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_determinism_across_bit_widths(self, key, bits):
        fn = PairwiseIndependentHash(name="h", a=31, b=17, bits=bits)
        assert fn(key) == fn(key)


class TestMemoisation:
    def test_cached_point_matches_fresh_evaluation(self):
        fn = PairwiseIndependentHash(name="h", a=987654321, b=123456789, bits=24)
        first = fn("hot-key")          # fills the per-function cache
        assert fn("hot-key") == first  # cache hit
        twin = PairwiseIndependentHash(name="h", a=987654321, b=123456789, bits=24)
        assert twin("hot-key") == first  # fresh instance, fresh cache

    def test_cache_distinguishes_equal_keys_of_different_types(self):
        # True == 1 == 1.0, but their type-tagged payloads (hence digests)
        # differ; the memo key is type-tagged so the cache must not conflate
        # them.
        fn = PairwiseIndependentHash(name="h", a=31, b=17, bits=32)
        points = {fn(True), fn(1), fn(1.0), fn("1")}
        assert key_digest(True) != key_digest(1)
        assert fn(True) == fn(True) and fn(1) == fn(1)
        assert len(points) >= 2  # collisions possible in principle, not conflation

    def test_str_keys_and_type_tagged_keys_share_one_memo(self):
        # An exact str is memoised under itself and every other cacheable
        # type under a (type, key) tag: in any query order, each answer is
        # the fresh evaluation of its own key.
        class Name(str):
            pass

        keys = ["1", b"1", 1, True, Name("1"), "True", str(int)]
        for order in (keys, keys[::-1]):
            fn = PairwiseIndependentHash(name="h", a=31, b=17, bits=64)
            assert [fn(key) for key in order * 2] == [fn._evaluate(key) for key in order * 2]

    def test_unhashable_keys_bypass_the_cache(self):
        fn = PairwiseIndependentHash(name="h", a=31, b=17, bits=32)
        assert fn(["a", "b"]) == fn(["a", "b"])
        assert key_digest(["a", "b"]) == key_digest(["a", "b"])

    def test_equal_keys_with_distinct_reprs_stay_order_independent(self):
        # 0.0 == -0.0 and they share a hash, but their repr payloads differ;
        # a cache keyed on equality would return whichever was queried first.
        # Floats use the uncached repr branch, so order must not matter.
        assert key_digest(0.0) != key_digest(-0.0)
        assert key_digest(-0.0) != key_digest(0.0)  # reversed query order
        fn = PairwiseIndependentHash(name="h", a=31, b=17, bits=64)
        first = (fn(0.0), fn(-0.0))
        twin = PairwiseIndependentHash(name="h", a=31, b=17, bits=64)
        assert (twin(-0.0), twin(0.0)) == (first[1], first[0])

    def test_points_many_matches_individual_calls(self):
        family = HashFamily(bits=32, seed=11)
        fn = family.sample()
        keys = [f"key-{index}" for index in range(40)] + [("tuple", 1), b"raw"]
        assert fn.points_many(keys) == [fn(key) for key in keys]

    def test_equality_and_hash_ignore_cache_state(self):
        first = PairwiseIndependentHash(name="h", a=31, b=17, bits=32)
        second = PairwiseIndependentHash(name="h", a=31, b=17, bits=32)
        first("warm")  # only `first` has a warm cache
        assert first == second
        assert hash(first) == hash(second)

