import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

from fedrr.rng import derive_seed, stream, stream_key


def test_same_name_same_stream():
    a = stream(7, "x", 1, 2).random(5)
    b = stream(7, "x", 1, 2).random(5)
    assert np.array_equal(a, b)


def test_different_names_differ():
    assert stream_key(7, "x", 1) != stream_key(7, "x", 2)
    assert stream_key(7, "x") != stream_key(7, "y")
    assert stream_key(7, "x") != stream_key(8, "x")


def test_key_is_128_bit():
    k = stream_key(0, "label")
    assert 0 <= k < 2**128


def test_derive_seed_stable_and_bounded():
    s = derive_seed(3, "run", "algo", 1.5, 0)
    assert s == derive_seed(3, "run", "algo", 1.5, 0)
    assert 0 <= s < 2**63
    assert s != derive_seed(3, "run", "algo", 1.5, 1)


@given(
    st.one_of(st.integers(min_value=-(2**70), max_value=2**70), st.integers(min_value=2**64, max_value=2**200)),
    st.text(max_size=20),
    st.lists(st.one_of(st.integers(), st.text(max_size=8), st.floats(allow_nan=False)), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_stream_matches_philox_keyed_by_stream_key(root_seed, label, parts):
    # the entropy-free stream is numpy's own key-seeded Philox, state and draws alike
    fast = stream(root_seed, label, *parts)
    slow = np.random.Generator(np.random.Philox(key=stream_key(root_seed, label, *parts)))
    assert repr(fast.bit_generator.state) == repr(slow.bit_generator.state)
    assert np.array_equal(fast.bit_generator.random_raw(64), slow.bit_generator.random_raw(64))
    assert repr(fast.bit_generator.state) == repr(slow.bit_generator.state)
    seed_seq = fast.bit_generator._seed_seq
    assert isinstance(seed_seq, ISeedSequence)
    assert not isinstance(seed_seq, np.random.SeedSequence)
