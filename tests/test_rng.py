import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

from eager_reference import fisher_yates_integers, fisher_yates_loop
from fedrr import rng
from fedrr.dataset import partition
from fedrr.rng import SHORT_PERMUTATION, derive_seed, stream, stream_key, swap_indices
from fedrr.shuffling import fisher_yates


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


def one_shot_key(root_seed, label, *parts):
    """``stream_key`` as one SHA-256 over the whole ``"root_seed:label:part..."`` text."""
    text = ":".join([str(int(root_seed)), label] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:16], "little")


SEEDS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
    st.booleans(),
    st.booleans().map(np.bool_),
)
LABELS = st.one_of(st.text(max_size=12), st.sampled_from(["a:b", ":", "data_perm", "données", "γ²", "客户端", "🎲"]))
PARTS = st.lists(st.one_of(st.integers(), st.text(max_size=8), st.floats(allow_nan=True)), max_size=4)


@given(SEEDS, LABELS, PARTS)
@settings(max_examples=500, deadline=None)
def test_stream_key_is_the_one_shot_hash(root_seed, label, parts):
    assert stream_key(root_seed, label, *parts) == one_shot_key(root_seed, label, *parts)


@pytest.mark.parametrize("label", [7, 1.5, b"label", None, ["label"]])
def test_stream_key_rejects_a_label_that_is_not_text(label):
    with pytest.raises(TypeError):
        stream_key(0, label, 1)


@pytest.mark.parametrize(
    "args, key",
    [
        ((0, "x"), 14251052058956474470845326327064939995),
        ((2024, "data_perm", 3, 7), 301346041154103080725683364293710464312),
        ((2640660228583020352, "client_perm", 0), 91117817214244984988482602210982325217),
        ((np.int64(-5), "γ²", -1, 1.5, "a:b"), 297515703721451686087119595824313815936),
        ((True, "🎲"), 314728298879013291635097147467617766684),
        ((2**200, "partition", 11055, 12), 133417641011816699410312812566938612911),
    ],
)
def test_stream_key_literal_values(args, key):
    # one_shot_key is stream_key's own expression, so only these literals pin the derivation itself
    assert stream_key(*args) == key


def test_derive_seed_literal_values():
    assert derive_seed(2024, "run", "rrcli", 1.0, 0) == 2640660228583020352
    assert derive_seed(2024, "run", "fedavg", 2.0, 4) == 5133025294760925529


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


@given(st.integers(min_value=1, max_value=3000), st.integers(), st.text(max_size=8), st.lists(st.integers(), max_size=3))
@settings(max_examples=200, deadline=None)
def test_swap_indices_are_numpys_bounded_draws(n, root_seed, label, parts):
    expected = stream(root_seed, label, *parts).integers(0, np.arange(n, 1, -1))
    assert np.array_equal(swap_indices(n, root_seed, label, *parts), expected)


@pytest.mark.parametrize("n", range(1, 2 * SHORT_PERMUTATION + 1))
def test_short_and_long_paths_match_numpy_at_every_length(n):
    # every length on both sides of the cut, over 200 (seed, label) pairs each
    for seed in range(100):
        for label in ("cut", "perm"):
            expected = stream(seed, label, n).integers(0, np.arange(n, 1, -1))
            assert np.array_equal(swap_indices(n, seed, label, n), expected)


def untemper(y):
    """The MT19937 key word that the generator's tempering turns into the output y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC6_0000
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9D2C_5680)
    y = x & 0xFFFF_FFFF
    x = y
    for _ in range(2):
        x = y ^ (x >> 11)
    return x


def generator_emitting(values):
    """A Generator whose next 32-bit outputs are ``values``, then zeros."""
    key = np.zeros(624, dtype=np.uint32)
    key[: len(values)] = [untemper(v) for v in values]
    bg = np.random.MT19937(0)
    bg.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    return np.random.Generator(bg)


INV7 = pow(7, -1, 2**32)  # u = k*INV7 mod 2**32 gives (7u) mod 2**32 = k
ACCEPTED = [0x9E37_79B9, 0x7F4A_7C15, 0xBF58_476D, 0x94D0_49BB, 0xD6E8_FEB8]
# 32 values whose draws at bounds 33, 32, ..., 2 each have low word (u*r) mod 2**32 >= r
LONG_ACCEPTED = [0x9E37_79B9 * i % 2**32 for i in range(1, SHORT_PERMUTATION + 1)]


class RawWords:
    """A stand-in for a re-keyed Philox whose raw words carry the 32-bit ``values``, low half first."""

    def __init__(self, values):
        pairs = values + [0xDEAD_BEEF] * (len(values) % 2)
        self.words = [lo | hi << 32 for lo, hi in zip(pairs[::2], pairs[1::2])]
        self.read = 0

    def random_raw(self, k):
        self.read += k
        assert self.read <= len(self.words), "the draws read past the chosen words"
        return np.array(self.words[self.read - k : self.read], dtype=np.uint64)


@pytest.mark.parametrize(
    "n, values, rekeys",
    [
        (4, ACCEPTED[:3], 1),  # no rejection: the short path's Python integers alone
        (7, ACCEPTED[:1] + [3 * INV7 % 2**32] + ACCEPTED[:5], 1),  # the u that r = 7 rejects, drawn at r = 6: accepted
        (6, [0, 0] + ACCEPTED, 2),  # u = 0 rejected twice at the start, in the low half of the first word
        (6, ACCEPTED[:1] + [0] + ACCEPTED[1:5], 2),  # a rejection in the high half of a word
        (5, ACCEPTED[:2] + [0] + ACCEPTED[2:4], 2),  # a later word's low half rejected, at r = 3
        (7, [3 * INV7 % 2**32] + ACCEPTED[:5] + [0x0BAD_F00D], 2),  # low 3 < 2**32 mod 7 = 4: rejected
        (7, [4 * INV7 % 2**32] + ACCEPTED[:5], 2),  # low 4 < r = 7 but not < 4: accepted, through the fallback
        (7, [6 * INV7 % 2**32] + ACCEPTED[:5], 2),  # low 6, the largest near-rejection at r = 7
        (4, ACCEPTED[:2] + [0, 0x0BAD_F00D], 2),  # r = 2 never rejects (2**32 mod 2 = 0), yet low 0 < 2 goes to the fallback
    ],
)
def test_short_path_rejections_fall_back_to_numpys_rule(monkeypatch, n, values, rekeys):
    # the short path keeps a draw only when low >= r, which numpy never rejects; anything else
    # re-keys and hands the same values to a real Generator, which applies numpy's rule to them
    keyed = []

    def keyed_philox(key):
        keyed.append(key)
        return RawWords(values) if len(keyed) == 1 else generator_emitting(values + [0xDEAD_BEEF]).bit_generator

    monkeypatch.setattr(rng, "_keyed_philox", keyed_philox)
    bounds = np.arange(n, 1, -1)
    expected = generator_emitting(values + [0xDEAD_BEEF]).integers(0, bounds)
    assert np.array_equal(swap_indices(n, 0, "raw"), expected)
    assert len(keyed) == rekeys and len(set(keyed)) == 1


@pytest.mark.parametrize(
    "values",
    [LONG_ACCEPTED[:5] + [0] + LONG_ACCEPTED[5:31], LONG_ACCEPTED],  # u = 0 at r = 28, which numpy rejects; none rejected
    ids=["rejected", "accepted"],
)
def test_long_swap_indices_are_numpys_draws_on_one_rekey(monkeypatch, values):
    # one element past the short path, the Philox goes straight to Generator.integers, rejection or not
    keyed = []

    def keyed_philox(key):
        keyed.append(key)
        return generator_emitting(values + [0xDEAD_BEEF]).bit_generator

    monkeypatch.setattr(rng, "_keyed_philox", keyed_philox)
    n = SHORT_PERMUTATION + 1
    expected = generator_emitting(values + [0xDEAD_BEEF]).integers(0, np.arange(n, 1, -1))
    assert np.array_equal(swap_indices(n, 0, "raw"), expected)
    assert len(keyed) == 1


def count_rekeys(monkeypatch):
    """Wrap ``rng._keyed_philox`` so that each re-keying appends its key to the returned list."""
    keyed, keyed_philox = [], rng._keyed_philox

    def counting(key, *start):
        keyed.append(key)
        return keyed_philox(key, *start)

    monkeypatch.setattr(rng, "_keyed_philox", counting)
    return keyed


@pytest.mark.parametrize("seed, rejected", [(895, True), (2302, True), (2024, False)])
def test_partition_rejections_are_numpys_on_real_philox_words(monkeypatch, seed, rejected):
    # numpy rejects one 32-bit value in each of the first two 11,055-row partitions and none in the third:
    # numpy's tail shuffle draws each of them from one re-keyed Philox, rejection or not
    keyed = count_rekeys(monkeypatch)
    rows = partition(11055, 12, seed)
    assert len(keyed) == 1
    name = ("partition", 11055, 12)
    bounds = np.arange(11055, 1, -1, dtype=np.uint64)
    u = stream(seed, *name).bit_generator.random_raw(11055 // 2).astype("<u8").view("<u4")[:11054]
    assert bool((u * bounds & 0xFFFF_FFFF < (1 << 32) % bounds).any()) == rejected
    expected = fisher_yates_integers(11055, stream(seed, *name))
    assert np.array_equal(rows.ravel(), expected[: rows.size])
    assert np.array_equal(swap_indices(11055, seed, *name), stream(seed, *name).integers(0, bounds.astype(np.int64)))


def in_six_threads(draws):
    """The results of ``draws()`` in six threads run at once, switching every few microseconds."""
    results = [None] * 6

    def work(k):
        results[k] = draws()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    return results


def test_swap_indices_per_thread(monkeypatch):
    # each thread re-keys its own Philox: threads drawing at once, switching
    # every few microseconds, get the indices of one thread drawing alone
    with monkeypatch.context() as patch:
        keyed = count_rekeys(patch)
        swap_indices(11055, 52, "threads")
    assert len(keyed) == 1  # this case's draws are Generator.integers, on each thread's own Philox
    cases = [(n, seed) for n in (4, 6, SHORT_PERMUTATION, SHORT_PERMUTATION + 1, 921) for seed in range(20)] + [(11055, 52)]
    expected = [swap_indices(n, seed, "threads") for n, seed in cases]
    results = in_six_threads(lambda: [swap_indices(n, seed, "threads") for _ in range(5) for n, seed in cases])
    assert all(r == expected * 5 for r in results)


@pytest.mark.parametrize("n", [*range(2, 65), 921, 10_000])
def test_choice_is_floyds_draws_then_the_swap_loop(n):
    # what rng.shuffled_range relies on: choice(n, n, replace=False) makes the n-1 draws of Floyd's
    # algorithm at bounds 2..n, which leave range(n) as it is, then the swaps of the scalar loop, and
    # ends where those draws end
    for k in range(20):
        chosen = stream(k, "choice", n)
        perm = chosen.choice(n, n, replace=False)
        drawn = stream(k, "choice", n)
        for j in range(1, n):
            drawn.integers(0, j + 1)
        assert np.array_equal(perm, fisher_yates_loop(n, drawn))
        assert repr(chosen.bit_generator.state) == repr(drawn.bit_generator.state)


@pytest.mark.parametrize("n", [10_001, 11_055, 200_000])
def test_choice_past_floyd_is_the_tail_shuffle(n):
    # what rng.shuffled_range relies on past FLOYD_CHOICE: choice(n, n, replace=False) makes no Floyd draws,
    # only the swaps of the scalar loop from the stream's first value, and ends where those draws end
    for k in range(3):
        chosen = stream(k, "choice", n)
        perm = chosen.choice(n, n, replace=False)
        drawn = stream(k, "choice", n)
        assert np.array_equal(perm, fisher_yates_integers(n, drawn))
        assert repr(chosen.bit_generator.state) == repr(drawn.bit_generator.state)


def test_fisher_yates_per_thread():
    # numpy's C shuffle, its tail shuffle past 10,000 elements, and the fallbacks of seeds 177 (a Floyd
    # draw rejected) and 419 (a swap draw rejected) re-key each thread's own Philox: threads drawing at
    # once, switching every few microseconds, get the bytes of one thread drawing alone
    cases = [(n, seed) for n in (33, 921, 10_000, 11_055) for seed in range(8)] + [(10_000, 177), (10_000, 419)]
    expected = [fisher_yates(n, seed, "reject", n).tobytes() for n, seed in cases]
    results = in_six_threads(lambda: [fisher_yates(n, seed, "reject", n).tobytes() for _ in range(5) for n, seed in cases])
    assert all(r == expected * 5 for r in results)
