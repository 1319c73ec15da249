import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eager_reference import fisher_yates_integers, fisher_yates_loop
from fedrr import rng, shuffling
from fedrr.rng import stream, stream_key
from fedrr.shuffling import ScheduleError, check_fixed_schedule, fisher_yates


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50, deadline=None)
def test_fisher_yates_is_permutation(n, seed):
    perm = fisher_yates(n, seed, "t")
    assert sorted(perm) == list(range(n))


@given(st.integers(min_value=1, max_value=2000), st.integers())
@settings(max_examples=100, deadline=None)
def test_fisher_yates_matches_scalar_loop(n, seed):
    perm = fisher_yates(n, seed, "fy")
    assert np.array_equal(perm, fisher_yates_loop(n, stream(seed, "fy")))
    assert np.array_equal(perm, fisher_yates_integers(n, stream(seed, "fy")))


@pytest.mark.parametrize(
    "n, seed, name",
    [(11055, 895, ("partition", 11055, 12)), (11055, 2302, ("partition", 11055, 12)), (11056, 209, ("swap", 11056)), (4000, 282, ("swap", 4000))],
)
def test_fisher_yates_matches_scalar_loop_through_a_rejection(n, seed, name):
    # numpy's bounded draw rejects a 32-bit value on each of these streams (about
    # 0.7% of 11,055-element permutations do), and every later swap index comes
    # from one value further along: an odd n then reads a further word, an even n
    # first takes the spare half of its last one
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    u = stream(seed, *name).bit_generator.random_raw(n // 2).astype("<u8").view("<u4")[: n - 1]
    assert (u * bounds & 0xFFFF_FFFF < (1 << 32) % bounds).any()  # the first rejection shows in the values in place
    assert np.array_equal(fisher_yates(n, seed, *name), fisher_yates_loop(n, stream(seed, *name)))


@pytest.mark.parametrize("n", [*range(1, 201), 921, 4096, 9999, 10_000, 10_001, 11_055])
def test_fisher_yates_is_the_loop_on_every_path(n):
    # Python swaps up to 32 elements, numpy's C shuffle after Floyd's draws up to 10,000, its tail shuffle beyond
    for seed in range(20):
        assert np.array_equal(fisher_yates(n, seed, "paths", n), fisher_yates_loop(n, stream(seed, "paths", n)))


@pytest.mark.parametrize("n", [10_001, 11_055, 200_000])
def test_long_permutations_are_the_swap_loop_over_numpys_draws(monkeypatch, n):
    # past 10,000 elements numpy's tail shuffle is the whole permutation: the Python swaps are never
    # reached, rejected draws included (a 200,000-element permutation has about two)
    monkeypatch.setattr(shuffling, "swap_indices", lambda *a: pytest.fail("Python swaps past FLOYD_CHOICE"))
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    rejected = 0
    for seed in range(20):
        perm = fisher_yates(n, seed, "long", n)
        assert np.array_equal(perm, fisher_yates_integers(n, stream(seed, "long", n)))
        u = stream(seed, "long", n).bit_generator.random_raw(n // 2).astype("<u8").view("<u4")[: n - 1]
        rejected += rejects(u, bounds)
    if n == 200_000:
        assert rejected >= 10


def count_paths(monkeypatch):
    """Wrap ``rng._keyed_philox`` so that each re-keying appends the path it serves to the returned list.

    Up to 10,000 elements a Philox started before the stream serves numpy's
    C shuffle ("C"), one at the stream's start the Python swaps'
    ``swap_indices`` ("Python").  Past 10,000 the tail shuffle starts at the
    stream's start too, so the paths are told apart only up to there.
    """
    paths, keyed_philox = [], rng._keyed_philox

    def counting(key, *start):
        paths.append("C" if start else "Python")
        return keyed_philox(key, *start)

    monkeypatch.setattr(rng, "_keyed_philox", counting)
    return paths


def rejects(u, bounds):
    """Whether numpy's bounded draw rejects one of the 32-bit values u, read in place at these bounds."""
    return bool((u * bounds & 0xFFFF_FFFF < (1 << 32) % bounds).any())


@pytest.mark.parametrize(
    "seed, floyd_rejects, swap_rejects, paths",
    [
        (177, True, False, ["C", "Python"]),  # a Floyd draw rejected
        (254, True, False, ["C", "Python"]),
        (419, False, True, ["C", "Python"]),  # a swap draw rejected
        (500, False, True, ["C", "Python"]),
        (3, False, False, ["C"]),  # none rejected: the C shuffle's permutation is the result
    ],
)
def test_fisher_yates_falls_back_to_the_loop_after_a_rejection(monkeypatch, seed, floyd_rejects, swap_rejects, paths):
    # the C path reads 9,999 values for Floyd's draws, then the stream's own 9,999; a rejection in
    # either hands the permutation to the Python swaps over Generator.integers
    n = 10_000
    calls = count_paths(monkeypatch)
    assert np.array_equal(fisher_yates(n, seed, "reject", n), fisher_yates_loop(n, stream(seed, "reject", n)))
    assert calls == paths
    # the 2(n-1) values from the Philox's start: the first n-1 taken where the C shuffle starts it, the rest the stream's
    start = (-((n - 1) // 8) % 2**64, 2**64 - 1, 2**64 - 1, 2**64 - 1), 4 - (n - 1) // 2 % 4, (n - 1) % 2
    philox = rng._keyed_philox(stream_key(seed, "reject", n), *start)
    u = np.random.Generator(philox).integers(0, 2**32, 2 * (n - 1), dtype=np.uint64)
    assert np.array_equal(u[n - 1 :], stream(seed, "reject", n).integers(0, 2**32, n - 1, dtype=np.uint64))
    assert rejects(u[: n - 1], np.arange(2, n + 1, dtype=np.uint64)) == floyd_rejects
    assert rejects(u[n - 1 :], np.arange(n, 1, -1, dtype=np.uint64)) == swap_rejects


def test_data_permutations_take_numpys_shuffle(monkeypatch):
    # fig2's 921-element data orders: a numpy whose choice draws otherwise than rng.shuffled_range
    # expects fails here, and does not only lose speed
    calls = count_paths(monkeypatch)
    for seed in range(50):
        fisher_yates(921, seed, "data_perm", 0, seed % 12)
    assert calls == ["C"] * 50


def test_fisher_yates_uniform_n3():
    counts = {p: 0 for p in itertools.permutations(range(3))}
    for i in range(12000):
        counts[tuple(fisher_yates(3, 0, "chi", i))] += 1
    # expected 2000 per cell; 150 is about 3.4 sigma
    assert all(abs(c - 2000) <= 150 for c in counts.values())


def double_shuffle_index(k, N, client_perm, local_perms):
    """Map global step k in [0, M*N) to a (client id, data index) pair.

    Steps walk clients in ``client_perm`` order; within a client, data points
    follow that client's local permutation.  All indexing is 0-based.
    """
    M = len(client_perm)
    if not 0 <= k < M * N:
        raise IndexError(f"step {k} out of range for {M}x{N}")
    block, j = divmod(k, N)
    m = int(client_perm[block])
    return m, int(local_perms[m][j])


def test_double_shuffle_example():
    # two clients walked in order [1, 0] with identity local permutations
    lam = [1, 0]
    pis = [np.arange(3), np.arange(3)]
    got = [double_shuffle_index(k, 3, lam, pis) for k in range(6)]
    assert got == [(1, 0), (1, 1), (1, 2), (0, 0), (0, 1), (0, 2)]


def test_double_shuffle_single_client():
    pis = [np.array([2, 0, 1])]
    got = [double_shuffle_index(k, 3, [0], pis) for k in range(3)]
    assert got == [(0, 2), (0, 0), (0, 1)]


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_double_shuffle_bijection(M, N, seed):
    lam = fisher_yates(M, seed, "bij")
    pis = [fisher_yates(N, seed, "bij", m) for m in range(M)]
    seen = {double_shuffle_index(k, N, lam, pis) for k in range(M * N)}
    assert seen == set(itertools.product(range(M), range(N)))


def test_double_shuffle_out_of_range():
    with pytest.raises(IndexError):
        double_shuffle_index(6, 3, [0, 1], [np.arange(3)] * 2)


def test_composed_order_uniform():
    # M=2, N=2: the 8 (client perm x data perms) outcomes give 8 distinct
    # global orders, each of which should appear equally often
    counts = {}
    for i in range(8000):
        lam = fisher_yates(2, 1, "uniform", i)
        pis = [fisher_yates(2, 1, "uniform", i, m) for m in range(2)]
        order = tuple(double_shuffle_index(k, 2, lam, pis) for k in range(4))
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 8
    assert all(abs(c - 1000) <= 120 for c in counts.values())


def test_fixed_schedule_check():
    plan = (((0, 1), (2, 3)), ((3, 2), (1, 0)))
    assert check_fixed_schedule(4, 2, plan) == plan
    ids = check_fixed_schedule(4, 2, tuple(tuple(tuple(np.int64(m) for m in c) for c in e) for e in plan))
    assert ids == plan and all(type(m) is int for e in ids for c in e for m in c)
    with pytest.raises(ScheduleError, match="requires a fixed schedule"):
        check_fixed_schedule(4, 2, None)
    with pytest.raises(ScheduleError, match="the fixed schedule lists no epoch"):
        check_fixed_schedule(4, 2, ())
    for bad in ((((0, 1), (1, 3)),), (plan[0], ((0, 1, 2, 3),)), (((0, 1), (2, 3), (4, 5)),)):
        with pytest.raises(ScheduleError, match="not a partition of clients into R cohorts of C"):
            check_fixed_schedule(4, 2, bad)
