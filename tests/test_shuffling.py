import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eager_reference import eager_data_permutations, fisher_yates_loop
from fedrr.rng import stream
from fedrr.shuffling import (
    ClientMode,
    DataMode,
    ScheduleError,
    ShuffleMode,
    build_cohort_schedule,
    data_permutations,
    double_shuffle_index,
    draw_data_permutations,
    fisher_yates,
)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50, deadline=None)
def test_fisher_yates_is_permutation(n, seed):
    perm = fisher_yates(n, stream(seed, "t"))
    assert sorted(perm) == list(range(n))


@given(
    st.integers(min_value=1, max_value=2000),
    st.integers(),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_fisher_yates_matches_scalar_loop(n, seed, skip):
    # ``skip`` earlier small draws leave the generator mid-way through its
    # buffered 32-bit output, so both halves of a 64-bit word get exercised
    fast, slow = stream(seed, "fy"), stream(seed, "fy")
    for _ in range(skip):
        assert fast.integers(0, 7) == slow.integers(0, 7)
    assert np.array_equal(fisher_yates(n, fast), fisher_yates_loop(n, slow))
    assert fast.integers(0, 1000) == slow.integers(0, 1000)
    assert fast.integers(0, 2**63) == slow.integers(0, 2**63)


def test_fisher_yates_uniform_n3():
    counts = {p: 0 for p in itertools.permutations(range(3))}
    for i in range(12000):
        counts[tuple(fisher_yates(3, stream(0, "chi", i)))] += 1
    # expected 2000 per cell; 150 is about 3.4 sigma
    assert all(abs(c - 2000) <= 150 for c in counts.values())


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
    rng = stream(seed, "bij")
    lam = fisher_yates(M, rng)
    pis = [fisher_yates(N, rng) for _ in range(M)]
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
        rng = stream(1, "uniform", i)
        lam = fisher_yates(2, rng)
        pis = [fisher_yates(2, rng) for _ in range(2)]
        order = tuple(double_shuffle_index(k, 2, lam, pis) for k in range(4))
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 8
    assert all(abs(c - 1000) <= 120 for c in counts.values())


def test_cohort_schedule_partition_property():
    mode = ShuffleMode(client_mode=ClientMode.RESHUFFLING)
    for t in range(5):
        sched = build_cohort_schedule(12, 3, mode, t, seed=4)
        assert sched.R == 4 and sched.C == 3
        flat = sorted(m for cohort in sched.cohorts for m in cohort)
        assert flat == list(range(12))


def test_cohort_schedule_full_participation():
    sched = build_cohort_schedule(5, 5, ShuffleMode(), 0, seed=0)
    assert sched.R == 1
    assert sorted(sched.round_cohort(0)) == list(range(5))


def test_cohort_schedule_modes():
    once = ShuffleMode(client_mode=ClientMode.SHUFFLE_ONCE)
    reshuffle = ShuffleMode(client_mode=ClientMode.RESHUFFLING)
    assert build_cohort_schedule(12, 3, once, 0, 7) == build_cohort_schedule(12, 3, once, 5, 7)
    drawn = {build_cohort_schedule(12, 3, reshuffle, t, 7).cohorts for t in range(6)}
    assert len(drawn) > 1


def test_cohort_schedule_indivisible():
    with pytest.raises(ScheduleError):
        build_cohort_schedule(10, 3, ShuffleMode(), 0, 0)


def test_fixed_schedule_applied_and_validated():
    plan = (((0, 1), (2, 3)), ((3, 2), (1, 0)))
    mode = ShuffleMode(client_mode=ClientMode.DETERMINISTIC_FIXED, fixed_schedule=plan)
    assert build_cohort_schedule(4, 2, mode, 0, 0).cohorts == ((0, 1), (2, 3))
    assert build_cohort_schedule(4, 2, mode, 1, 0).cohorts == ((3, 2), (1, 0))
    # reused cyclically
    assert build_cohort_schedule(4, 2, mode, 2, 0).cohorts == ((0, 1), (2, 3))
    bad = ShuffleMode(client_mode=ClientMode.DETERMINISTIC_FIXED, fixed_schedule=(((0, 1), (1, 3)),))
    with pytest.raises(ScheduleError):
        build_cohort_schedule(4, 2, bad, 0, 0)


def test_data_permutations_modes():
    once = ShuffleMode(data_mode=DataMode.SHUFFLE_ONCE)
    reshuffle = ShuffleMode(data_mode=DataMode.RESHUFFLING)
    a = draw_data_permutations(3, 6, once, 0, 11)
    b = draw_data_permutations(3, 6, once, 4, 11)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = draw_data_permutations(3, 6, reshuffle, 0, 11)
    d = draw_data_permutations(3, 6, reshuffle, 1, 11)
    assert any(not np.array_equal(x, y) for x, y in zip(c, d))


def test_data_permutations_n1():
    perms = draw_data_permutations(4, 1, ShuffleMode(), 0, 0)
    assert all(list(p) == [0] for p in perms)


def test_adding_clients_preserves_existing_streams():
    small = draw_data_permutations(3, 5, ShuffleMode(), 0, 2)
    big = draw_data_permutations(6, 5, ShuffleMode(), 0, 2)
    for m in range(3):
        assert np.array_equal(small[m], big[m])


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=5),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_lazy_permutations_match_eager(M, N, seed, t, data):
    order = data.draw(st.permutations(range(M)))
    used = order[: data.draw(st.integers(min_value=0, max_value=M))]
    for mode in (ShuffleMode(data_mode=DataMode.SHUFFLE_ONCE), ShuffleMode(data_mode=DataMode.RESHUFFLING)):
        eager = draw_data_permutations(M, N, mode, t, seed)
        reference = eager_data_permutations(M, N, mode, t, seed)
        assert all(np.array_equal(a, b) for a, b in zip(eager, reference))
        lazy = data_permutations(N, mode, t, seed)
        for m in used:
            assert np.array_equal(lazy[m], eager[m])
        assert sorted(lazy) == sorted(used)  # only the clients asked for were drawn


def test_lazy_permutations_memoised_per_stream_epoch():
    once = ShuffleMode(data_mode=DataMode.SHUFFLE_ONCE)
    reshuffle = ShuffleMode(data_mode=DataMode.RESHUFFLING)
    first = data_permutations(5, once, 0, 3)
    perm = first[2]
    assert data_permutations(5, once, 7, 3, first) is first
    assert first[2] is perm
    second = data_permutations(5, reshuffle, 0, 3, first)
    assert second is first  # stream epoch 0 either way
    third = data_permutations(5, reshuffle, 1, 3, second)
    assert third is not second and len(third) == 0
    assert data_permutations(6, once, 0, 3, first) is not first
    assert data_permutations(5, once, 0, 4, first) is not first
