"""The laws of the round plan's draws, checked by χ² over a fixed seed range.

``tests/test_plan_bytes.py`` pins the plans' bytes; these tests check what
those bytes must be samples of, so that a change of streams can be judged on
its law.  The seeds 0-2999 and the bound p >= 1e-6 are fixed: at that bound a
correct plan fails one of these tests about once in a million stream changes.
The exact laws (shuffle-once reuse, a fixed schedule's cycle) hold seed by
seed, and run over seeds 0-299.
The critical values are ``scipy.stats.chi2.isf(1e-6, df)``, computed once
outside the tests (scipy is not a dependency).
"""

import itertools
from collections import Counter
from functools import lru_cache

import pytest

from fedrr.dataset import partition
from fedrr.optimizer import AlgoConfig, StepSizes, round_plan
from fedrr.problem import quadratic_problem
from fedrr.shuffling import ClientMode, DataMode, ShuffleMode

SEEDS = range(3000)
EXACT_SEEDS = range(300)  # the exact laws hold seed by seed and take no χ²
CHI2_CRITICAL = {5: 35.888, 8: 42.701, 23: 70.55, 35: 89.947}  # chi2.isf(1e-6, df)
COHORTS = list(itertools.combinations(range(4), 2))  # the 6 cohorts of 2 among 4 clients, in client-id order


def plans(algorithm, M, N, C, T, seeds=SEEDS, **kw):
    """Every seed's round plan for an M x N problem at cohort size C over T meta-epochs."""
    problem = quadratic_problem(M, N, 2, mu=1.0, L=10.0, client_spread=1.0, sample_spread=0.5, seed=0)
    for seed in seeds:
        yield list(round_plan(problem, AlgoConfig(algorithm, C, T, StepSizes(0.01, 0.01, 0.01), seed=seed, **kw)))


def assert_uniform(counts: Counter, classes):
    """Every outcome is one of ``classes``, and their counts pass χ² against the uniform law at p >= 1e-6."""
    classes = list(classes)
    assert set(counts) <= set(classes)
    expected = sum(counts.values()) / len(classes)
    stat = sum((counts[c] - expected) ** 2 / expected for c in classes)
    assert stat <= CHI2_CRITICAL[len(classes) - 1], (stat, counts)


def test_reshuffled_cohorts_and_data_orders_are_uniform():
    # rrcli at M = 4, C = 2, N = 3 with reshuffled clients and data: each meta-epoch's ordered
    # cohort partition is one of 4!/(2!)^2 = 6, and each client's data order one of 3! = 6
    mode = ShuffleMode(ClientMode.RESHUFFLING, DataMode.RESHUFFLING)
    partitions, orders = Counter(), Counter()
    for plan in plans("rrcli", 4, 3, 2, 4, shuffle=mode):
        for t in range(4):
            rounds = [rnd for rnd in plan if rnd.meta_epoch == t]
            partitions[tuple(rnd.clients for rnd in rounds)] += 1
            orders.update(tuple(row) for rnd in rounds for row in rnd.rows.tolist())
    cohorts = [tuple(sorted(c)) for c in itertools.combinations(range(4), 2)]
    assert_uniform(partitions, [(a, b) for a in cohorts for b in cohorts if not set(a) & set(b)])
    assert sum(orders.values()) == 3000 * 4 * 4
    assert_uniform(orders, itertools.permutations(range(3)))


@lru_cache(maxsize=1)
def reshuffled_epochs():
    """Every seed's first two meta-epochs of rrcli at M = 4, N = 3, C = 2 with reshuffled clients and data.

    One (partition, orders) pair per meta-epoch: its ordered cohort partition, and every client's data order.
    """
    mode = ShuffleMode(ClientMode.RESHUFFLING, DataMode.RESHUFFLING)
    epochs = []
    for plan in plans("rrcli", 4, 3, 2, 2, shuffle=mode):
        pair = []
        for t in range(2):
            rounds = [rnd for rnd in plan if rnd.meta_epoch == t]
            orders = {m: tuple(row) for rnd in rounds for m, row in zip(rnd.clients, rnd.rows.tolist())}
            pair.append((tuple(rnd.clients for rnd in rounds), orders))
        epochs.append(pair)
    return epochs


ORDERS = list(itertools.permutations(range(3)))  # the 6 data orders of 3 points


def test_reshuffled_partitions_of_consecutive_meta_epochs_are_independent():
    # each meta-epoch draws its own ordered partition of the 4 clients into 2 cohorts, one of 6: the
    # partitions of meta-epochs 0 and 1 are independent, so all 36 pairs are equally likely
    pairs = Counter((first[0], second[0]) for first, second in reshuffled_epochs())
    partitions = [(a, b) for a in COHORTS for b in COHORTS if not set(a) & set(b)]
    assert len(partitions) == 6 and sum(pairs.values()) == 3000
    assert_uniform(pairs, itertools.product(partitions, repeat=2))


def test_two_clients_data_orders_in_one_data_epoch_are_independent():
    # every client draws its own order of its 3 points in a data epoch: clients 0 and 1 in meta-epoch 0
    # give all 36 pairs of orders equally often, whichever cohorts they trained in
    pairs = Counter((first[1][0], first[1][1]) for first, _ in reshuffled_epochs())
    assert sum(pairs.values()) == 3000
    assert_uniform(pairs, itertools.product(ORDERS, repeat=2))


def test_one_clients_data_orders_in_consecutive_data_epochs_are_independent():
    # reshuffled data draws a client's order anew in every data epoch: client 0's orders in meta-epochs
    # 0 and 1 give all 36 pairs equally often
    pairs = Counter((first[1][0], second[1][0]) for first, second in reshuffled_epochs())
    assert sum(pairs.values()) == 3000
    assert_uniform(pairs, itertools.product(ORDERS, repeat=2))


def test_fedavg_two_step_rows_are_uniform():
    # fedavg at N = 3 with one-point batches over two local steps: a client's row is its two steps'
    # points, drawn independently, so all 3 x 3 pairs are equally likely, repeats included
    rows = Counter()
    for plan in plans("fedavg", 4, 3, 2, 1, local_steps=2, batch_fraction=1 / 3):
        rows.update(tuple(row) for rnd in plan for row in rnd.rows.tolist())
    assert_uniform(rows, itertools.product(range(3), repeat=2))


def test_with_replacement_cohorts_are_independent_uniform_subsets():
    # rrcli-wr at M = 4, C = 2: each of a meta-epoch's R = 2 cohorts is one of the 6 subsets, drawn
    # independently of the other, so the 36 ordered pairs are equally likely, a repeated client included
    cohorts, pairs = Counter(), Counter()
    for plan in plans("rrcli-wr", 4, 3, 2, 2):
        for t in range(2):
            pair = tuple(rnd.clients for rnd in plan if rnd.meta_epoch == t)
            cohorts.update(pair)
            pairs[pair] += 1
    assert sum(cohorts.values()) == 3000 * 2 * 2
    assert_uniform(cohorts, COHORTS)
    assert_uniform(pairs, itertools.product(COHORTS, repeat=2))


def test_nastya_cohorts_are_uniform():
    # nastya at M = 4, C = 2: every round draws one of the 6 cohorts anew
    cohorts = Counter(rnd.clients for plan in plans("nastya", 4, 3, 2, 2) for rnd in plan)
    assert sum(cohorts.values()) == 3000 * 2 * 2
    assert_uniform(cohorts, COHORTS)


def test_partition_row_orders_are_uniform():
    # 4 rows among 2 clients: the clients' rows, read in order, are one of the 4! = 24 row orders
    orders = Counter(tuple(partition(4, 2, seed).ravel().tolist()) for seed in SEEDS)
    assert_uniform(orders, itertools.permutations(range(4)))


def meta_epoch_partitions(plan, T):
    """A plan's ordered cohort partition of each of its T meta-epochs."""
    return [tuple(rnd.clients for rnd in plan if rnd.meta_epoch == t) for t in range(T)]


def test_shuffle_once_clients_reuse_epoch_zeros_partition():
    # rrcli with shuffle-once clients cuts one client permutation into cohorts: every meta-epoch trains
    # epoch 0's ordered partition again, whether the data is shuffled once or reshuffled
    for data_mode in DataMode:
        for plan in plans("rrcli", 4, 3, 2, 3, EXACT_SEEDS, shuffle=ShuffleMode(ClientMode.SHUFFLE_ONCE, data_mode)):
            first, *later = meta_epoch_partitions(plan, 3)
            assert later == [first, first]


@pytest.mark.parametrize("algorithm", ["rrcli", "rrcli-wr", "nastya"])
def test_shuffle_once_data_reuses_every_clients_epoch_zero_order(algorithm):
    # under shuffle-once data a client draws its data order once, in data epoch 0: every round that trains
    # it, in any meta-epoch and whichever cohort it joins, passes over that order. 12 client slots over 4
    # clients make some client train at least three times in every plan
    mode = ShuffleMode(ClientMode.RESHUFFLING, DataMode.SHUFFLE_ONCE)
    for plan in plans(algorithm, 4, 3, 2, 3, EXACT_SEEDS, shuffle=mode):
        orders = {}
        for rnd in plan:
            for m, row in zip(rnd.clients, rnd.rows.tolist()):
                assert orders.setdefault(m, row) == row
        assert sum(len(rnd.clients) for rnd in plan) == 12


def test_a_fixed_schedule_cycles_with_its_period():
    # a fixed schedule of three partitions trains partition t % 3 in meta-epoch t, its cohorts' clients in
    # ascending order, whatever the seed
    schedule = (((0, 1), (2, 3)), ((3, 1), (0, 2)), ((2, 1), (3, 0)))
    mode = ShuffleMode(ClientMode.DETERMINISTIC_FIXED, DataMode.RESHUFFLING, schedule)
    want = [tuple(tuple(sorted(cohort)) for cohort in schedule[t % 3]) for t in range(7)]
    for plan in plans("rrcli", 4, 3, 2, 7, EXACT_SEEDS, shuffle=mode):
        assert meta_epoch_partitions(plan, 7) == want
