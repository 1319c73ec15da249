"""The integer bytes of every round plan and of the dataset partition, pinned as sha256 digests.

A plan's cohorts and data orders come from permutation draws alone: no float
arithmetic, BLAS or SIMD code touches them, so these digests hold on every
platform.  A change to how permutations are drawn that moves any of them
changes every contract file downstream.  The 11,055-row partitions at seeds
895 and 2302 each hold a draw that numpy rejects, and so do the 10,001-row
one at seed 5 and almost every 200,000-row one.
"""

import hashlib

import numpy as np
import pytest

from fedrr.dataset import partition
from fedrr.optimizer import AlgoConfig, StepSizes, round_plan
from fedrr.problem import quadratic_problem
from fedrr.shuffling import ClientMode, DataMode, ShuffleMode

M, N, C, T, SEED = 12, 40, 3, 3, 7
FIXED = (
    ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)),
    ((11, 0, 5), (1, 10, 2), (9, 3, 8), (4, 7, 6)),
)


def plan_digest(algorithm, shuffle=ShuffleMode(), rows=True, shape=(M, N, C, T), local_steps=None):
    """sha256 of each round's epoch, index, cohort and (unless ``rows`` is false) data orders, as little-endian int64.

    ``shape`` is the plan's (clients M, points per client N, cohort size C, meta-epochs T).
    """
    m, n, c, t = shape
    problem = quadratic_problem(m, n, 2, mu=1.0, L=10.0, client_spread=1.0, sample_spread=0.5, seed=0)
    cfg = AlgoConfig(algorithm, c, t, StepSizes(0.01, 0.01, 0.01), shuffle=shuffle, local_steps=local_steps, seed=SEED)
    h = hashlib.sha256()
    for rnd in round_plan(problem, cfg):
        h.update(np.array([rnd.meta_epoch, rnd.round_index, *rnd.clients], dtype="<i8").tobytes())
        if rows:
            h.update(np.ascontiguousarray(rnd.rows, dtype="<i8").tobytes())
    return h.hexdigest()


PLAN_DIGESTS = {
    "rrcli/shuffle_once/shuffle_once": "0555b308b238e34a15c4dfb7b5bec8748163f24e8670a3aead109c2357d3c0ac",
    "rrcli/shuffle_once/reshuffling": "c5492a2347c62b6ecb36bd5df55ff5468ba26a15cacefd71c0676ff749c475bd",
    "rrcli/reshuffling/shuffle_once": "d276d57ba225c0a16da4b319a6a9cf527048de3ff706078600eee4b11f2d24d1",
    "rrcli/reshuffling/reshuffling": "f2be99d3c2f731be09abd05e862a05df9cdd130203f5426bbce92265e71f93c0",
    "rrcli/deterministic_fixed/shuffle_once": "6a6938537dcd9c6353274f8f6099e32042634c75ae0f1f7285e80c37d5b9f7cb",
    "rrcli/deterministic_fixed/reshuffling": "b623783c616912c397c0db5bbcfd37272cb75aa1c6bcf3e635d8e763a84ade47",
    "rrcli-wr/shuffle_once": "3402b9b337d0105c85cf4d1bde4a6e205fb82c073ff82da81329b3baa7a112dc",
    "rrcli-wr/reshuffling": "266f9f7bfbb7dd77205451c509fed7ee8519f8b773832144ce7839defb36e415",
    "nastya/shuffle_once": "891a31003502dac5197cbd8f7a6adac5d071d520092150689fc69a18254e3bbf",
    "nastya/reshuffling": "e5af456740b6189faf0aad03ea89bf942c5fb238c50b589ae1e6d16d887fa359",
    "fedavg/cohorts": "b3c04ab55bde898da10e351bf8c580a4ea0a869946590ac41863fdb6ba969af8",
}

# the quad_montecarlo bench's shapes: 6 clients of 4 points, cohorts of 2, so every draw is a 6- or 4-element permutation
QUAD_SHAPE = (6, 4, 2, 50)
QUAD_PLAN_DIGESTS = {
    "rrcli/reshuffling/reshuffling": "0ed989233ba2fde1c414839d6f54755f7af3f5afa04442312f397fe3ff22bc42",
    "rrcli-wr/shuffle_once": "aa726316998da31af60e9e52c0b9f967f95c3ad3252cb1380df43d6127634bbc",
}

# fedavg's minibatch rows, Generator.choice draws: fig2's shape (10 steps of 92 of 921 points) over two
# epochs, and 7 steps of 4 of 40 points, 28 of 40, whose 18th 84-evaluation round overruns the budget of 1,440
FEDAVG_ROW_DIGESTS = {
    ((12, 921, 3, 2), 10): "47768870d1c892ad357c3ccd16b8dafee27ed7adf94d9ee176a6a63f01bc40ba",
    ((12, 40, 3, 3), 7): "2b8cd079c050dddf31a199ec05f01293f81bbfe33b2ccc1a38ed4d1497f7ac15",
}

PARTITION_DIGESTS = {
    0: "fd6b2c5ca06d809ada5b1317fd2cdc2311d0c90e476fc098aa479426a2319437",
    1: "b102bc6783d5ed7c284cd0b8a23287a7997dc756deeff5d0e426fa3b38ff67e4",
    2: "b00f994363655432c52901b6bbe269ad36891f2b3ebeb70d3fc057dcca09e76e",
    2024: "d9f15e16ba484d8ca30c09146c11dae90ef97e9a1d844a8ada90fbd5a0473a86",
    # numpy's bounded draw rejects a 32-bit value once in each of these two permutations
    895: "e1bcdd973f6d20748e9ad29b3fc7463c6036a1c6071807e1f20bd4e95644ee01",
    2302: "42a7f76d1abec8f77939b31ae36720f2936256809a0500e6d3d308a38033a225",
}

# partitions into 12 clients past numpy's Floyd cut of 10,000 elements, where choice is its tail shuffle alone
LARGE_PARTITION_DIGESTS = {
    (10001, 3): "d0f63b2327dcd633b20f02c4ad5006ae6ebbaabb84f4d8f5362c0d5b590866ab",
    (10001, 4): "e8342f7daece728f4ced047c7bfa92871b6e5631bf29293bc8d2441b12e81f1d",
    (10001, 5): "86c842b77d22b3e484557df5da0f66fefe7777edb23563454af79cf82a35f9cf",
    (11055, 3): "d18e6ae257ae79e7081a670a29ec8cf817864d598c20993539d080d882e39f76",
    (11055, 4): "3141241320f09bcd91802b85a4473da3ef8a19e0b9487959b3e855cbaf62a107",
    (11055, 5): "d2bd4215d11849bb1888a3c21c8bdd724bb4df943f3313114775ae203ea93840",
    (200000, 3): "6d8c4d20a6ccaf35a9ad1d5dd98cd28643c0d978451ea4299f3ff3ff27fff8ec",
    (200000, 4): "a6168002890a208f3ed07c00d88d3e2a69187ec3a4332afc9bfaa152a14ef8c6",
    (200000, 5): "840f061e2657016ce615554cbfc84802f36460d2b2df864ee34ac8d4391430cd",
}


def plan_cases():
    for client_mode in ClientMode:
        for data_mode in DataMode:
            fixed = FIXED if client_mode is ClientMode.DETERMINISTIC_FIXED else None
            yield f"rrcli/{client_mode.value}/{data_mode.value}", "rrcli", ShuffleMode(client_mode, data_mode, fixed)
    for algorithm in ("rrcli-wr", "nastya"):
        for data_mode in DataMode:
            yield f"{algorithm}/{data_mode.value}", algorithm, ShuffleMode(data_mode=data_mode)


@pytest.mark.parametrize("name,algorithm,shuffle", list(plan_cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_round_plan_bytes_are_pinned(name, algorithm, shuffle):
    assert plan_digest(algorithm, shuffle) == PLAN_DIGESTS[name]


@pytest.mark.parametrize(
    "name,algorithm,shuffle",
    [
        ("rrcli/reshuffling/reshuffling", "rrcli", ShuffleMode(ClientMode.RESHUFFLING, DataMode.RESHUFFLING)),
        ("rrcli-wr/shuffle_once", "rrcli-wr", ShuffleMode()),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_quad_shape_plan_bytes_are_pinned(name, algorithm, shuffle):
    assert plan_digest(algorithm, shuffle, shape=QUAD_SHAPE) == QUAD_PLAN_DIGESTS[name]


def test_fedavg_cohort_bytes_are_pinned():
    assert plan_digest("fedavg", rows=False) == PLAN_DIGESTS["fedavg/cohorts"]


@pytest.mark.parametrize("shape, local_steps", sorted(FEDAVG_ROW_DIGESTS), ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_fedavg_row_bytes_are_pinned(shape, local_steps):
    assert plan_digest("fedavg", shape=shape, local_steps=local_steps) == FEDAVG_ROW_DIGESTS[shape, local_steps]


@pytest.mark.parametrize("seed", sorted(PARTITION_DIGESTS))
def test_partition_bytes_are_pinned(seed):
    rows = partition(11055, 12, seed)
    assert hashlib.sha256(np.ascontiguousarray(rows, dtype="<i8").tobytes()).hexdigest() == PARTITION_DIGESTS[seed]


@pytest.mark.parametrize("count, seed", sorted(LARGE_PARTITION_DIGESTS))
def test_large_partition_bytes_are_pinned(count, seed):
    rows = partition(count, 12, seed)
    assert hashlib.sha256(np.ascontiguousarray(rows, dtype="<i8").tobytes()).hexdigest() == LARGE_PARTITION_DIGESTS[count, seed]
