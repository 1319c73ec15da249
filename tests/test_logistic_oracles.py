"""The vectorised logistic oracles and the LIBSVM codec against their
per-component reference forms in ``eager_reference``: every comparison is on
raw bytes, not within a tolerance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eager_reference import (
    full_gradient_loop,
    logistic_arrays_gathered,
    logistic_local_pass,
    partition_tuples,
    sigmoid_three_exp,
    star_variances_per_component,
    to_libsvm_text_scalars,
)
from fedrr.dataset import libsvm_text, parse_libsvm, partition, synthetic_libsvm_like
from fedrr.problem import _sigmoid, logistic_problem, quadratic_problem, solve_optimum
from fedrr.variance_lab import star_variances


def logistic(M=3, N=40, dim=12, alpha=1e-2, seed=0):
    X, labels = synthetic_libsvm_like(count=M * N, dim=dim, seed=seed, nnz_per_row=5)
    return logistic_problem(partition(M * N, M, seed), X, labels, alpha)


PROBLEM = logistic()


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


QUADRATICS = [
    quadratic_problem(M, N, d, mu=0.5, L=4.0, client_spread=spread, sample_spread=spread / 2, seed=seed)
    for M, N, d, spread, seed in ((3, 4, 3, 1.0, 0), (2, 5, 1, 1.0, 1), (4, 2, 2, 0.0, 2), (2, 3, 7, 3.0, 3))
]


@given(st.floats(min_value=-6, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_gradients_match_reference_bit_for_bit(log_scale, seed):
    x = np.random.default_rng(seed).normal(size=PROBLEM.d) * 10.0**log_scale
    assert same_bits(PROBLEM.full_gradient(x), full_gradient_loop(PROBLEM, x))
    for m in range(PROBLEM.M):
        block = PROBLEM.component_gradients(m, x)
        assert same_bits(block, [PROBLEM.component_gradient(m, j, x) for j in range(PROBLEM.N)])


@pytest.mark.parametrize("problem", QUADRATICS, ids=["d3", "d1", "d2", "d7"])
@given(st.floats(min_value=-6, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_quadratic_component_gradients_match_reference_bit_for_bit(problem, log_scale, seed):
    x = np.random.default_rng(seed).normal(size=problem.d) * 10.0**log_scale
    for m in range(problem.M):
        block = problem.component_gradients(m, x)
        assert same_bits(block, [problem.component_gradient(m, j, x) for j in range(problem.N)])


def test_full_gradient_matches_reference_at_benchmark_shape():
    # 12 clients x 921 rows x 68 features, the phishing-shaped grid
    problem = logistic(M=12, N=921, dim=68, alpha=5e-4, seed=2024)
    rng = np.random.default_rng(7)
    for scale in (1e-6, 1e-2, 1.0, 1e2):
        x = rng.normal(size=problem.d) * scale
        assert same_bits(problem.full_gradient(x), full_gradient_loop(problem, x))


SPECIAL = [0.0, -0.0, 50.0, -50.0, 709.0, -709.0, 1e4, -1e4, np.inf, -np.inf, np.nan, -np.nan]


def test_sigmoid_matches_three_exp_form_at_special_values():
    z = np.array(SPECIAL)
    with np.errstate(over="raise", invalid="raise"):
        got = _sigmoid(z)
    assert same_bits(got, sigmoid_three_exp(z))
    for v in SPECIAL:
        assert same_bits(_sigmoid(v), sigmoid_three_exp(v))
    dense = np.random.default_rng(3).normal(size=10_001) * 60.0
    assert same_bits(_sigmoid(dense), sigmoid_three_exp(dense))
    assert same_bits(_sigmoid(dense[::3]), sigmoid_three_exp(dense[::3]))


def test_solve_optimum_bytes_equal_with_reference_gradient():
    problem = logistic(M=4, N=30, dim=10, alpha=1e-3, seed=5)
    reference = logistic(M=4, N=30, dim=10, alpha=1e-3, seed=5)
    reference.full_gradient = lambda x: full_gradient_loop(reference, x)
    fast = solve_optimum(problem, 1e-12)
    slow = solve_optimum(reference, 1e-12)
    assert same_bits(fast.x_star, slow.x_star)
    assert (fast.f_star, fast.grad_norm) == (slow.f_star, slow.grad_norm)


@pytest.mark.parametrize("problem", [PROBLEM, *QUADRATICS], ids=["logistic", "quadratic", "quadratic-d1", "quadratic-d2", "quadratic-d7"])
def test_star_variances_match_per_component_form(problem):
    rng = np.random.default_rng(11)
    for scale in (1e-6, 1.0, 1e3):
        x = rng.normal(size=problem.d) * scale
        assert star_variances(problem, x) == star_variances_per_component(problem, x)


@pytest.mark.parametrize("count, M, seed", [(120, 3, 0), (103, 10, 1), (40, 1, 9), (11, 11, 4)])
def test_partition_array_gathers_the_tuple_partition_bytes(count, M, seed):
    X, labels = synthetic_libsvm_like(count=count, dim=9, seed=seed, nnz_per_row=4)
    assignment = partition_tuples(count, M, seed)
    assert partition(count, M, seed).tolist() == [list(rows) for rows in assignment]
    problem = logistic_problem(partition(count, M, seed), X, labels, 1e-2)
    A, b = logistic_arrays_gathered(assignment, X, labels)
    assert same_bits(problem._A, A) and same_bits(problem._b, b)


def test_text_round_trip_is_byte_identical():
    X, labels = synthetic_libsvm_like(feature_scale=0.123456789)
    text = libsvm_text(X, labels)
    assert text == to_libsvm_text_scalars(X, labels)
    X2, labels2 = parse_libsvm(text)
    assert same_bits(X2, X) and same_bits(labels2, labels)
    assert X2.dtype == np.float64 and X2.flags.c_contiguous and X2.shape == (11055, 68)
    assert libsvm_text(X2, labels2) == text


def test_no_floating_point_warnings_far_outside_exp_range():
    x = np.full(PROBLEM.d, 1e4)
    assert np.abs(PROBLEM._A @ x).max() > 1e4  # |z| far above 709
    ms = list(range(PROBLEM.M))
    order = np.repeat(np.arange(PROBLEM.N)[None, :], PROBLEM.M, axis=0)
    bounds = ((0, 20), (20, PROBLEM.N))
    with np.errstate(over="raise", invalid="raise"):
        for sign in (1.0, -1.0):
            PROBLEM.full_gradient(sign * x)
            PROBLEM.cohort_pass(ms, sign * x, 1e-3, order, bounds)
            for m in ms:
                logistic_local_pass(PROBLEM, m, sign * x, 1e-3, [order[m, a:b] for a, b in bounds])
