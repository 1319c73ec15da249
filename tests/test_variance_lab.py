import math
from fractions import Fraction

import numpy as np
import pytest

from eager_reference import (
    brute_force_all_tensor,
    enumerate_sequences_loop,
    star_sequence_loop,
)
from fedrr.dataset import partition, synthetic_libsvm_like
from fedrr.problem import logistic_problem, quadratic_problem, solve_optimum
from fedrr.rng import stream
from fedrr.theory import sigma_ds_upper
from fedrr.variance_lab import (
    EnumerationTooLarge,
    VarianceInputs,
    _enumerate_sequences,
    _prefix_gram,
    brute_force_all,
    closed_form_minibatch_variance,
    closed_form_variance,
    max_rel_error,
    star_sequence_deviation,
    star_variances,
)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-30)


def test_population_variances_match_definitions():
    z = stream(0, "vi").normal(size=(3, 4, 2))
    inp = VarianceInputs(z)
    grand = z.mean(axis=(0, 1))
    s2 = np.mean([np.sum((z[m, j] - grand) ** 2) for m in range(3) for j in range(4)])
    cm = z.mean(axis=1)
    st2 = np.mean([np.sum((cm[m] - grand) ** 2) for m in range(3)])
    assert inp.sigma2 == pytest.approx(s2, abs=1e-14)
    assert inp.sigma_tilde2 == pytest.approx(st2, abs=1e-14)


def test_hand_example_m1_n3():
    # samples {0,1,2}, k=1: population variance 2/3
    inp = VarianceInputs(np.array([[[0.0], [1.0], [2.0]]]))
    assert closed_form_variance(1, 1, 3, inp.sigma2, inp.sigma_tilde2) == pytest.approx(2 / 3)
    assert brute_force_all(inp)[0] == pytest.approx(2 / 3)


def test_two_level_scalar_example():
    # M=2, N=2, per-client values {0,0} and {1,1}: checked against enumeration
    inp = VarianceInputs(np.array([[[0.0], [0.0]], [[1.0], [1.0]]]))
    for k in range(1, 5):
        cf = closed_form_variance(k, 2, 2, inp.sigma2, inp.sigma_tilde2)
        assert abs(cf - brute_force_all(inp)[k - 1]) <= 1e-12


def test_full_average_is_deterministic():
    rng = stream(3, "fa")
    inp = VarianceInputs(rng.normal(size=(3, 2, 2)))
    assert abs(closed_form_variance(6, 3, 2, inp.sigma2, inp.sigma_tilde2)) <= 1e-12
    assert brute_force_all(inp)[5] <= 1e-24


def test_all_equal_inputs_zero_variance():
    inp = VarianceInputs(np.full((2, 3, 2), 1.5))
    for k in range(1, 7):
        assert brute_force_all(inp)[k - 1] <= 1e-28
        assert abs(closed_form_variance(k, 2, 3, inp.sigma2, inp.sigma_tilde2)) <= 1e-28


def test_single_data_point_per_client():
    # N=1 branch: sigma_tilde^2 (M-k)/(k(M-1))
    rng = stream(5, "n1")
    inp = VarianceInputs(rng.normal(size=(5, 1, 2)))
    for k in range(1, 6):
        cf = closed_form_variance(k, 5, 1, inp.sigma2, inp.sigma_tilde2)
        assert rel_err(cf, inp.sigma_tilde2 * (5 - k) / (k * 4)) <= 1e-14
        assert abs(cf - brute_force_all(inp)[k - 1]) <= 1e-12


def test_single_client_reduction():
    rng = stream(6, "m1")
    inp = VarianceInputs(rng.normal(size=(1, 5, 2)))
    for k in range(1, 6):
        cf = closed_form_variance(k, 1, 5, inp.sigma2, inp.sigma_tilde2)
        assert rel_err(cf, inp.sigma2 * (5 - k) / (k * 4)) <= 1e-14


def test_first_block_matches_display():
    # for k < N the variance equals (N-k)/(k(N-1)) s2 + N/(N-1) (1-1/k) st2
    rng = stream(7, "disp")
    M, N = 3, 4
    inp = VarianceInputs(rng.normal(size=(M, N, 2)))
    for k in range(1, N):
        display = (N - k) / (k * (N - 1)) * inp.sigma2 + N / (N - 1) * (1 - 1 / k) * inp.sigma_tilde2
        cf = closed_form_variance(k, M, N, inp.sigma2, inp.sigma_tilde2)
        assert rel_err(cf, display) <= 1e-12


def test_minibatch_reduces_to_plain_at_c1():
    rng = stream(8, "c1")
    inp = VarianceInputs(rng.normal(size=(3, 2, 2)))
    for k in range(1, 7):
        a = closed_form_minibatch_variance(k, 3, 2, 1, inp.sigma2, inp.sigma_tilde2)
        b = closed_form_variance(k, 3, 2, inp.sigma2, inp.sigma_tilde2)
        assert rel_err(a, b) <= 1e-14


def test_minibatch_matches_enumeration():
    rng = stream(9, "mb")
    for M, N, C in [(4, 2, 2), (4, 3, 2), (6, 2, 3), (6, 2, 2)]:
        inp = VarianceInputs(rng.normal(size=(M, N, 2)))
        R = M // C
        for k in range(1, N * R + 1):
            cf = closed_form_minibatch_variance(k, M, N, C, inp.sigma2, inp.sigma_tilde2)
            bf = brute_force_all(inp, C)[k - 1]
            assert abs(cf - bf) <= 1e-10 * max(1.0, abs(bf))


def test_minibatch_full_average_zero():
    rng = stream(10, "mb0")
    inp = VarianceInputs(rng.normal(size=(4, 3, 2)))
    assert abs(closed_form_minibatch_variance(6, 4, 3, 2, inp.sigma2, inp.sigma_tilde2)) <= 1e-12


def test_minibatch_validation():
    with pytest.raises(ValueError):
        closed_form_minibatch_variance(1, 5, 2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        closed_form_minibatch_variance(7, 4, 3, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        closed_form_variance(0, 2, 2, 1.0, 1.0)


def test_covariance_signs_in_enumeration():
    # cross-client sample covariance is -st2/(M-1); same-client distinct-
    # position covariance is (N*st2 - s2)/(N-1)
    rng = stream(11, "cov")
    for M, N in [(3, 2), (4, 2), (2, 3)]:
        inp = VarianceInputs(rng.normal(size=(M, N, 2)))
        seq = _enumerate_sequences(M, N, 1)[:, 0, :]
        flat = inp.zeta.reshape(M * N, -1) - inp.grand_mean
        vals = flat[seq]
        cross = np.mean(np.sum(vals[:, 0] * vals[:, N], axis=-1))
        assert rel_err(cross, -inp.sigma_tilde2 / (M - 1)) <= 1e-10
        within = np.mean(np.sum(vals[:, 0] * vals[:, 1], axis=-1))
        expected = (N * inp.sigma_tilde2 - inp.sigma2) / (N - 1)
        assert abs(within - expected) <= 1e-12


def test_upper_bound_dominates():
    rng = stream(12, "ub")
    for _ in range(20):
        M, N = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        inp = VarianceInputs(rng.normal(size=(M, N, 2)))
        bound = sigma_ds_upper(1.0, M, N, 1, inp.sigma_tilde2, inp.sigma2)
        for k in range(1, M * N + 1):
            assert k * k * closed_form_variance(k, M, N, inp.sigma2, inp.sigma_tilde2) <= bound + 1e-12


def test_enumeration_guard():
    with pytest.raises(EnumerationTooLarge):
        _enumerate_sequences(6, 6, 1)


# every (M, N, C) with M*N <= 8 and C dividing M: the verify-variance default
GEOMETRIES = [
    (M, N, C) for M in range(1, 9) for N in range(1, 9) if M * N <= 8 for C in range(1, M + 1) if M % C == 0
]


@pytest.mark.parametrize("M, N, C", GEOMETRIES)
def test_outcome_table_matches_loop(M, N, C):
    table = _enumerate_sequences(M, N, C)
    assert table.dtype == np.int64
    assert np.array_equal(table, enumerate_sequences_loop(M, N, C))


@pytest.mark.parametrize("M, N, C", GEOMETRIES)
def test_every_slot_of_the_outcome_table_is_uniform(M, N, C):
    # each (group, position) slot holds every sample in n_out/(M*N) outcomes, so every sample carries the
    # same mean weight in every prefix estimator: the estimators are unbiased for the grand mean
    table = _enumerate_sequences(M, N, C)
    n_out = len(table)
    assert n_out % (M * N) == 0
    slots = table.reshape(n_out, -1).T
    counts = np.stack([np.bincount(slot, minlength=M * N) for slot in slots])
    assert counts.shape == (N * M, M * N)
    assert np.all(counts == n_out // (M * N))


def close_to_oracle(got, want, tol=1e-12):
    # relative where the oracle exceeds tol, absolute below it
    want = np.asarray(want)
    err = np.abs(np.asarray(got) - want)
    return bool(np.all(np.where(np.abs(want) > tol, err <= tol * np.abs(want), err <= tol)))


@pytest.mark.parametrize("M, N, C", GEOMETRIES)
def test_gram_oracle_matches_estimator_tensor(M, N, C):
    rng = stream(14, "gram", M, N, C)
    base = rng.normal(size=(M, N, 2))
    for zeta in (base, base * 1e-6, base * 1e6, rng.normal(size=(M, N, 2)) + 3.0):
        inp = VarianceInputs(zeta)
        assert close_to_oracle(brute_force_all(inp, C), brute_force_all_tensor(inp, C))
    inp = VarianceInputs(np.full((M, N, 2), 1.5))
    assert np.all(brute_force_all(inp, C) == 0.0)


def test_brute_force_all_is_the_exact_quadratic_form():
    # far from zero mean, so the centring before the Gram product is what keeps it accurate
    rng = stream(16, "exact")
    for M, N, C in GEOMETRIES:
        inp = VarianceInputs(rng.normal(size=(M, N, 2)) + 1e3)
        gram, n_out = _prefix_gram(M, N, C)
        flat = [[Fraction(float(v)) for v in col] for col in inp.zeta.reshape(M * N, 2).T]
        z = [[v - sum(col) / (M * N) for v in col] for col in flat]
        got = brute_force_all(inp, C)
        for k, g in enumerate(gram.astype(np.int64).tolist(), start=1):
            form = sum(gij * zc[i] * zc[j] for zc in z for i, row in enumerate(g) for j, gij in enumerate(row))
            exact = float(form / (n_out * C * (C * k * M * N) ** 2))
            assert abs(got[k - 1] - exact) <= 1e-14 * abs(exact) + 1e-300


def test_prefix_gram_is_exact_and_structured():
    for M, N, C in GEOMETRIES:
        gram, n_out = _prefix_gram(M, N, C)
        assert n_out == math.factorial(M) * math.factorial(N) ** M
        assert gram.shape == (N * M // C, M * N, M * N)
        assert np.all(gram == np.round(gram)) and np.abs(gram).max() < 2.0**53
        assert np.array_equal(gram, gram.transpose(0, 2, 1))
        assert np.all(gram.sum(axis=2) == 0.0)
        # the full average is the grand mean under every outcome
        assert np.all(gram[-1] == 0.0)
        assert not gram.flags.writeable


def test_enumeration_argument_checks():
    inp = VarianceInputs(stream(15, "div").normal(size=(4, 2, 1)))
    with pytest.raises(ValueError, match="does not divide"):
        brute_force_all(inp, 3)


def test_report_serializes():
    inp = VarianceInputs(stream(13, "rep").normal(size=(2, 2, 1)))
    assert max_rel_error(inp, C=1) <= 1e-10


def test_star_sequence_zero_gradients():
    problem = quadratic_problem(2, 2, 2, mu=1.0, L=2.0, client_spread=0.0, sample_spread=0.0, seed=0)
    opt = problem.analytic_optimum()
    stats = star_sequence_deviation(problem, opt.x_star, gamma=0.1, C=1, n_draws=5)
    assert stats.max_mean_sq_dev <= 1e-24
    assert stats.max_sigma_ds <= 1e-12


def test_star_sequence_scales_as_gamma_squared():
    problem = quadratic_problem(4, 3, 2, mu=1.0, L=3.0, client_spread=1.0, sample_spread=0.5, seed=1)
    opt = problem.analytic_optimum()
    a = star_sequence_deviation(problem, opt.x_star, gamma=0.01, C=2, n_draws=20, seed=3)
    b = star_sequence_deviation(problem, opt.x_star, gamma=0.02, C=2, n_draws=20, seed=3)
    ratio = b.mean_sq_dev / np.maximum(a.mean_sq_dev, 1e-300)
    assert np.allclose(ratio, 4.0, rtol=1e-9)


def _star_problems():
    X, labels = synthetic_libsvm_like(count=26, dim=5, seed=2, nnz_per_row=3)
    logistic = logistic_problem(partition(26, 4, 6), X, labels, 5e-2)
    yield pytest.param(logistic, solve_optimum(logistic, 1e-12).x_star, id="logistic")
    for M, N, d, seed in ((4, 3, 2, 1), (6, 2, 3, 4), (3, 5, 1, 0)):
        quad = quadratic_problem(M, N, d, mu=1.0, L=5.0, client_spread=1.0, sample_spread=0.5, seed=seed)
        yield pytest.param(quad, quad.analytic_optimum().x_star, id=f"quadratic-{M}x{N}x{d}")


@pytest.mark.parametrize("problem, x_star", list(_star_problems()))
@pytest.mark.parametrize("full", [False, True], ids=["C=1", "C=M"])
def test_star_sequence_matches_per_step_oracle_reads(problem, x_star, full):
    # x*'s gradients and losses read once must give every statistic the bytes of the per-step reads
    C = problem.M if full else 1
    for gamma in (0.01, 0.3 / problem.L):
        got = star_sequence_deviation(problem, x_star, gamma, C, n_draws=15, seed=7)
        want = star_sequence_loop(problem, x_star, gamma, C, n_draws=15, seed=7)
        assert got.mean_sq_dev.tobytes() == want.mean_sq_dev.tobytes()
        assert got.mean_sq_dev.shape == want.mean_sq_dev.shape
        assert repr(got.max_mean_sq_dev) == repr(want.max_mean_sq_dev)
        assert repr(got.max_sigma_ds) == repr(want.max_sigma_ds)
