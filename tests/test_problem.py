import numpy as np
import pytest

from fedrr.dataset import partition, synthetic_libsvm_like
from fedrr.problem import (
    LogisticProblem,
    ProblemError,
    SolverError,
    logistic_problem,
    quadratic_problem,
    solve_optimum,
)
from fedrr.rng import stream


def small_logistic(M=3, N=8, alpha=1e-2, seed=0):
    X, labels = synthetic_libsvm_like(count=M * N, dim=6, seed=seed, nnz_per_row=3)
    return logistic_problem(partition(M * N, M, seed), X, labels, alpha)


def small_quadratic(M=3, N=4, d=3, seed=0, client_spread=1.0, sample_spread=0.5):
    return quadratic_problem(M, N, d, mu=0.5, L=4.0, client_spread=client_spread, sample_spread=sample_spread, seed=seed)


def finite_diff(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


@pytest.mark.parametrize("factory", [small_logistic, small_quadratic])
def test_component_gradients_match_finite_differences(factory):
    problem = factory()
    rng = stream(42, "fd_probes")
    checked = 0
    while checked < 100:
        m = int(rng.integers(problem.M))
        j = int(rng.integers(problem.N))
        x = rng.normal(size=problem.d)
        g = problem.component_gradient(m, j, x)
        g_fd = finite_diff(lambda y: problem.component_loss(m, j, y), x)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * max(1.0, np.linalg.norm(g))
        checked += 1


@pytest.mark.parametrize("factory", [small_logistic, small_quadratic])
def test_gradient_aggregation_consistency(factory):
    problem = factory()
    rng = stream(1, "agg")
    x = rng.normal(size=problem.d)
    for m in range(problem.M):
        parts = np.mean([problem.component_gradient(m, j, x) for j in range(problem.N)], axis=0)
        assert np.allclose(problem.client_gradient(m, x), parts, atol=1e-12)
    full = np.mean([problem.client_gradient(m, x) for m in range(problem.M)], axis=0)
    assert np.allclose(problem.full_gradient(x), full, atol=1e-12)


def test_full_objective_gradient_finite_diff():
    problem = small_logistic()
    rng = stream(2, "obj")
    x = rng.normal(size=problem.d)
    g_fd = finite_diff(problem.objective_value, x)
    assert np.linalg.norm(problem.full_gradient(x) - g_fd) <= 1e-5


def test_quadratic_spectrum_within_bounds():
    problem = small_quadratic()
    for m in range(problem.M):
        for j in range(problem.N):
            eigs = np.linalg.eigvalsh(problem._H[m, j])
            assert eigs.min() >= problem.mu - 1e-9
            assert eigs.max() <= problem.L + 1e-9


def test_quadratic_analytic_optimum():
    problem = small_quadratic()
    opt = problem.analytic_optimum()
    assert np.linalg.norm(problem.full_gradient(opt.x_star)) <= 1e-10


def test_logistic_constants():
    problem = small_logistic(alpha=1e-2)
    row_sq = np.einsum("mnd,mnd->mn", problem._A, problem._A)
    assert problem.L == pytest.approx(row_sq.max() / 4 + 1e-2)
    assert problem.mu == pytest.approx(1e-2)


def test_solver_reaches_tolerance():
    problem = small_logistic(alpha=0.1)
    opt = solve_optimum(problem, tol=1e-12)
    assert opt.grad_norm <= 1e-12
    assert np.linalg.norm(problem.full_gradient(opt.x_star)) <= 1e-12


def test_solver_matches_analytic_on_quadratic():
    problem = small_quadratic()
    numeric = solve_optimum(problem, tol=1e-12)
    exact = problem.analytic_optimum()
    assert np.linalg.norm(numeric.x_star - exact.x_star) <= 1e-9


def test_solver_iteration_cap():
    problem = small_logistic(alpha=1e-4)
    with pytest.raises(SolverError) as info:
        solve_optimum(problem, tol=1e-14, max_iter=3)
    assert info.value.grad_norm > 0


def test_solver_stops_at_a_non_finite_gradient():
    # one NaN feature makes every gradient NaN: the solve stops at once instead of running to its cap
    A = np.ones((2, 2, 3))
    A[1, 0, 2] = np.nan
    with pytest.raises(SolverError, match="non-finite gradient") as info:
        solve_optimum(LogisticProblem(A, np.ones((2, 2)), alpha=0.1), tol=1e-12)
    assert np.isnan(info.value.grad_norm)


def test_solver_rejects_bad_inputs():
    problem = small_quadratic()
    with pytest.raises(ProblemError):
        solve_optimum(problem, tol=-1.0)


@pytest.mark.parametrize("solve", ["analytic", "solver"])
def test_optimum_is_derived_from_x_star_alone(solve):
    problem = small_quadratic() if solve == "analytic" else small_logistic(alpha=1e-2)
    opt = problem.analytic_optimum() if solve == "analytic" else solve_optimum(problem, tol=1e-12)
    assert opt.f_star == problem.objective_value(opt.x_star)
    assert opt.grad_norm == np.linalg.norm(problem.full_gradient(opt.x_star))


def test_local_pass_generic_matches_manual():
    problem = small_quadratic()
    x0 = np.ones(problem.d)
    perm = np.array([2, 0, 1, 3])
    x = x0.copy()
    for j in perm:
        x = x - 0.05 * problem.component_gradient(1, int(j), x)
    out = problem.cohort_pass([1], x0, 0.05, perm[None, :], ((0, 1), (1, 2), (2, 3), (3, 4)))[0]
    assert np.allclose(out, x, atol=1e-14)


def test_local_pass_batched_uses_batch_means():
    problem = small_quadratic()
    x0 = np.zeros(problem.d)
    batch = np.array([0, 2])
    g = 0.5 * (problem.component_gradient(0, 0, x0) + problem.component_gradient(0, 2, x0))
    out = problem.cohort_pass([0], x0, 0.1, batch[None, :], ((0, 2),))[0]
    assert np.allclose(out, x0 - 0.1 * g, atol=1e-14)


def test_index_validation():
    problem = small_quadratic()
    with pytest.raises(IndexError):
        problem.component_gradient(99, 0, np.zeros(problem.d))
    with pytest.raises(IndexError):
        problem.component_gradient(0, 99, np.zeros(problem.d))


@pytest.mark.parametrize("M, N, d", [(0, 4, 3), (3, 0, 3), (3, 4, 0)])
def test_quadratic_sizes_must_be_positive(M, N, d):
    with pytest.raises(ProblemError, match=f"^quadratic sizes must be at least 1, got M={M}, N={N}, d={d}$"):
        quadratic_problem(M, N, d, mu=0.5, L=4.0, client_spread=1.0, sample_spread=0.5, seed=0)


def test_empty_partition_rejected():
    X, labels = synthetic_libsvm_like(count=6, dim=3, seed=0, nnz_per_row=2)
    with pytest.raises(ProblemError, match="at least one sample per client"):
        logistic_problem(np.zeros((2, 0), dtype=np.int64), X, labels, 1e-2)
