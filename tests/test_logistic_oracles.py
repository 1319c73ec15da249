"""The vectorised logistic oracles, both problems' stacked gradient kernels,
the optimum solver and the LIBSVM codec against their per-component and
one-point reference forms in ``eager_reference``: every comparison is on raw
bytes, not within a tolerance."""

import functools
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decimal_reference import logistic_gradient, newton_optimum, norm
from eager_reference import (
    client_gradient_loop,
    component_gradient,
    full_gradient_loop,
    libsvm_text_per_value,
    logistic_arrays_gathered,
    logistic_local_pass,
    objective_per_client,
    partition_tuples,
    quadratic_full_gradient_loop,
    sigmoid_three_exp,
    solve_optimum_loop,
    star_variances_per_component,
    to_libsvm_text_scalars,
    unsigned_client_gradient,
    unsigned_component_gradient,
    unsigned_component_loss,
    unsigned_full_gradient,
    unsigned_local_pass,
    unsigned_objective,
)
from fedrr.dataset import libsvm_text, parse_libsvm, partition, synthetic_libsvm_like
from fedrr.optimizer import _batch_bounds
from fedrr.problem import (
    LogisticProblem,
    ProblemError,
    QuadraticProblem,
    SolverError,
    _sigmoid,
    logistic_problem,
    quadratic_problem,
    solve_optimum,
)
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
        assert same_bits(block, [component_gradient(PROBLEM, m, j, x) for j in range(PROBLEM.N)])


@pytest.mark.parametrize("problem", QUADRATICS, ids=["d3", "d1", "d2", "d7"])
@given(st.floats(min_value=-6, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_quadratic_component_gradients_match_reference_bit_for_bit(problem, log_scale, seed):
    x = np.random.default_rng(seed).normal(size=problem.d) * 10.0**log_scale
    for m in range(problem.M):
        block = problem.component_gradients(m, x)
        assert same_bits(block, [component_gradient(problem, m, j, x) for j in range(problem.N)])


def test_full_gradient_matches_reference_at_benchmark_shape():
    # 12 clients x 921 rows x 68 features, the phishing-shaped grid
    problem = logistic(M=12, N=921, dim=68, alpha=5e-4, seed=2024)
    rng = np.random.default_rng(7)
    for scale in (1e-6, 1e-2, 1.0, 1e2):
        x = rng.normal(size=problem.d) * scale
        assert same_bits(problem.full_gradient(x), full_gradient_loop(problem, x))
        P = np.stack((x, rng.normal(size=problem.d) * scale, -x))
        for k in (2, 3):
            assert all(same_bits(g, full_gradient_loop(problem, p)) for p, g in zip(P, problem.full_gradients(P[:k])))


POINT = st.tuples(st.floats(min_value=-6, max_value=4), st.sampled_from([None, 0.0, -0.0]))


def stacked_points(d, points, seed):
    """One point per (log10 scale, zero) pair; a zero replaces about a third of its point's coordinates."""
    rng = np.random.default_rng(seed)
    P = np.array([rng.normal(size=d) * 10.0**log_scale for log_scale, _ in points])
    for p, (_, zero) in zip(P, points):
        if zero is not None:
            p[rng.random(d) < 0.35] = zero
    return P


@given(st.lists(POINT, min_size=1, max_size=3), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_gradient_kernel_matches_reference_at_each_point(points, seed):
    P = stacked_points(PROBLEM.d, points, seed)
    with np.errstate(over="raise", invalid="raise"):  # scales up to 1e4 put |z| far past exp's range
        G = PROBLEM.full_gradients(P)
    assert G.shape == P.shape
    for p, g in zip(P, G):
        assert same_bits(g, full_gradient_loop(PROBLEM, p))


def test_gradient_kernel_matches_reference_far_outside_exp_range_and_at_a_nan_feature():
    x = np.full(PROBLEM.d, 1e4)
    assert np.abs(PROBLEM._R @ x).max() > 1e4
    P = np.stack((x, -x, np.zeros(PROBLEM.d), np.full(PROBLEM.d, -0.0)))
    with np.errstate(over="raise", invalid="raise"):
        G = PROBLEM.full_gradients(P)
    assert all(same_bits(g, full_gradient_loop(PROBLEM, p)) for p, g in zip(P, G))
    R = PROBLEM._R.copy()
    R[1, 3, 2] = np.nan
    problem = LogisticProblem(R, PROBLEM.alpha)
    G = problem.full_gradients(P[1:])
    assert np.isnan(G).all(axis=1).any()
    assert all(same_bits(g, full_gradient_loop(problem, p)) for p, g in zip(P[1:], G))


@pytest.mark.parametrize("M, N, d", [(1, 1, 1), (1, 7, 3), (2, 1, 5), (12, 1, 1), (300, 3, 4)])
def test_stacked_client_pass_matches_the_per_client_loop(M, N, d):
    # one stacked pass over every client and point must give the loop's bytes on shapes the loop never
    # stacked; at 12 x 1 x 1 a pairwise sum of the client rows, as np.add.reduce takes it, would differ.
    # With the NaN feature the coordinates are finite: a NaN from it and one from an infinite coordinate
    # have opposite signs, and which one a sum keeps depends on numpy's SIMD lanes, so a k-point call and the
    # one-point loop can differ in a NaN's sign bit, as they could before the stacking
    rng = np.random.default_rng([51, M, N, d])
    R = rng.normal(size=(M, N, d)) * 10.0 ** rng.uniform(-2, 2, size=(M, N, 1))
    R[rng.random(R.shape) < 0.2] = -0.0
    with_nan = R.copy()
    with_nan[M // 2, N - 1, 0] = np.nan
    with np.errstate(all="ignore"):  # inf and NaN coordinates, and slopes past exp's range
        for problem, specials in ((LogisticProblem(R, 1e-2), [0.0, -0.0, np.inf, -np.inf]), (LogisticProblem(with_nan, 1e-2), [0.0, -0.0])):
            for k in (1, 2, 3):
                for _ in range(8):
                    P = rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-3, 5, size=(k, 1))
                    special = rng.random(P.shape) < 0.3
                    P[special] = rng.choice(specials, size=special.sum())
                    G = problem.full_gradients(P)
                    assert G.shape == P.shape
                    assert all(same_bits(g, full_gradient_loop(problem, p)) for p, g in zip(P, G))


def test_a_nan_gradient_is_nan_in_every_form():
    # the NaN feature's +NaN and the -NaN of 0 * inf meet in the client sum, and which one it keeps depends on the
    # lanes numpy's SIMD add puts them in: [inf] gives -NaN alone and from the loop, +NaN as a row of a pair. Only rows
    # that are not NaN keep the one-point call's bytes; a non-finite gradient stops the solver, so no contract byte
    # carries the sign
    R = np.ones((12, 1, 1))
    R[0], R[1] = np.nan, 0.0
    problem = LogisticProblem(R, 1e-2)
    x = np.array([np.inf])
    with np.errstate(all="ignore"):
        forms = [problem.full_gradient(x), full_gradient_loop(problem, x)]
        forms += [*problem.full_gradients(np.array([[np.inf], [1.0]])), *problem.full_gradients(np.array([[1.0], [np.inf]]))]
    assert all(np.isnan(g).all() for g in forms)


def test_a_point_past_the_float_range_raises_in_matmul_as_the_loop_does():
    x = np.full(PROBLEM.d, 1e308)
    for gradient in (lambda x: PROBLEM.full_gradients(x[None]), lambda x: full_gradient_loop(PROBLEM, x)):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="^overflow encountered in matmul$"):
            gradient(x)


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
    # the first three problems reach the Nesterov phase (568-990 gradient pairs), the last stops before it
    for M, N, dim, alpha, seed in ((4, 30, 10, 1e-3, 5), (3, 40, 12, 1e-4, 0), (6, 15, 7, 3e-4, 2), (2, 50, 20, 1e-1, 9)):
        problem = logistic(M, N, dim, alpha, seed)
        fast = solve_optimum(problem, 1e-12)
        slow = solve_optimum_loop(problem, 1e-12)
        assert same_bits(fast.x_star, slow.x_star)
        assert (fast.f_star, fast.grad_norm) == (slow.f_star, slow.grad_norm)


@pytest.mark.parametrize("max_iter", [3, 1000, 1001, 1500])
def test_solver_cap_matches_loop_solver(max_iter):
    problem = logistic(M=4, N=30, dim=10, alpha=1e-4, seed=5)
    capped = []
    for solve in (solve_optimum, solve_optimum_loop):
        with pytest.raises(SolverError, match="iteration cap") as info:
            solve(problem, 1e-300, max_iter=max_iter)
        capped.append((str(info.value), info.value.grad_norm))
    assert capped[0] == capped[1]


def test_solver_and_kernel_match_the_loops_on_a_block_blas_may_thread():
    # one 8,000 x 68 client: OpenBLAS splits a gemv of this size over its threads (one of 921 x 68 it
    # does not), and the x* it gives then depends on the thread count; at any one count, the pair
    # kernel and the solver must give the one-point loop's bytes, into the Nesterov phase
    problem = logistic(M=1, N=8000, dim=68, alpha=1e-3, seed=4)
    P = np.random.default_rng(2).normal(size=(2, problem.d))
    assert all(same_bits(g, full_gradient_loop(problem, p)) for p, g in zip(P, problem.full_gradients(P)))
    capped = []
    for solve in (solve_optimum, solve_optimum_loop):
        with pytest.raises(SolverError, match="iteration cap") as info:
            solve(problem, 1e-300, max_iter=1100)
        capped.append((str(info.value), info.value.grad_norm))
    assert capped[0] == capped[1]


@pytest.mark.parametrize("kind", ["logistic", "quadratic"])
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=69),
    st.lists(st.tuples(st.floats(min_value=-8, max_value=4), st.sampled_from([None, 0.0, -0.0])), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_client_gradients_match_the_per_client_form(kind, M, d, points, seed):
    rng = np.random.default_rng(seed)
    if kind == "logistic":
        N = int(rng.integers(1, 60))
        A, b = rng.normal(size=(M, N, d)), rng.choice([-1.0, 1.0], size=(M, N))
        problem = LogisticProblem(-b[..., None] * A, 10.0 ** rng.uniform(-4, 0))
    else:
        problem = quadratic_problem(M, int(rng.integers(1, 5)), d, mu=0.5, L=4.0, seed=seed)
    for x in stacked_points(d, points, seed):
        G = problem.client_gradients(x)
        assert G.shape == (M, d)
        assert all(same_bits(g, client_gradient_loop(problem, m, x)) for m, g in enumerate(G))


def test_client_gradients_match_the_per_client_form_on_blocks_blas_may_thread():
    # two 8,000 x 68 clients: OpenBLAS splits each back-product gemv of this size over its threads
    problem = logistic(M=2, N=8000, dim=68, alpha=1e-3, seed=4)
    rng = np.random.default_rng(5)
    for scale in (1e-8, 1e-2, 1.0, 1e4):
        x = rng.normal(size=problem.d) * scale
        x[rng.random(problem.d) < 0.2] = -0.0
        G = problem.client_gradients(x)
        assert all(same_bits(g, client_gradient_loop(problem, m, x)) for m, g in enumerate(G))


@given(
    st.integers(min_value=1, max_value=69),
    st.lists(st.floats(min_value=-8, max_value=8), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_quadratic_gradient_kernel_matches_the_one_point_form(d, log_scales, seed):
    problem = quadratic_problem(2, 2, d, mu=0.5, L=4.0, seed=seed)
    rng = np.random.default_rng(seed)
    P = np.array([rng.normal(size=d) * 10.0**log_scale for log_scale in log_scales])
    G = problem.full_gradients(P)
    assert G.shape == P.shape
    for p, g in zip(P, G):
        assert same_bits(g, quadratic_full_gradient_loop(problem, p))
        assert same_bits(problem.full_gradient(p), g)


def solver_outcome(solve, problem, **kw):
    """The optimum ``solve`` returns, as bytes and floats, or its cap message and gradient norm."""
    try:
        opt = solve(problem, **kw)
    except SolverError as exc:
        return str(exc), exc.grad_norm
    return opt.x_star.tobytes(), opt.f_star, opt.grad_norm


# the d2 problem is homogeneous: its optimum is the solver's start point 0
@pytest.mark.parametrize("problem", [QUADRATICS[i] for i in (0, 1, 3)], ids=["d3", "d1", "d7"])
def test_quadratic_solver_bytes_equal_the_one_point_loop_solver(problem):
    # L a hundred times the curvature bound: 1000 steps of 1/L leave ||grad f|| above 1e-12, so each solve
    # runs into the Nesterov phase
    slow = QuadraticProblem(problem._H, problem._c, mu=problem.mu, L=100 * problem.L)
    with pytest.raises(SolverError, match="1000-iteration cap"):
        solve_optimum(slow, 1e-12, max_iter=1000)
    loop = functools.partial(solve_optimum_loop, gradient=quadratic_full_gradient_loop)
    for kw in ({"tol": 1e-300, "max_iter": 1100}, {"tol": 1e-12}):
        assert solver_outcome(solve_optimum, slow, **kw) == solver_outcome(loop, slow, **kw)


def diverging_quadratic():
    # L just above half the top curvature: 1/L descent is stable, Nesterov's momentum is not
    problem = quadratic_problem(3, 4, 3, mu=0.5, L=4.0, seed=1)
    problem.L = 0.51 * np.linalg.eigvalsh(problem._H.sum(axis=(0, 1)) / (problem.M * problem.N))[-1]
    return problem


@pytest.mark.parametrize("mode", ["raise", "warn", "ignore"])
def test_nesterov_divergence_fails_as_the_loop_solver_does(mode):
    with pytest.raises(SolverError, match="iteration cap"):
        solve_optimum(diverging_quadratic(), 1e-300, max_iter=1000)  # the 1/L phase stays finite
    failures = []
    loop = functools.partial(solve_optimum_loop, gradient=lambda problem, x: problem.full_gradient(x))
    for solve in (solve_optimum, loop):
        with warnings.catch_warnings(record=True) as caught, np.errstate(all=mode):
            warnings.simplefilter("always")
            with pytest.raises((SolverError, FloatingPointError)) as info:
                solve(diverging_quadratic(), 1e-300, max_iter=5000)
        failures.append((type(info.value), str(info.value), getattr(info.value, "grad_norm", None), [(w.category, str(w.message)) for w in caught]))
    assert failures[0] == failures[1]
    assert (failures[0][0] is FloatingPointError) == (mode == "raise")


def sweep_problem(i):
    """Problem ``i`` of the solver sweep: Gaussian, binary 0/1 and 1e+-3-scaled logistics, and quadratics with L
    a hundred times their curvature, so that their solves reach the Nesterov phase."""
    rng = np.random.default_rng([49, i])
    M, N, d = int(rng.integers(1, 5)), int(rng.integers(2, 41)), int(rng.integers(1, 13))
    kind = ("gaussian", "binary", "scaled", "quadratic")[i % 4]
    if kind == "quadratic":  # every other one is 1-d: there g(x_k) = (1 - L_f / L) g(y), the bound's edge
        q = quadratic_problem(M, N, d if i % 8 == 3 else 1, mu=0.5, L=4.0, client_spread=1.0, sample_spread=0.5, seed=i)
        return QuadraticProblem(q._H, q._c, mu=q.mu, L=100 * q.L)
    A = (rng.random((M, N, d)) < 0.5) * 1.0 if kind == "binary" else rng.normal(size=(M, N, d))
    if kind == "scaled":
        A *= 10.0 ** rng.choice([-3, 3])
    return LogisticProblem(-rng.choice([-1.0, 1.0], size=(M, N))[..., None] * A, 10.0 ** rng.uniform(-4, -1))


# on problems 24 and 36 a rule without the rounding term E skips a stopping test that the loop passes
SWEEP = [sweep_problem(i) for i in (*range(16), 24, 36)]


def record_lows(problem, max_iter):
    """The new lows of the ||g(x_k)|| that the loop solver's stopping test reads in its Nesterov phase, up
    to ``max_iter``: at tolerance ``low`` the loop stops at the iteration that reads ``low``."""
    norms = []

    def gradient(problem, x):
        g = problem.full_gradient(x)
        norms.append(float(np.linalg.norm(g)))
        return g

    solver_outcome(functools.partial(solve_optimum_loop, gradient=gradient), problem, tol=1e-300, max_iter=max_iter)
    low, lows = min(norms[:1001]), []
    for norm in norms[1002::2]:  # past the plain phase the loop takes g(y), then g(x)
        if 0 < norm < low:
            low = norm
            lows.append(low)
    return lows


@pytest.mark.parametrize("i", range(len(SWEEP)))
def test_solver_matches_the_loop_solver_near_the_rounding_floor(i):
    # g(x_k) is skipped only where a bound proves the stopping test fails; near the gradient's rounding
    # floor that proof is tight, and a skip it does not justify moves the stop or the cap's message.  The
    # last tolerances are record lows of the loop's own norms: two spread over its Nesterov phase and its
    # last two, at the floor
    problem = SWEEP[i]
    loop = functools.partial(solve_optimum_loop, gradient=lambda problem, x: problem.full_gradient(x))
    lows = record_lows(problem, 3000)
    kws = [{"tol": (1e-12, 1e-14, 1e-15)[i % 3], "max_iter": 4000}, {"tol": 1e-300, "max_iter": 1200}]
    for kw in kws + [{"tol": low, "max_iter": 3000} for low in lows[: -2 : max(1, len(lows) // 2)][:2] + lows[-2:]]:
        assert solver_outcome(solve_optimum, problem, **kw) == solver_outcome(loop, problem, **kw)


def top_direction(problem):
    """A unit vector along which grad f changes at the rate L_f: near 0 for a logistic, everywhere for a quadratic."""
    if isinstance(problem, LogisticProblem):
        R = problem._R.reshape(-1, problem.d)
        return np.linalg.eigh(R.T @ R)[1][:, -1], 1e-3 / np.sqrt(np.einsum("nd,nd->n", R, R).max())
    return np.linalg.svd(problem._H_sum)[2][0], 1.0


@pytest.mark.parametrize("problem", [PROBLEM, *SWEEP, *QUADRATICS], ids=lambda problem: type(problem).__name__)
def test_gradient_bounds_hold_and_are_tight(problem):
    L_f, e0, e1 = problem.gradient_bounds()
    assert 0 < L_f <= problem.L

    def gap(p, q, L):
        """||g(p) - g(q)|| less L ||p - q|| + E(p) + E(q); at most 0 if L and E bound the computed gradients."""
        g_p, g_q = problem.full_gradients(np.stack((p, q)))
        return np.linalg.norm(g_p - g_q) - L * np.linalg.norm(p - q) - 2 * e0 - e1 * (abs(p).max() + abs(q).max())

    rng = np.random.default_rng(7)
    for log_scale in (-8, -3, 0, 2, 5):
        p = rng.normal(size=problem.d) * 10.0**log_scale
        for q in (rng.normal(size=problem.d) * 10.0**log_scale, p * (1 + 1e-9), np.nextafter(p, np.inf)):
            assert gap(p, q, L_f) <= 0
    v, s = top_direction(problem)
    for p, q in ((s * v, -s * v), (s * v, 0.5 * s * v), (np.zeros(problem.d), 2 * s * v)):
        assert gap(p, q, L_f) <= 0
        assert gap(p, q, 0.99 * L_f) > 0  # so a bound one percent too small fails


def test_gradient_bounds_need_their_rounding_term():
    # one ulp apart, the computed gradients differ by more than L_f times the distance: E is not decorative
    problem = QUADRATICS[3]
    L_f = problem.gradient_bounds()[0]
    P = np.random.default_rng(3).normal(size=(20, problem.d))
    G, G_next = (problem.full_gradients(Q) for Q in (P, np.nextafter(P, np.inf)))
    assert (np.linalg.norm(G - G_next, axis=1) > L_f * np.linalg.norm(P - np.nextafter(P, np.inf), axis=1)).any()


@pytest.mark.parametrize("alpha", [1e-2, 1e-3])
@pytest.mark.parametrize("seed", [4, 7])
def test_solver_optimum_is_within_its_bounds_of_the_40_digit_newton_optimum(seed, alpha):
    # the true gradient at the solver's x*, in Decimal, is within the rounding bound E(x*) of the gradient it
    # reports, whose norm rounds by at most (d + 2) u more; then mu-strong convexity puts the true optimum
    # within ||grad f(x*)|| / mu of x*, and Newton's x* within its own gradient norm / mu of the true optimum
    X, labels = synthetic_libsvm_like(count=40, dim=6, seed=seed, nnz_per_row=3)
    problem = logistic_problem(partition(40, 4, seed), X, labels, alpha)
    opt = solve_optimum(problem, 1e-12)
    x_newton, newton_norm = newton_optimum(problem._R, problem.alpha)
    _, e0, e1 = problem.gradient_bounds()
    E = Decimal(e0 + e1 * np.abs(opt.x_star).max())
    reported = Decimal(opt.grad_norm)
    rounding = (problem.d + 2) * Decimal(2.0**-53) * reported
    assert abs(norm(logistic_gradient(problem._R, problem.alpha, opt.x_star)) - reported) <= E + rounding
    distance = norm([Decimal(a) - b for a, b in zip(opt.x_star, x_newton)])
    assert distance <= (reported + rounding + E + newton_norm) / Decimal(problem.mu)


def test_solver_takes_fewer_than_one_and_a_half_points_per_nesterov_iteration():
    problem = logistic(4, 30, 10, 1e-3, 5)
    points = []
    kernel = problem.full_gradients

    def counted(P):
        points.append(len(P))
        return kernel(P)

    problem.full_gradients = counted
    opt = solve_optimum(problem, 1e-12)
    assert opt.grad_norm <= 1e-12
    # one point at 0, one per plain step and one for the optimum record; the rest is one call per Nesterov step
    nesterov = points[1001:-1]
    assert len(nesterov) > 500 and set(points[:1001] + points[-1:]) == {1}
    assert sum(nesterov) < 1.5 * len(nesterov)


@pytest.mark.parametrize("problem", [PROBLEM, *QUADRATICS], ids=["logistic", "quadratic", "quadratic-d1", "quadratic-d2", "quadratic-d7"])
def test_star_variances_match_per_component_form(problem):
    rng = np.random.default_rng(11)
    for scale in (1e-6, 1.0, 1e3):
        x = rng.normal(size=problem.d) * scale
        assert star_variances(problem, x) == star_variances_per_component(problem, x)


def test_star_variances_peak_below_two_client_blocks():
    # the phishing-shaped grid's 12 clients x 921 rows x 68 features: one client's
    # block of component gradients at a time, never all M*N of them at once
    problem = logistic(M=12, N=921, dim=68, alpha=5e-4, seed=2024)
    x = np.random.default_rng(3).normal(size=problem.d)
    tracemalloc.start()
    try:
        star_variances(problem, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * problem.N * problem.d * 8


@pytest.mark.parametrize("count, M, seed", [(120, 3, 0), (103, 10, 1), (40, 1, 9), (11, 11, 4)])
def test_partition_array_gathers_the_tuple_partition_bytes(count, M, seed):
    X, labels = synthetic_libsvm_like(count=count, dim=9, seed=seed, nnz_per_row=4)
    assignment = partition_tuples(count, M, seed)
    assert partition(count, M, seed).tolist() == [list(rows) for rows in assignment]
    problem = logistic_problem(partition(count, M, seed), X, labels, 1e-2)
    A, b = logistic_arrays_gathered(assignment, X, labels)
    assert same_bits(problem._R, -b[..., None] * A)


TEXT_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 1.0, -1.0, 0.1]) | st.floats()


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=150, deadline=None)
def test_text_matches_scalar_form(rows, cols, data):
    X = np.array(data.draw(st.lists(TEXT_VALUES, min_size=rows * cols, max_size=rows * cols)), dtype=np.float64).reshape(rows, cols)
    labels = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=rows, max_size=rows)), dtype=np.float64)
    assert libsvm_text(X, labels) == to_libsvm_text_scalars(X, labels)


@pytest.mark.parametrize("values", ["binary", "continuous"])
def test_text_peak_memory_is_no_higher_than_the_per_value_form(values):
    X, labels = synthetic_libsvm_like()  # the 11,055 x 68 phishing-shaped set
    if values == "continuous":  # the same nonzeros, each a distinct normal draw
        nonzero = X != 0
        X[nonzero] = np.random.default_rng(0).normal(size=int(nonzero.sum()))
        assert len(np.unique(X[nonzero])) == nonzero.sum()
    assert libsvm_text(X, labels) == libsvm_text_per_value(X, labels)
    peaks = []
    for form in (libsvm_text, libsvm_text_per_value):
        tracemalloc.start()
        try:
            form(X, labels)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


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
    assert np.abs(PROBLEM._R @ x).max() > 1e4  # |z| far above 709
    ms = list(range(PROBLEM.M))
    order = np.repeat(np.arange(PROBLEM.N)[None, :], PROBLEM.M, axis=0)
    bounds = ((0, 20), (20, PROBLEM.N))
    with np.errstate(over="raise", invalid="raise"):
        for sign in (1.0, -1.0):
            PROBLEM.full_gradient(sign * x)
            PROBLEM.cohort_pass(ms, sign * x, 1e-3, order, bounds)
            for m in ms:
                logistic_local_pass(PROBLEM, m, sign * x, 1e-3, [order[m, a:b] for a, b in bounds])


def crafted_data(count, dim, seed, nan_feature):
    """A synthetic dataset with the features where a sign could show in the bytes.

    About half its zero features are -0.0.  Row 0 is all +0.0; row 1 is
    e_0 + e_1, whose dot with a point of x_1 = -x_0 cancels to exactly 0;
    rows 2 and 3 have features near 60 and 1e3, past the sigmoid's clip at
    50 and exp's range at 709 for points of unit scale; with
    ``nan_feature``, row 4 has a NaN feature.
    """
    X, labels = synthetic_libsvm_like(count=count, dim=dim, seed=seed, nnz_per_row=5)
    rng = np.random.default_rng(seed)
    X[(X == 0) & (rng.random(X.shape) < 0.5)] = -0.0
    X[0] = 0.0
    X[1] = 0.0
    X[1, :2] = 1.0
    X[2] *= 60.0
    X[3] = rng.normal(size=dim) * 1e3
    if nan_feature:
        X[4, 1] = np.nan
    return X, labels


def crafted_points(dim, seed):
    """Points with x_1 = -x_0 at unit scale, 1e2 and 1e4, negated, zeros of both signs, and with NaN and +-inf entries."""
    x = np.random.default_rng(seed).normal(size=dim)
    x[1] = -x[0]
    nan, inf = x.copy(), x.copy()
    nan[2] = np.nan
    inf[2], inf[3] = np.inf, -np.inf
    return [x, 1e2 * x, 1e4 * x, -x, np.zeros(dim), np.full(dim, -0.0), nan, inf]


@pytest.mark.parametrize(
    "M, N, dim, nan_feature", [(3, 40, 12, False), (3, 40, 12, True), (12, 921, 68, False)], ids=["small", "nan-feature", "benchmark"]
)
def test_signed_rows_give_the_unsigned_bytes(M, N, dim, nan_feature):
    # logistic_problem stores r = -b a; every kernel must give the bytes of the unsigned forms on the dataset's a and b
    X, labels = crafted_data(M * N, dim, seed=M, nan_feature=nan_feature)
    part = partition(M * N, M, 0)
    problem = logistic_problem(part, X, labels, 1e-2)
    A, b, alpha = X[part], labels[part], problem.alpha
    P = crafted_points(dim, seed=M)
    with np.errstate(all="ignore"):  # NaN and inf points, and z past exp's range
        assert (A[..., :2] @ P[0][:2] == 0).any()  # the cancelling row
        assert np.nanmax(np.abs(A @ P[0])) > 709
        for x in P:
            assert same_bits(problem.objective_value(x), unsigned_objective(A, b, alpha, x))
            assert same_bits(problem.full_gradients(x[None])[0], unsigned_full_gradient(A, b, alpha, x))
            assert same_bits(problem.client_gradients(x), [unsigned_client_gradient(A[m], b[m], alpha, x) for m in range(M)])
            for m in range(M):
                assert same_bits(problem.component_gradients(m, x), [unsigned_component_gradient(a, y, alpha, x) for a, y in zip(A[m], b[m])])
                assert same_bits(
                    [problem.component_loss(m, j, x) for j in range(N)], [unsigned_component_loss(a, y, alpha, x) for a, y in zip(A[m], b[m])]
                )
        for p, q in zip(P, P[1:]):
            G = problem.full_gradients(np.stack((p, q)))
            assert same_bits(G, [unsigned_full_gradient(A, b, alpha, p), unsigned_full_gradient(A, b, alpha, q)])
        rng = np.random.default_rng(M)
        ms = sorted(int(m) for m in rng.permutation(M)[:3])
        order = np.array([rng.permutation(N) for _ in ms])
        bounds = _batch_bounds(N, 10)
        for x in P:
            got = problem.cohort_pass(ms, x, 0.05, order, bounds)
            want = [unsigned_local_pass(A[m], b[m], alpha, x, 0.05, [row[lo:hi] for lo, hi in bounds]) for m, row in zip(ms, order)]
            assert same_bits(got, want)


def test_logistic_problem_peaks_below_one_and_a_quarter_datasets():
    # the rows are gathered once and signed in place: no second copy
    X, labels = synthetic_libsvm_like(count=4000, dim=68, seed=0)
    caller = (X.copy(), labels.copy())
    part = partition(4000, 4, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        logistic_problem(part, X, labels, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 1.25 * X.nbytes
    assert same_bits(X, caller[0]) and same_bits(labels, caller[1])  # the caller's arrays are left as they were


@pytest.mark.parametrize("kind, got", [("binary", "0.0"), ("half", "0.5"), ("nan", "nan")])
def test_labels_other_than_signs_are_refused(kind, got):
    X, labels = synthetic_libsvm_like(count=8, dim=3, seed=0, nnz_per_row=2)
    if kind == "binary":
        labels = (labels + 1) / 2
    else:
        labels[5] = {"half": 0.5, "nan": np.nan}[kind]
    caller = (X.copy(), labels.copy())
    with pytest.raises(ProblemError, match=rf"^logistic labels must be -1 or \+1, got {got}$"):
        logistic_problem(partition(8, 2, 0), X, labels, 1e-2)
    assert same_bits(X, caller[0]) and same_bits(labels, caller[1])


@pytest.mark.parametrize("M, N, dim, scale", [(12, 921, 68, 1.0), (1, 10_000, 12, 1.0), (3, 40, 12, 1e4)], ids=["benchmark", "past-buffer", "past-exp-range"])
def test_objective_is_the_per_client_mean_form(M, N, dim, scale):
    # one stacked product and one row-wise pairwise sum must give np.mean's bytes client by client,
    # also for rows longer than numpy's 8,192-element buffer
    problem = logistic(M, N, dim, 5e-4, seed=M)
    rng = np.random.default_rng(N)
    P = rng.normal(size=(4, dim)) * scale
    P[1, rng.random(dim) < 0.3] = -0.0
    with np.errstate(over="raise", invalid="raise"):
        for x in P:
            assert same_bits(problem.objective_value(x), objective_per_client(problem, x))
    if scale > 1:
        assert np.abs(problem._R @ P[0]).max() > 709
