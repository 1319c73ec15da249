"""The stacked problem kernels against their per-component oracles, on raw bytes.

``QuadraticProblem.cohort_pass`` steps a whole cohort with stacked matmuls
and ``QuadraticProblem.objective_value`` evaluates every component at once;
``optimizer._cohort_update`` makes one cohort pass per round.  Each must
give the bytes of the one-client, one-component loops in
``tests/eager_reference.py``, signed zeros included.  A cohort pass computes
every row, finite or not, and a diverging cohort must fail as the per-client
loop does, for either problem.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eager_reference import aggregate_cohort_loop, cohort_pass_loop, local_pass_loop, objective_value_loop
from fedrr.dataset import partition, synthetic_libsvm_like
from fedrr.optimizer import DivergenceError, _batch_bounds, _cohort_update
from fedrr.problem import LogisticProblem, QuadraticProblem, logistic_problem, quadratic_problem

M = 6
COHORT_SIZES = (1, 2, 3, 6)


def make_quadratic(N, d, seed, underflow, zero_centers, M=M):
    """A rotated-spectrum quadratic, or one whose Hessians are nearly the identity.

    The near-identity Hessians have off-diagonal entries -5e-324, so for an x
    with entries below 0.5 every off-diagonal product underflows.  With a
    -0.0 entry in x, ``H[m, j] @ x`` can then come out as -0.0 (numpy's
    matmul does so at d=5), which is where the loop form's adding to zeros
    shows in the bytes.
    """
    problem = quadratic_problem(M, N, d, mu=0.5, L=4.0, client_spread=1.0, sample_spread=0.5, seed=seed)
    H, centers = problem._H, problem._c
    if underflow:
        H = np.broadcast_to(np.eye(d) - 5e-324 * (1 - np.eye(d)), H.shape).copy()
    if zero_centers:
        centers = np.zeros_like(centers)
    return QuadraticProblem(H, centers, mu=0.5, L=4.0)


def round_update(problem, cohort, x, gamma, perms, local_steps, meta_epoch=0, round_index=0):
    """``_cohort_update`` of a shuffled round: S batches of each client's permutation."""
    bounds = _batch_bounds(problem.N, local_steps or problem.N)
    return _cohort_update(problem, cohort, x, gamma, perms, bounds, meta_epoch, round_index)


def signed_vector(d):
    entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    return st.tuples(st.lists(entry, min_size=d, max_size=d), st.integers(min_value=-6, max_value=6)).map(
        lambda v: np.array(v[0]) * 10.0 ** v[1]
    )


@st.composite
def cohort_case(draw):
    N = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.sampled_from([1, 2, 3, 5]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    problem = make_quadratic(N, d, seed, draw(st.booleans()), draw(st.booleans()))
    rng = np.random.default_rng(seed)
    C = draw(st.sampled_from(COHORT_SIZES))
    cohort = tuple(int(m) for m in rng.permutation(M)[:C])  # unsorted, as a schedule gives it
    perms = {m: rng.permutation(N) for m in range(M)}
    local_steps = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=N)))
    x = draw(signed_vector(d))
    gamma = draw(st.sampled_from([1e-3, 0.05, 0.2]))
    return problem, cohort, perms, local_steps, x, gamma


@given(cohort_case())
@settings(max_examples=300, deadline=None)
def test_quadratic_cohort_pass_matches_loop(case):
    problem, cohort, perms, local_steps, x, gamma = case
    ms = sorted(cohort)
    order = np.array([perms[m] for m in ms])
    bounds = _batch_bounds(problem.N, local_steps or problem.N)
    got = problem.cohort_pass(ms, x, gamma, order, bounds)
    assert got.shape == (len(ms), problem.d)
    assert got.tobytes() == cohort_pass_loop(problem, ms, x, gamma, order, bounds).tobytes()


@given(cohort_case())
@settings(max_examples=300, deadline=None)
def test_aggregate_cohort_matches_loop(case):
    problem, cohort, perms, local_steps, x, gamma = case
    g, mean_end = round_update(problem, cohort, x, gamma, perms, local_steps)
    g_ref, mean_ref = aggregate_cohort_loop(problem, cohort, x, gamma, perms, local_steps)
    assert (g.tobytes(), mean_end.tobytes()) == (g_ref.tobytes(), mean_ref.tobytes())


def test_signed_zero_passes_match_loop():
    # with x = [-0.0, 1e-3, ...] the first gradient entry of every pass is
    # -0.0, which the loop form's zeros turn into +0.0
    problem = make_quadratic(N=4, d=5, seed=3, underflow=True, zero_centers=True)
    x = np.array([-0.0, 1e-3, 1e-3, 1e-3, 1e-3])
    perms = {m: np.arange(4) for m in range(M)}
    for C in COHORT_SIZES:
        cohort = tuple(range(C))
        for local_steps in (None, 2, 3):
            ms = list(cohort)
            order = np.array([perms[m] for m in ms])
            bounds = _batch_bounds(4, local_steps or 4)
            got = problem.cohort_pass(ms, x, 0.1, order, bounds)
            assert got.tobytes() == cohort_pass_loop(problem, ms, x, 0.1, order, bounds).tobytes()
            g, mean_end = round_update(problem, cohort, x, 0.1, perms, local_steps)
            g_ref, mean_ref = aggregate_cohort_loop(problem, cohort, x, 0.1, perms, local_steps)
            assert (g.tobytes(), mean_end.tobytes()) == (g_ref.tobytes(), mean_ref.tobytes())


@given(
    st.sampled_from([1, 6, 11]),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([1, 2, 3, 5]),
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
    st.booleans(),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_quadratic_objective_matches_loop(clients, N, d, seed, underflow, zero_centers, data):
    # more than 8 terms, where numpy's pairwise sums part from Python's sum
    problem = make_quadratic(N, d, seed, underflow, zero_centers, M=clients)
    x = data.draw(signed_vector(d))
    got, want = problem.objective_value(x), objective_value_loop(problem, x)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def diverging_problem(N, client_values, kind="quadratic"):
    """1-d components of client m set by one value v_m, run from x = 0 at a huge step.

    The quadratic components are (1/2)(x - v_m)^2; the logistic ones have
    feature v_m, label 1 and regularizer 1e-2.  Either way v_m = 0 keeps x
    at 0, while v_m = 1 and v_m = 1e-250 blow up after different numbers of
    steps, so their passes can end with different warnings.
    """
    values = np.repeat(np.array(client_values, dtype=np.float64)[:, None, None], N, axis=1)
    if kind == "logistic":
        return LogisticProblem(values, np.ones((M, N)), alpha=1e-2)
    return QuadraticProblem(np.ones((M, N, 1, 1)), values, mu=1.0, L=1.0)


def client_loop_warnings(problem, cohort, x, gamma, perms):
    """Messages of the warnings a per-client loop raises before it stops at a non-finite client."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(over="warn", invalid="warn"):
        warnings.simplefilter("always")
        for m in sorted(cohort):
            x_end = local_pass_loop(problem, m, x, gamma, np.array_split(perms[m], problem.N))
            if not np.all(np.isfinite(x_end)):
                return m, {str(w.message) for w in caught}
    return None, {str(w.message) for w in caught}


@given(
    st.sampled_from(COHORT_SIZES),
    st.integers(min_value=2, max_value=5),
    st.lists(st.sampled_from([0.0, 1.0, 1e-250]), min_size=M, max_size=M),
    st.sampled_from([1e100, 1e200, 1e300]),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_diverging_cohort_fails_like_client_loop(C, N, client_centers, gamma, seed):
    problem = diverging_problem(N, client_centers)
    rng = np.random.default_rng(seed)
    cohort = tuple(int(m) for m in rng.permutation(M)[:C])
    perms = {m: rng.permutation(N) for m in range(M)}
    x = np.zeros(1)
    first, expected = client_loop_warnings(problem, cohort, x, gamma, perms)
    with warnings.catch_warnings(record=True) as caught, np.errstate(over="warn", invalid="warn"):
        warnings.simplefilter("always")
        try:
            round_update(problem, cohort, x, gamma, perms, None, meta_epoch=4, round_index=2)
        except DivergenceError as exc:
            assert first is not None
            assert str(exc) == f"non-finite iterate in local pass of client {first} at meta-epoch 4, round 2"
            assert (exc.meta_epoch, exc.round_index) == (4, 2)
        else:
            assert first is None
    # only the clients a per-client loop reaches may warn
    assert {str(w.message) for w in caught} == expected


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_clients_after_a_diverging_one_do_not_warn(kind):
    # in 3 steps at gamma 1e200, client 0 (v = 1e-250) overflows to inf, while
    # client 1 (v = 1) also reaches inf - inf; the loop never runs client 1
    problem = diverging_problem(3, [1e-250, 1.0, 0.0, 0.0, 0.0, 0.0], kind)
    perms = {m: np.arange(3) for m in range(M)}
    with warnings.catch_warnings(record=True) as caught, np.errstate(over="warn", invalid="warn"):
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError) as exc:
            round_update(problem, (1, 0), np.zeros(1), 1e200, perms, None, meta_epoch=3, round_index=1)
    assert str(exc.value) == "non-finite iterate in local pass of client 0 at meta-epoch 3, round 1"
    assert (exc.value.meta_epoch, exc.value.round_index) == (3, 1)
    assert {str(w.message) for w in caught} == {"overflow encountered in multiply"}


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_diverging_cohort_raises_under_errstate_raise_at_the_same_client(kind):
    # clients 1 and 4 diverge; the loop reaches client 1 first, and so must the kernel
    problem = diverging_problem(3, [0.0, 1.0, 0.0, 0.0, 1.0, 0.0], kind)
    perms = {m: np.arange(3) for m in range(M)}
    with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError):
        local_pass_loop(problem, 1, np.zeros(1), 1e200, np.array_split(perms[1], 3))
    with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError):
        round_update(problem, (4, 1, 0), np.zeros(1), 1e200, perms, None)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_rows_after_a_diverging_one_are_computed(kind):
    # at gamma 1e3 clients 1 and 5 (v = 1e306) overflow in their first step,
    # while the others grow but stay finite over their 3 steps
    problem = diverging_problem(3, [1.0, 1e306, 0.5, 2.0, -1.0, 1e306], kind)
    ms = list(range(M))
    order = np.array([np.roll(np.arange(3), m) for m in ms])
    bounds = _batch_bounds(3, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        X = problem.cohort_pass(ms, np.zeros(1), 1e3, order, bounds)
        alone = [problem.cohort_pass([m], np.zeros(1), 1e3, order[m : m + 1], bounds)[0] for m in ms]
    assert [bool(np.isfinite(row).all()) for row in X] == [True, False, True, True, True, False]
    for row, want in zip(X, alone):
        if np.isfinite(row).all():
            assert row.tobytes() == want.tobytes()
        else:
            assert not np.isfinite(want).all()


def test_quadratic_cohort_pass_checks_clients():
    problem = make_quadratic(N=3, d=2, seed=0, underflow=False, zero_centers=False)
    for ms in ([-1], [0, M]):
        with pytest.raises(IndexError):
            problem.cohort_pass(ms, np.zeros(2), 0.1, np.zeros((len(ms), 3), dtype=np.int64), ((0, 3),))


@pytest.mark.parametrize("C", COHORT_SIZES)
def test_logistic_cohort_pass_is_per_client_pass(C):
    X, labels = synthetic_libsvm_like(count=M * 7, dim=5, seed=1, nnz_per_row=3)
    problem = logistic_problem(partition(M * 7, M, 1), X, labels, 1e-2)
    rng = np.random.default_rng(C)
    ms = sorted(int(m) for m in rng.permutation(M)[:C])
    order = np.array([rng.permutation(7) for _ in ms])
    x = rng.normal(size=5)
    for bounds in (_batch_bounds(7, 7), _batch_bounds(7, 3)):
        got = problem.cohort_pass(ms, x, 0.05, order, bounds)
        want = [problem.local_pass(m, x, 0.05, [row[a:b] for a, b in bounds]) for m, row in zip(ms, order)]
        assert got.tobytes() == np.array(want).tobytes()
