"""The stacked problem kernels against their per-component oracles, on raw bytes.

``QuadraticProblem.cohort_pass`` steps a whole cohort with stacked matmuls
and ``QuadraticProblem.objective_value`` evaluates every component at once;
``optimizer._cohort_update`` makes one cohort pass per round.  Each must
give the bytes of the one-client, one-component loops in
``tests/eager_reference.py``, signed zeros included.
``LogisticProblem.cohort_pass`` gathers each step's rows of the cohort and steps
every client with one stacked product each way; it must give the bytes of
``logistic_local_pass``, one client's gemv pass at a time.
``quadratic_problem`` draws each component's normals into one block and
builds every Hessian with one stacked QR, and must give the bytes of
``quadratic_problem_loop``, which draws and builds one component at a time.
A cohort pass computes every row, finite or not, and a diverging cohort must
fail as the per-client loop does, for either problem.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eager_reference
import fedrr.problem
from eager_reference import (
    aggregate_cohort_loop,
    cohort_pass_loop,
    local_pass_loop,
    logistic_local_pass,
    objective_value_loop,
    plan_round,
    quadratic_problem_loop,
)
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
    return _cohort_update(problem, plan_round(cohort, perms, bounds, meta_epoch, round_index), x, gamma)


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


@given(
    st.sampled_from([8, 12, 24]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
    st.one_of(st.sampled_from([0.0, -0.0]), signed_vector(1).map(lambda v: float(v[0]))),
    st.sampled_from([1e-3, 0.05, 0.2]),
)
@settings(max_examples=200, deadline=None)
def test_aggregate_large_cohort_matches_loop(C, N, seed, zero_centers, x0, gamma):
    # at C >= 8 and d = 1 numpy's axis-0 sum would add the rows pairwise; the update adds them in client-id order
    problem = make_quadratic(N, 1, seed, False, zero_centers, M=24)
    rng = np.random.default_rng(seed)
    cohort = tuple(int(m) for m in rng.permutation(24)[:C])
    perms = {m: rng.permutation(N) for m in range(24)}
    x = np.array([x0])
    g, mean_end = round_update(problem, cohort, x, gamma, perms, None)
    g_ref, mean_ref = aggregate_cohort_loop(problem, cohort, x, gamma, perms, None)
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
        return LogisticProblem(-values, alpha=1e-2)  # label 1: each signed row is -v_m
    return QuadraticProblem(np.ones((M, N, 1, 1)), values, mu=1.0, L=1.0)


def client_loop_warnings(problem, cohort, x, gamma, perms, pass_loop=local_pass_loop):
    """Messages of the warnings a per-client loop raises before it stops at a non-finite client."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(over="warn", invalid="warn"):
        warnings.simplefilter("always")
        for m in sorted(cohort):
            x_end = pass_loop(problem, m, x, gamma, np.array_split(perms[m], problem.N))
            if not np.all(np.isfinite(x_end)):
                return m, {str(w.message) for w in caught}
    return None, {str(w.message) for w in caught}


@given(
    st.sampled_from(COHORT_SIZES),
    st.integers(min_value=2, max_value=5),
    st.lists(st.sampled_from([0.0, 1.0, 1e-250]), min_size=M, max_size=M),
    st.sampled_from([1e100, 1e200, 1e300]),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from(["quadratic", "logistic"]),
)
@settings(max_examples=200, deadline=None)
def test_diverging_cohort_fails_like_client_loop(C, N, client_centers, gamma, seed, kind):
    problem = diverging_problem(N, client_centers, kind)
    rng = np.random.default_rng(seed)
    cohort = tuple(int(m) for m in rng.permutation(M)[:C])
    perms = {m: rng.permutation(N) for m in range(M)}
    x = np.zeros(1)
    pass_loop = logistic_local_pass if kind == "logistic" else local_pass_loop
    first, expected = client_loop_warnings(problem, cohort, x, gamma, perms, pass_loop)
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


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_cohort_pass_checks_clients(kind):
    problem = diverging_problem(3, [0.0] * M, kind)
    for ms in ([-1], [0, M]):
        with pytest.raises(IndexError):
            problem.cohort_pass(ms, np.zeros(1), 0.1, np.zeros((len(ms), 3), dtype=np.int64), ((0, 3),))


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
        want = [logistic_local_pass(problem, m, x, 0.05, [row[a:b] for a, b in bounds]) for m, row in zip(ms, order)]
        assert got.tobytes() == np.array(want).tobytes()


def logistic(M, N, dim, seed):
    X, labels = synthetic_libsvm_like(count=M * N, dim=dim, seed=seed)
    return logistic_problem(partition(M * N, M, seed), X, labels, 5e-4)


SMALL_LOGISTIC = logistic(M, 13, 9, seed=3)
BENCHMARK_LOGISTIC = logistic(12, 921, 68, seed=2024)  # the phishing-shaped grid


def pass_rows(problem, rng, C, S, batch):
    """A cohort of C clients with shuffled rows cut into S batches, or with
    fedavg's rows of S sorted minibatches of ``batch`` points when ``batch`` is set."""
    N = problem.N
    ms = sorted(int(m) for m in rng.permutation(problem.M)[:C])
    if batch is None:
        return ms, np.array([rng.permutation(N) for _ in ms]), _batch_bounds(N, S)
    rows = [np.concatenate([np.sort(rng.choice(N, batch, replace=False)) for _ in range(S)]) for _ in ms]
    return ms, np.array(rows), tuple((s * batch, (s + 1) * batch) for s in range(S))


def assert_logistic_pass_matches(problem, ms, x, gamma, order, bounds):
    with np.errstate(all="ignore"):  # large steps drive some rows to inf or NaN
        got = problem.cohort_pass(ms, x, gamma, order, bounds)
        want = np.array([logistic_local_pass(problem, m, x, gamma, [row[a:b] for a, b in bounds]) for m, row in zip(ms, order)])
    assert got.shape == (len(ms), problem.d)
    assert got.tobytes() == want.tobytes()


@given(
    st.integers(min_value=1, max_value=M),
    st.integers(min_value=1, max_value=SMALL_LOGISTIC.N),
    st.one_of(st.none(), st.integers(min_value=1, max_value=SMALL_LOGISTIC.N)),
    signed_vector(SMALL_LOGISTIC.d).filter(lambda x: np.abs(x).max() <= 1e4),
    st.sampled_from([1e-3, 0.05, 1.0, 50.0]),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=300, deadline=None)
def test_logistic_cohort_pass_matches_per_client_pass(C, S, batch, x, gamma, seed):
    ms, order, bounds = pass_rows(SMALL_LOGISTIC, np.random.default_rng(seed), C, S, batch)
    assert_logistic_pass_matches(SMALL_LOGISTIC, ms, x, gamma, order, bounds)


@pytest.mark.parametrize("C, S, batch", [(1, 921, None), (3, 10, None), (12, 1, None), (12, 7, None), (3, 10, 92), (12, 10, 92), (3, 30, 92), (2, 3, 921)])
def test_logistic_cohort_pass_matches_per_client_pass_at_benchmark_shape(C, S, batch):
    rng = np.random.default_rng(C * 1000 + S)
    ms, order, bounds = pass_rows(BENCHMARK_LOGISTIC, rng, C, S, batch)
    for scale, gamma in ((1e-2, 0.05), (1e4, 1.0), (1e4, 50.0)):
        x = rng.normal(size=BENCHMARK_LOGISTIC.d) * scale
        x[rng.random(x.size) < 0.1] = -0.0
        assert_logistic_pass_matches(BENCHMARK_LOGISTIC, ms, x, gamma, order, bounds)


def test_logistic_cohort_pass_gathers_at_most_n_entries_at_a_time():
    # fedavg rows of 6N entries: one gather of all of them would hold 6*C*N*d floats, while the
    # pass gathers each step's rows alone, one (C, batch, d) block and the products read from it
    problem, C, batch = BENCHMARK_LOGISTIC, 3, 92
    ms, order, bounds = pass_rows(problem, np.random.default_rng(5), C, 60, batch)
    assert order.shape[1] > 5 * problem.N
    x = np.zeros(problem.d)
    tracemalloc.start()
    try:
        problem.cohort_pass(ms, x, 0.05, order, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * C * problem.N * problem.d * 8
    # a step-sized bound: the pass peaked at 300,048 bytes, two (C, batch, d) blocks, with numpy 2.4.6
    assert peak < 3 * C * batch * problem.d * 8


@pytest.mark.parametrize("clients, N, d", [(6, 4, 5), (1, 1, 1), (3, 2, 1), (2, 3, 2), (4, 1, 2), (2, 5, 3), (3, 2, 8)])
@pytest.mark.parametrize("spreads", [(1.0, 0.5), (0.0, 0.0), (3.0, 0.0)])
def test_quadratic_problem_matches_loop(clients, N, d, spreads):
    for seed in (0, 1, 2024, 99_991):
        got = quadratic_problem(clients, N, d, mu=0.5, L=4.0, client_spread=spreads[0], sample_spread=spreads[1], seed=seed)
        want = quadratic_problem_loop(clients, N, d, mu=0.5, L=4.0, client_spread=spreads[0], sample_spread=spreads[1], seed=seed)
        assert (got._H.tobytes(), got._c.tobytes()) == (want._H.tobytes(), want._c.tobytes())
        assert (got.mu, got.L) == (want.mu, want.L)


SPREADS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-8, -1e-8, 1e8, -1e8]) | st.floats(-1e8, 1e8)


@given(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 9), st.floats(1e-8, 1e8), st.floats(1.0, 1e4),
    SPREADS, SPREADS, st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_quadratic_problem_bytes_match_loop(clients, N, d, mu, ratio, client_spread, sample_spread, seed):
    L = mu * ratio  # mu <= L, equal when ratio is 1
    got = quadratic_problem(clients, N, d, mu=mu, L=L, client_spread=client_spread, sample_spread=sample_spread, seed=seed)
    want = quadratic_problem_loop(clients, N, d, mu=mu, L=L, client_spread=client_spread, sample_spread=sample_spread, seed=seed)
    assert [a.tobytes() for a in (got._H, got._c, got._Hc)] == [a.tobytes() for a in (want._H, want._c, want._Hc)]


class SignedZeroStream:
    """A stand-in stream whose standard normals cycle through values with -0.0 among them.

    ``normal`` returns 0.0 + 1.0*z and ``uniform`` low + (high - low)*u, as
    numpy's generator does, so the block build must turn each -0.0 normal
    into +0.0 just as the loop build's ``normal`` draws do.
    """

    def __init__(self, *key):
        self._z = itertools.cycle([-0.0, -0.0, 0.5, -1.25, 0.0, 2.0, -0.0, -0.75, 1.5, -0.0, -0.0])
        self._u = itertools.cycle([0.125, 0.5, 0.875])

    def _take(self, values, size):
        return np.array([next(values) for _ in range(int(np.prod(size)))]).reshape(size)

    def standard_normal(self, out):
        out[...] = self._take(self._z, out.shape)

    def normal(self, size):
        return 0.0 + 1.0 * self._take(self._z, size)

    def uniform(self, low, high, size=None):
        return low + (high - low) * (next(self._u) if size is None else self._take(self._u, size))


@pytest.mark.parametrize("clients, N, d", [(2, 3, 1), (3, 2, 2), (2, 2, 4)])
@pytest.mark.parametrize("spreads", [(1.0, 1.0), (0.0, 0.0), (-2.0, 0.5)])
def test_quadratic_problem_turns_negative_zero_normals_positive_as_the_loop_does(monkeypatch, clients, N, d, spreads):
    monkeypatch.setattr(fedrr.problem, "stream", SignedZeroStream)
    monkeypatch.setattr(eager_reference, "stream", SignedZeroStream)
    got = quadratic_problem(clients, N, d, client_spread=spreads[0], sample_spread=spreads[1])
    want = quadratic_problem_loop(clients, N, d, client_spread=spreads[0], sample_spread=spreads[1])
    assert [a.tobytes() for a in (got._H, got._c, got._Hc)] == [a.tobytes() for a in (want._H, want._c, want._Hc)]
