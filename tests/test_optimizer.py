import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eager_reference import component_gradient, eager_cohorts, eager_data_perms, eager_run, plan_round, sampled_cohort
from fedrr import optimizer, shuffling
from fedrr.optimizer import (
    ALGORITHMS,
    AlgoConfig,
    DivergenceError,
    StepSizes,
    _batch_bounds,
    _check_iterate,
    _cohort_update,
    apply_decay,
    pass_length,
    plan_period,
    round_plan,
    run_algorithm,
)
from fedrr.problem import QuadraticProblem, quadratic_problem
from fedrr.shuffling import ClientMode, DataMode, ScheduleError, ShuffleMode


def unit_quadratic(M=1, N=2, d=1):
    """Components are all (1/2)x^2: identity Hessians, centers at 0."""
    H = np.ones((M, N, d, d)) * np.eye(d)
    centers = np.zeros((M, N, d))
    return QuadraticProblem(H, centers, mu=1.0, L=1.0)


def hetero_quadratic(seed=0, M=6, C=2, N=4, d=5):
    return quadratic_problem(M, N, d, mu=1.0, L=10.0, client_spread=1.0, sample_spread=0.5, seed=seed)


def one_client_pass(problem, m, x_start, gamma, perm, local_steps=None):
    """Client m's pass alone, as a one-client round update: (end point, pseudo-gradient)."""
    bounds = _batch_bounds(problem.N, pass_length("rrcli", problem.N, local_steps))
    g, x_end = _cohort_update(problem, plan_round((m,), {m: perm}, bounds), x_start, gamma)
    return x_end, g


def test_local_pass_hand_example():
    # f = x^2/2, x0 = 1, gamma = 0.1, N = 2: 1 -> 0.9 -> 0.81
    problem = unit_quadratic()
    x_end, g = one_client_pass(problem, 0, np.array([1.0]), 0.1, np.array([0, 1]))
    assert x_end[0] == pytest.approx(0.81, abs=1e-15)
    assert g[0] == pytest.approx((1.0 - 0.81) / 0.2, abs=1e-15)


def test_local_pass_single_step_is_component_gradient():
    problem = hetero_quadratic(N=1)
    x0 = np.ones(problem.d)
    _, g = one_client_pass(problem, 2, x0, 0.05, np.array([0]))
    assert np.allclose(g, component_gradient(problem, 2, 0, x0), atol=1e-12)


def test_local_pass_zero_gradients_fixed_point():
    problem = unit_quadratic(M=2, N=3, d=2)
    x_star = np.zeros(2)
    x_end, g = one_client_pass(problem, 1, x_star, 0.3, np.arange(3))
    assert np.array_equal(x_end, x_star)
    assert np.allclose(g, 0.0)


def test_local_pass_batched_normalization():
    # with S batches the pseudo-gradient divides by gamma*S
    problem = hetero_quadratic()
    x0 = np.ones(problem.d)
    x_end, g = one_client_pass(problem, 0, x0, 0.01, np.arange(problem.N), local_steps=2)
    assert np.allclose(g, (x0 - x_end) / (0.01 * 2), atol=1e-14)


@given(st.integers(min_value=1, max_value=60), st.data())
@settings(max_examples=60, deadline=None)
def test_batch_bounds_match_array_split(N, data):
    S = data.draw(st.integers(min_value=1, max_value=N))
    perm = np.arange(N)[::-1]
    expected = np.array_split(perm, S)
    got = [perm[a:b] for a, b in _batch_bounds(N, S)]
    assert len(got) == S
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def make_cfg(problem, algorithm, C, T, gamma, eta=None, theta=None, **kw):
    R = problem.M // C
    S = kw.get("local_steps") or problem.N
    eta = gamma * S if eta is None else eta
    theta = eta * R if theta is None else theta
    return AlgoConfig(
        algorithm=algorithm,
        C=C,
        T=T,
        steps=StepSizes(gamma=gamma, eta=eta, theta=theta),
        **kw,
    )


def test_collapse_to_gradient_descent():
    # C=M, N=1, gamma=eta=theta: one meta-epoch is a plain GD step
    problem = hetero_quadratic(N=1)
    opt = problem.analytic_optimum()
    gamma = 0.01
    cfg = make_cfg(problem, "rrcli", C=problem.M, T=3, gamma=gamma)
    trace = run_algorithm(problem, cfg, opt)
    x = np.zeros(problem.d)
    for _ in range(3):
        x = x - gamma * problem.full_gradient(x)
    assert trace.points[-1].dist_sq == pytest.approx(float((x - opt.x_star) @ (x - opt.x_star)), rel=1e-12)


def test_server_collapse_identity_checked_internally(monkeypatch):
    # at eta = gamma*S run_algorithm checks on every round that the server iterate is the cohort's mean end point
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    cfg = make_cfg(problem, "rrcli", C=2, T=4, gamma=0.005)
    run_algorithm(problem, cfg, opt)
    update = optimizer._cohort_update

    def shifted_update(*args):
        g, mean_end = update(*args)
        return g, mean_end + 1e-6

    monkeypatch.setattr(optimizer, "_cohort_update", shifted_update)
    with pytest.raises(AssertionError, match="server iterate deviates from cohort mean under eta = gamma\\*S"):
        run_algorithm(problem, cfg, opt)


def collapse_rule(x, mean_end):
    """The verdict the collapse check must give: the scale first, then the deviation against COLLAPSE_TOL * scale."""
    scale = max(1.0, float(np.abs(x).max()))
    return float(np.abs(x - mean_end).max()) > optimizer.COLLAPSE_TOL * scale


@pytest.mark.parametrize("v", [0.01, 50.0])  # max|x| below 1, then above 1
@pytest.mark.parametrize("shift", ["below", "at", "above", "inf", "-inf", "nan"])
def test_collapse_check_raises_exactly_past_its_bound(monkeypatch, v, shift):
    # on (1/2)||x||^2 from x0 = (0, v) the server iterate's first entry stays exactly 0, so moving
    # that entry of the first round's mean end point to m makes the deviation exactly |m|: one float
    # below the bound COLLAPSE_TOL * max(1, max|x|), at it, one float above it, or infinitely far.
    # The run must raise exactly when that rule does
    problem = unit_quadratic(M=6, N=4, d=2)
    cfg = make_cfg(problem, "rrcli", C=2, T=2, gamma=0.05, x0=np.array([0.0, v]))
    update, verdicts = optimizer._cohort_update, []

    def shifted_update(problem, rnd, x, gamma):
        g, mean_end = update(problem, rnd, x, gamma)
        if not verdicts:
            x_new = x - cfg.steps.eta * g  # run_algorithm's server step, the same bytes
            bound = optimizer.COLLAPSE_TOL * max(1.0, float(np.abs(x_new).max()))
            assert x_new[0] == 0 and (bound > optimizer.COLLAPSE_TOL) == (v > 1)
            m = {"below": np.nextafter(bound, 0), "at": bound, "above": np.nextafter(bound, np.inf)}.get(shift)
            mean_end = x_new.copy()
            mean_end[0] = float(shift) if m is None else m
            verdicts.append(collapse_rule(x_new, mean_end))
        return g, mean_end

    monkeypatch.setattr(optimizer, "_cohort_update", shifted_update)
    if shift in ("above", "inf", "-inf"):
        with pytest.raises(AssertionError, match="server iterate deviates from cohort mean"):
            run_algorithm(problem, cfg, problem.analytic_optimum())
        assert verdicts == [True]
    else:
        trace = run_algorithm(problem, cfg, problem.analytic_optimum())
        assert verdicts == [False] and len(trace.points) == cfg.T + 1


def test_global_collapse_is_exact():
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    cfg = make_cfg(problem, "rrcli", C=2, T=2, gamma=0.005)
    # replay the rounds manually and compare bit for bit
    trace = run_algorithm(problem, cfg, opt)
    x = np.zeros(problem.d)
    bounds = _batch_bounds(problem.N, problem.N)
    for t in range(2):
        perms = eager_data_perms(problem.M, problem.N, cfg.shuffle, t, cfg.seed)  # shuffle-once data
        cohorts = eager_cohorts(problem.M, 2, cfg.shuffle, t, cfg.seed)  # shuffle-once clients
        for r, cohort in enumerate(cohorts):
            g, _ = _cohort_update(problem, plan_round(cohort, perms, bounds, t, r), x, cfg.steps.gamma)
            x = x - cfg.steps.eta * g
        delta = x - opt.x_star
        assert trace.points[t + 1].dist_sq == float(delta @ delta)


def test_rrcli_reshuffling_visits_every_client():
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    mode = ShuffleMode(client_mode=ClientMode.RESHUFFLING, data_mode=DataMode.RESHUFFLING)
    cfg = make_cfg(problem, "rrcli", C=2, T=4, gamma=0.005, shuffle=mode, seed=5)
    plan = list(round_plan(problem, cfg))
    for t in range(4):
        flat = sorted(m for rnd in plan if rnd.meta_epoch == t for m in rnd.clients)
        assert flat == list(range(problem.M))
    trace = run_algorithm(problem, cfg, opt)
    assert len(trace.points) == 5


def test_determinism():
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    for algorithm in ("rrcli", "rrcli-wr", "nastya", "fedavg"):
        cfg = make_cfg(problem, algorithm, C=2, T=3, gamma=0.004, seed=9, local_steps=2)
        a = run_algorithm(problem, cfg, opt)
        b = run_algorithm(problem, cfg, opt)
        assert [p.dist_sq for p in a.points] == [p.dist_sq for p in b.points]
        assert [p.func_gap for p in a.points] == [p.func_gap for p in b.points]


def force_nastya_cohorts(monkeypatch, cohorts):
    """Make nastya's round k train ``cohorts[k]`` in place of its sampled cohort."""
    monkeypatch.setattr(optimizer, "_cohorts", lambda M, C, seed, label, k: [tuple(int(m) for m in cohorts[k])])


def test_nastya_coupling_with_rrcli(monkeypatch):
    # forcing nastya's cohorts equal to rrcli's makes the traces identical
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    mode = ShuffleMode(client_mode=ClientMode.SHUFFLE_ONCE, data_mode=DataMode.SHUFFLE_ONCE)
    T = 3
    rr_cfg = make_cfg(problem, "rrcli", C=2, T=T, gamma=0.005, shuffle=mode, seed=4)
    rr = run_algorithm(problem, rr_cfg, opt)
    force_nastya_cohorts(monkeypatch, eager_cohorts(problem.M, 2, mode, 0, 4) * T)
    na_cfg = make_cfg(problem, "nastya", C=2, T=T, gamma=0.005, shuffle=mode, seed=4)
    na = run_algorithm(problem, na_cfg, opt)
    assert [p.dist_sq for p in na.points] == [p.dist_sq for p in rr.points]


def test_nastya_full_participation_equals_rrcli():
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    rr = run_algorithm(problem, make_cfg(problem, "rrcli", C=problem.M, T=3, gamma=0.005, seed=1), opt)
    na = run_algorithm(problem, make_cfg(problem, "nastya", C=problem.M, T=3, gamma=0.005, seed=1), opt)
    assert [p.dist_sq for p in na.points] == [p.dist_sq for p in rr.points]


@pytest.mark.parametrize("M, N, d", [(6, 4, 5), (4, 3, 2)])
@pytest.mark.parametrize("client_mode", [ClientMode.SHUFFLE_ONCE, ClientMode.RESHUFFLING])
@pytest.mark.parametrize("data_mode", [DataMode.SHUFFLE_ONCE, DataMode.RESHUFFLING])
@pytest.mark.parametrize("seed", range(5))
def test_rrcli_wr_full_participation_equals_rrcli(M, N, d, client_mode, data_mode, seed):
    # at C = M every cohort is all clients in id order, with no client sampling left to differ
    problem = quadratic_problem(M, N, d, mu=1.0, L=10.0, client_spread=1.0, sample_spread=0.5, seed=seed)
    opt = problem.analytic_optimum()
    mode = ShuffleMode(client_mode=client_mode, data_mode=data_mode)
    rr, wr = (
        run_algorithm(problem, make_cfg(problem, algorithm, C=M, T=20, gamma=0.005, shuffle=mode, seed=seed), opt)
        for algorithm in ("rrcli", "rrcli-wr")
    )
    assert trace_bits(wr) == trace_bits(rr)


@pytest.mark.parametrize("seed", [0, 1])
def test_rrcli_wr_full_participation_equals_rrcli_replayed_cycle(pass_calls, seed):
    # on acceptance test 06's problem rrcli's shuffle-once run at C = M reaches its float cycle
    # near meta-epoch 200 and replays the rest; rrcli-wr, which never replays, runs every round
    problem = plateau_quadratic()
    opt = problem.analytic_optimum()
    cfgs = [make_cfg(problem, algorithm, C=problem.M, T=400, gamma=0.01, seed=seed) for algorithm in ("rrcli", "rrcli-wr")]
    rr = run_algorithm(problem, cfgs[0], opt)
    rr_passes = len(pass_calls)
    wr = run_algorithm(problem, cfgs[1], opt)
    assert rr_passes < 300 and len(pass_calls) - rr_passes == 400  # one round per meta-epoch; rrcli replayed
    assert trace_bits(wr) == trace_bits(rr)


def test_fedavg_full_batch_single_step_is_gd():
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    gamma = 0.01
    cfg = AlgoConfig(
        algorithm="fedavg",
        C=problem.M,
        T=2,
        steps=StepSizes(gamma=gamma, eta=gamma, theta=gamma),
        local_steps=1,
        batch_fraction=1.0,
        seed=0,
    )
    trace = run_algorithm(problem, cfg, opt)
    x = np.zeros(problem.d)
    rounds_per_epoch = 0
    evals_per_round = problem.M * 1 * problem.N
    budget = 2 * problem.M * problem.N
    while rounds_per_epoch * evals_per_round < budget:
        x = x - gamma * problem.full_gradient(x)
        rounds_per_epoch += 1
    delta = x - opt.x_star
    assert trace.points[-1].dist_sq == pytest.approx(float(delta @ delta), rel=1e-10)


def test_fedavg_stays_at_optimum_when_homogeneous():
    problem = unit_quadratic(M=4, N=5, d=3)
    opt = problem.analytic_optimum()
    cfg = AlgoConfig(
        algorithm="fedavg",
        C=2,
        T=2,
        steps=StepSizes(gamma=0.1, eta=0.5, theta=0.5),
        local_steps=5,
        batch_fraction=0.4,
        seed=3,
        x0=opt.x_star,
    )
    trace = run_algorithm(problem, cfg, opt)
    assert trace.points[-1].dist_sq <= 1e-28


def test_apply_decay():
    steps = StepSizes(gamma=1.0, eta=2.0, theta=6.0)
    assert apply_decay(steps, 0) == steps
    half = apply_decay(steps, 1)
    assert (half.gamma, half.eta, half.theta) == (0.5, 1.0, 3.0)
    tenth = apply_decay(steps, 9)
    assert tenth.gamma == pytest.approx(0.1)
    with pytest.raises(ValueError):
        apply_decay(steps, -1)


def test_divergence_detected():
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    cfg = make_cfg(problem, "rrcli", C=2, T=50, gamma=50.0)
    with pytest.raises(DivergenceError):
        run_algorithm(problem, cfg, opt)


def test_epoch_accounting_equal_cost():
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    rr = run_algorithm(problem, make_cfg(problem, "rrcli", C=2, T=3, gamma=0.005), opt)
    na = run_algorithm(problem, make_cfg(problem, "nastya", C=2, T=3, gamma=0.005), opt)
    assert [p.epoch for p in rr.points] == [0, 1, 2, 3]
    assert [p.epoch for p in na.points] == [0, 1, 2, 3]
    assert rr.points[-1].grad_evals == na.points[-1].grad_evals == 3 * problem.M * problem.N


def test_step_sizes_must_be_positive():
    with pytest.raises(ValueError):
        StepSizes(gamma=0.0, eta=1.0, theta=1.0)


@pytest.mark.parametrize("steps", [(np.nan, 1, 1), (1, np.nan, 1), (1, 1, np.nan)])
def test_step_sizes_reject_nan(steps):
    with pytest.raises(ValueError, match="all step sizes must be positive"):
        StepSizes(*steps)


def test_config_validation():
    with pytest.raises(ValueError):
        AlgoConfig(algorithm="sgd", C=1, T=1, steps=StepSizes(1, 1, 1))
    with pytest.raises(ValueError):
        AlgoConfig(algorithm="fedavg", C=1, T=1, steps=StepSizes(1, 1, 1), batch_fraction=0.0)


def trace_values(trace):
    return [(p.epoch, p.dist_sq, p.func_gap, p.grad_evals) for p in trace.points]


FIXED_PLAN = (((0, 1), (2, 3), (4, 5)), ((5, 2), (1, 4), (3, 0)))


@pytest.mark.parametrize("decay", [False, True])
@pytest.mark.parametrize("data_mode", list(DataMode))
@pytest.mark.parametrize("client_mode", list(ClientMode))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_trace_matches_eager_replay(algorithm, client_mode, data_mode, decay):
    # lazy permutations, drawn once per data epoch, and precomputed batch slices change no bit
    problem = hetero_quadratic(N=5)
    opt = problem.analytic_optimum()
    fixed = FIXED_PLAN if client_mode is ClientMode.DETERMINISTIC_FIXED else None
    mode = ShuffleMode(client_mode=client_mode, data_mode=data_mode, fixed_schedule=fixed)
    R = problem.M // 2
    for local_steps, theta_scale in ((None, 1.0), (2, 0.5)):
        S = local_steps or problem.N
        cfg = make_cfg(
            problem, algorithm, C=2, T=3, gamma=0.004, theta=0.004 * S * R * theta_scale,
            shuffle=mode, seed=11, decay=decay, local_steps=local_steps,
        )
        assert trace_values(run_algorithm(problem, cfg, opt)) == trace_values(eager_run(problem, cfg, opt))


@pytest.mark.parametrize("data_mode", list(DataMode))
@pytest.mark.parametrize("algorithm", ["rrcli", "rrcli-wr", "nastya"])
def test_data_permutations_drawn_once_per_data_epoch(monkeypatch, algorithm, data_mode):
    # shuffle-once draws each client's data permutation once per run, from stream epoch 0;
    # reshuffling draws it at most once per data epoch: the meta-epoch, or nastya's round
    draws = collections.Counter()
    fisher_yates = optimizer.fisher_yates

    def counting_fisher_yates(n, seed, label, *parts):
        if label == "data_perm":
            draws[parts] += 1
        return fisher_yates(n, seed, label, *parts)

    monkeypatch.setattr(optimizer, "fisher_yates", counting_fisher_yates)
    problem = hetero_quadratic()
    cfg = make_cfg(problem, algorithm, C=2, T=3, gamma=0.004, shuffle=ShuffleMode(data_mode=data_mode), seed=3)
    run_algorithm(problem, cfg, problem.analytic_optimum())
    # every run trains some client in more than one data epoch: 18 client passes over 6 clients
    assert max(draws.values()) == 1
    data_epochs = cfg.T * (problem.M // cfg.C if algorithm == "nastya" else 1)
    assert {t for t, _ in draws} == ({0} if data_mode is DataMode.SHUFFLE_ONCE else set(range(data_epochs)))


@pytest.mark.parametrize("client_mode", list(ClientMode))
def test_client_permutations_drawn_once_per_client_epoch(monkeypatch, client_mode):
    # an rrcli run draws its client order once, from stream epoch 0, under shuffle-once;
    # once per meta-epoch under reshuffling; and never from a fixed schedule
    draws = []
    fisher_yates = optimizer.fisher_yates

    def counting_fisher_yates(n, seed, label, *parts):
        if label == "client_perm":
            draws.append(parts)
        return fisher_yates(n, seed, label, *parts)

    monkeypatch.setattr(optimizer, "fisher_yates", counting_fisher_yates)
    problem = hetero_quadratic()
    fixed = FIXED_PLAN if client_mode is ClientMode.DETERMINISTIC_FIXED else None
    shuffle = ShuffleMode(client_mode=client_mode, fixed_schedule=fixed)
    cfg = make_cfg(problem, "rrcli", C=2, T=3, gamma=0.004, shuffle=shuffle, seed=3)
    run_algorithm(problem, cfg, problem.analytic_optimum())
    expected = {ClientMode.SHUFFLE_ONCE: [(0,)], ClientMode.RESHUFFLING: [(0,), (1,), (2,)]}
    assert draws == expected.get(client_mode, [])


def test_fixed_schedule_checked_before_the_first_round(monkeypatch):
    # a one-meta-epoch run never reaches the bad second epoch, yet the whole schedule is checked
    problem = hetero_quadratic()
    bad = (FIXED_PLAN[0], ((0, 1), (2, 3), (4, 4)))
    shuffle = ShuffleMode(client_mode=ClientMode.DETERMINISTIC_FIXED, fixed_schedule=bad)
    cfg = make_cfg(problem, "rrcli", C=2, T=1, gamma=0.004, shuffle=shuffle)
    monkeypatch.setattr(optimizer, "_cohort_update", lambda *args: pytest.fail("a round ran"))
    with pytest.raises(ScheduleError, match="not a partition of clients into R cohorts of C"):
        run_algorithm(problem, cfg, problem.analytic_optimum())


def test_fixed_schedule_of_numpy_ids_draws_the_same_streams():
    problem = hetero_quadratic()
    numpy_plan = tuple(tuple(tuple(np.int64(m) for m in cohort) for cohort in epoch) for epoch in FIXED_PLAN)
    traces = []
    for plan in (FIXED_PLAN, numpy_plan):
        shuffle = ShuffleMode(ClientMode.DETERMINISTIC_FIXED, DataMode.RESHUFFLING, plan)
        cfg = make_cfg(problem, "rrcli", C=2, T=3, gamma=0.004, shuffle=shuffle, seed=2)
        traces.append(trace_values(run_algorithm(problem, cfg, problem.analytic_optimum())))
    assert traces[0] == traces[1]


def test_fedavg_divergence_reports_epoch_in_progress():
    # x^2/2 with gamma = 11 multiplies the iterate by -10 per round, and one
    # round (2 clients x 1 step x 5 points) is one epoch: from x0 = 0.5 the
    # norm cap 1e12 is first exceeded in round 12 (|x| = 5e12), meta-epoch 12
    problem = unit_quadratic(M=2, N=5, d=1)
    opt = problem.analytic_optimum()
    cfg = AlgoConfig(
        algorithm="fedavg", C=2, T=30, steps=StepSizes(gamma=11.0, eta=11.0, theta=11.0),
        local_steps=1, batch_fraction=1.0, x0=np.full(1, 0.5),
    )
    with pytest.raises(DivergenceError) as info:
        run_algorithm(problem, cfg, opt)
    assert (info.value.meta_epoch, info.value.round_index) == (12, 12)
    assert "meta-epoch 12, round 12" in str(info.value)
    # the server iterate, not a client's pass, left the cap: no client, and the iterate's norm
    assert info.value.client is None
    assert info.value.iterate_norm == pytest.approx(5e12, rel=1e-12)


def test_fedavg_non_finite_client_iterate_carries_position():
    problem = unit_quadratic(M=2, N=5, d=1)
    opt = problem.analytic_optimum()
    cfg = AlgoConfig(
        algorithm="fedavg", C=2, T=3, steps=StepSizes(gamma=1e200, eta=2e200, theta=2e200),
        local_steps=2, batch_fraction=1.0, x0=np.ones(1),
    )
    with pytest.raises(DivergenceError, match="^non-finite iterate in local pass of client 0 at meta-epoch 0, round 0$") as info, np.errstate(over="ignore"):
        run_algorithm(problem, cfg, opt)
    assert (info.value.meta_epoch, info.value.round_index) == (0, 0)
    # x^2/2 from x = 1 at gamma 1e200: 1 -> -1e200 -> inf, so the client's end point is inf
    assert (info.value.client, info.value.iterate_norm) == (0, math.inf)


def test_divergence_error_of_a_local_pass_names_the_client_and_its_end_points_norm():
    # client 1 of the pair (1/2)(x - c_m)^2, c = (0, 1), at gamma 1e200 goes 0 -> 1e200 -> -inf;
    # client 0 stays at 0, and the error is raised in the cohort's first round
    H = np.ones((2, 2, 1, 1))
    centers = np.zeros((2, 2, 1))
    centers[1] = 1.0
    problem = QuadraticProblem(H, centers, mu=1.0, L=1.0)
    cfg = make_cfg(problem, "rrcli", C=2, T=1, gamma=1e200)
    with pytest.raises(DivergenceError, match="local pass of client 1 at meta-epoch 0, round 0") as info, np.errstate(
        over="ignore", invalid="ignore"
    ):
        run_algorithm(problem, cfg, problem.analytic_optimum())
    assert (info.value.client, info.value.iterate_norm) == (1, math.inf)


def test_divergence_error_of_the_iterate_check_carries_its_norm():
    with pytest.raises(DivergenceError) as info:
        _check_iterate(np.array([3e12, -4e12]), 2, 0)
    assert (info.value.meta_epoch, info.value.round_index, info.value.client) == (2, 0, None)
    assert info.value.iterate_norm == 5e12
    # entries whose squares overflow still give their norm, and a NaN entry a NaN norm
    with pytest.raises(DivergenceError) as info, np.errstate(over="ignore"):
        _check_iterate(np.array([3e200, 4e200]), 0, 1)
    assert info.value.iterate_norm == pytest.approx(5e200, rel=1e-15)
    with pytest.raises(DivergenceError) as info:
        _check_iterate(np.array([1.0, np.nan]), 0, 1)
    assert math.isnan(info.value.iterate_norm)


@pytest.mark.parametrize("algorithm", ["rrcli", "rrcli-wr", "nastya"])
def test_nastya_cohort_size_must_divide(algorithm):
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    cfg = make_cfg(problem, algorithm, C=4, T=2, gamma=0.005)
    with pytest.raises(ValueError, match="does not divide"):
        run_algorithm(problem, cfg, opt)


def test_fedavg_cohort_larger_than_client_count_is_rejected():
    # only M clients could train, while the update would be divided by C
    problem = hetero_quadratic()
    cfg = make_cfg(problem, "fedavg", C=60, T=1, gamma=0.005, theta=0.05)
    with pytest.raises(ValueError, match="cohort size 60 exceeds client count 6"):
        run_algorithm(problem, cfg, problem.analytic_optimum())


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2e12])
def test_check_iterate_rejects_non_finite_and_huge(value):
    x = np.array([0.5, value])
    with np.errstate(all="raise"), pytest.raises(DivergenceError, match="divergence at meta-epoch 3, round 1"):
        _check_iterate(x, 3, 1)
    _check_iterate(np.array([0.5, 9e11]), 3, 1)


def test_pass_length():
    # a shuffled pass has at most N steps; a fedavg client takes local_steps minibatch steps
    assert [pass_length(a, 4, None) for a in ("rrcli", "rrcli-wr", "nastya", "fedavg")] == [4, 4, 4, 10]
    assert [pass_length(a, 4, 8) for a in ("rrcli", "rrcli-wr", "nastya", "fedavg")] == [4, 4, 4, 8]
    assert [pass_length(a, 4, 3) for a in ("rrcli", "rrcli-wr", "nastya", "fedavg")] == [3, 3, 3, 3]


def test_local_steps_must_be_positive():
    with pytest.raises(ValueError):
        AlgoConfig(algorithm="rrcli", C=1, T=1, steps=StepSizes(1, 1, 1), local_steps=0)


@pytest.mark.parametrize("algorithm", ["rrcli", "nastya"])
def test_local_pass_divergence_carries_position(monkeypatch, algorithm):
    # 1-d components (1/2)(x - c)^2 with c = 0 on client 0 and c = 1 on client 1;
    # from x0 = 0 client 0 stays at 0, while client 1's pass at gamma = 1e200
    # goes 0 -> 1e200 -> -inf, so the first non-finite pass is meta-epoch 0, round 1
    H = np.ones((2, 2, 1, 1))
    centers = np.zeros((2, 2, 1))
    centers[1] = 1.0
    problem = QuadraticProblem(H, centers, mu=1.0, L=1.0)
    opt = problem.analytic_optimum()
    plan = (((0,), (1,)),)
    shuffle = ShuffleMode(client_mode=ClientMode.DETERMINISTIC_FIXED, fixed_schedule=plan)
    cfg = make_cfg(problem, algorithm, C=1, T=3, gamma=1e200, shuffle=shuffle)
    with pytest.raises(DivergenceError, match="local pass of client 1 at meta-epoch 0, round 1") as info, np.errstate(
        over="ignore", invalid="ignore"
    ):
        if algorithm == "nastya":
            force_nastya_cohorts(monkeypatch, [(0,), (1,), (0,), (1,)])
        run_algorithm(problem, cfg, opt)
    assert (info.value.meta_epoch, info.value.round_index) == (0, 1)


@st.composite
def run_lengths(draw):
    algorithm = draw(st.sampled_from(ALGORITHMS))
    divisors = [c for c in range(1, 7) if 6 % c == 0]
    C = draw(st.sampled_from(divisors) if algorithm != "fedavg" else st.integers(1, 6))
    local_steps = draw(st.one_of(st.none(), st.integers(1, 12)))
    batch_fraction = draw(st.floats(0.0, 1.0, exclude_min=True))
    return algorithm, C, draw(st.integers(1, 4)), local_steps, batch_fraction


@given(run_lengths())
@settings(max_examples=120, deadline=None)
def test_last_trace_point_holds_the_run_total(spec):
    # the last round always completes an epoch, so the loop itself records the run's total
    algorithm, C, T, local_steps, batch_fraction = spec
    problem = hetero_quadratic(M=6, N=5, d=2)
    cfg = make_cfg(problem, algorithm, C, T, 0.002, local_steps=local_steps, batch_fraction=batch_fraction)
    trace = run_algorithm(problem, cfg, problem.analytic_optimum())
    total = T * problem.M * problem.N
    if algorithm == "fedavg":
        per_round = C * pass_length("fedavg", problem.N, local_steps) * max(1, round(batch_fraction * problem.N))
        total = -(-total // per_round) * per_round
    assert trace.points[-1].grad_evals == total


@pytest.mark.parametrize("data_mode", list(DataMode))
@pytest.mark.parametrize(
    "algorithm, client_mode",
    [("rrcli", mode) for mode in ClientMode] + [("rrcli-wr", ClientMode.SHUFFLE_ONCE), ("nastya", ClientMode.SHUFFLE_ONCE)],
)
def test_round_plan_draws_the_eager_cohorts_and_orders(algorithm, client_mode, data_mode):
    # every round's clients and rows are the eager oracles' draws: rrcli's cohorts cut from its client
    # permutation (or the fixed schedule's epoch), rrcli-wr's and nastya's sampled cohorts, and each
    # client's data permutation of the round's data epoch (stream epoch 0 under shuffle-once)
    problem = hetero_quadratic(N=5)
    M, N, C, T = problem.M, problem.N, 2, 3
    R = M // C
    fixed = FIXED_PLAN if client_mode is ClientMode.DETERMINISTIC_FIXED else None
    shuffle = ShuffleMode(client_mode, data_mode, fixed)
    cfg = make_cfg(problem, algorithm, C, T, 0.004, shuffle=shuffle, seed=7)
    plan = list(round_plan(problem, cfg))
    assert [(rnd.meta_epoch, rnd.round_index) for rnd in plan] == [divmod(k, R) for k in range(T * R)]
    for rnd in plan:
        t, r = rnd.meta_epoch, rnd.round_index
        if algorithm == "rrcli":
            cohort = eager_cohorts(M, C, shuffle, t, cfg.seed)[r]
        elif algorithm == "rrcli-wr":
            cohort = sampled_cohort(M, C, cfg.seed, "wr_cohort", t, r)
        else:
            cohort = sampled_cohort(M, C, cfg.seed, "nastya_cohort", t * R + r)
        orders = eager_data_perms(M, N, shuffle, t * R + r if algorithm == "nastya" else t, cfg.seed)
        expected = plan_round(cohort, orders, rnd.bounds, t, r)
        assert rnd.clients == expected.clients and np.array_equal(rnd.rows, expected.rows)


def test_round_plan_reuses_a_data_order_when_rrcli_wr_samples_a_client_twice(monkeypatch):
    # under reshuffled data, a client that rrcli-wr samples twice in one meta-epoch passes over its
    # one data permutation of that meta-epoch both times; a client that never trains in it draws none
    draws = []
    fisher_yates = shuffling.fisher_yates

    def counting_fisher_yates(n, seed, label, *parts):
        if label == "data_perm":
            draws.append(parts)
        return fisher_yates(n, seed, label, *parts)

    for module in (shuffling, optimizer):  # wherever the plan's draws are made
        monkeypatch.setattr(module, "fisher_yates", counting_fisher_yates)
    problem = hetero_quadratic(N=5)
    shuffle = ShuffleMode(data_mode=DataMode.RESHUFFLING)
    cfg = make_cfg(problem, "rrcli-wr", C=2, T=3, gamma=0.004, shuffle=shuffle, seed=7)
    passes = collections.defaultdict(list)
    for rnd in round_plan(problem, cfg):
        for m, row in zip(rnd.clients, rnd.rows):
            passes[rnd.meta_epoch, m].append(row)
    assert sorted(draws) == sorted(passes) and len(passes) < cfg.T * problem.M
    repeats = {key: rows for key, rows in passes.items() if len(rows) > 1}
    assert repeats
    for (t, m), rows in repeats.items():
        order = eager_data_perms(problem.M, problem.N, shuffle, t, cfg.seed)[m]
        assert all(np.array_equal(row, order) for row in rows)


@pytest.mark.parametrize("C", range(1, 7))
def test_fedavg_round_plan_draws_c_distinct_clients(C):
    problem = hetero_quadratic(N=5)
    cfg = make_cfg(problem, "fedavg", C, 2, 0.004, seed=7)
    for rnd in round_plan(problem, cfg):
        assert len(set(rnd.clients)) == C and set(rnd.clients) <= set(range(problem.M))
        assert rnd.clients == tuple(sorted(int(m) for m in sampled_cohort(problem.M, C, cfg.seed, "fedavg_cohort", rnd.round_index)))


@pytest.mark.parametrize("client_mode", list(ClientMode))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_round_plan_states_every_round(algorithm, client_mode):
    # T = 3 meta-epochs of a 2-epoch fixed schedule, which the plan cycles through
    problem = hetero_quadratic(N=5)
    M, N, C, T = problem.M, problem.N, 2, 3
    R = M // C
    fixed = FIXED_PLAN if client_mode is ClientMode.DETERMINISTIC_FIXED else None
    shuffle = ShuffleMode(client_mode=client_mode, data_mode=DataMode.RESHUFFLING, fixed_schedule=fixed)
    for local_steps, batch_fraction in ((None, 0.1), (2, 0.5), (9, 1.0)):
        cfg = make_cfg(problem, algorithm, C, T, 0.004, shuffle=shuffle, local_steps=local_steps, batch_fraction=batch_fraction)
        S = pass_length(algorithm, N, local_steps)
        L = S * max(1, round(batch_fraction * N)) if algorithm == "fedavg" else N
        plan = list(round_plan(problem, cfg))
        assert len(plan) == (-(-T * M * N // (C * L)) if algorithm == "fedavg" else T * R)
        for k, rnd in enumerate(plan):
            assert rnd.clients == tuple(sorted(set(rnd.clients))) and set(rnd.clients) <= set(range(M))
            assert rnd.rows.shape == (C, L) and len(rnd.bounds) == S
            assert rnd.bounds[0][0] == 0 and rnd.bounds[-1][1] == L
            assert all(a < b == c for (a, b), (c, _) in zip(rnd.bounds, rnd.bounds[1:] + ((L, L),)))
            if algorithm == "fedavg":
                assert (rnd.meta_epoch, rnd.round_index) == (k * C * L // (M * N), k)
                assert ((0 <= rnd.rows) & (rnd.rows < N)).all()
            else:
                assert (rnd.meta_epoch, rnd.round_index) == divmod(k, R)
                assert (np.sort(rnd.rows, axis=1) == np.arange(N)).all()  # each row permutes the client's data
        total = sum(rnd.rows.size for rnd in plan)
        if algorithm == "fedavg":
            assert total - C * L < T * M * N <= total
        else:
            assert total == T * M * N
        if algorithm == "rrcli":
            for t in range(T):
                assert sorted(m for rnd in plan[t * R : (t + 1) * R] for m in rnd.clients) == list(range(M))
            if client_mode is ClientMode.SHUFFLE_ONCE:
                assert [rnd.clients for rnd in plan] == [rnd.clients for rnd in plan[:R]] * T
            if fixed:
                assert [rnd.clients for rnd in plan] == [tuple(sorted(c)) for t in range(T) for c in FIXED_PLAN[t % 2]]


def plateau_quadratic():
    """Acceptance test 06's problem, on which shuffle-once runs reach a float fixed point or cycle."""
    return quadratic_problem(6, 4, 5, mu=1.0, L=10.0, client_spread=2.0, sample_spread=0.3, seed=11)


def plateau_cfg(algorithm="rrcli", gamma=0.01, T=400, seed=0, shuffle=ShuffleMode(), decay=False):
    steps = StepSizes(gamma=gamma, eta=gamma * 4, theta=gamma * 4 * 3)
    return AlgoConfig(algorithm=algorithm, C=2, T=T, steps=steps, shuffle=shuffle, seed=seed, decay=decay)


def trace_bits(trace):
    return [(p.epoch.hex(), p.dist_sq.hex(), p.func_gap.hex(), p.grad_evals) for p in trace.points]


@pytest.fixture
def pass_calls(monkeypatch):
    """A list that grows by one entry per ``QuadraticProblem.cohort_pass`` call."""
    calls = []
    cohort_pass = QuadraticProblem.cohort_pass

    def counting_cohort_pass(self, *args):
        calls.append(args)
        return cohort_pass(self, *args)

    monkeypatch.setattr(QuadraticProblem, "cohort_pass", counting_cohort_pass)
    return calls


FIXED_ONCE = ShuffleMode(ClientMode.DETERMINISTIC_FIXED, DataMode.SHUFFLE_ONCE, FIXED_PLAN)


@pytest.mark.parametrize(
    "gamma, T, seed, shuffle",
    [
        # seeds 0, 1 and 3 at gamma = 0.01 end in cycles of 1, 3 and 2 meta-epochs with numpy 2.4.6 and OpenBLAS 0.3.31
        (0.01, 400, 0, ShuffleMode()),
        (0.01, 400, 1, ShuffleMode()),
        (0.01, 400, 3, ShuffleMode()),
        (0.005, 700, 0, ShuffleMode()),
        (0.01, 400, 0, FIXED_ONCE),  # a period-2 plan: a cycle of 2 or 4 meta-epochs
        (0.005, 700, 3, FIXED_ONCE),
    ],
)
def test_replayed_cycle_equals_the_eager_run_bit_for_bit(pass_calls, gamma, T, seed, shuffle):
    problem, cfg = plateau_quadratic(), plateau_cfg(gamma=gamma, T=T, seed=seed, shuffle=shuffle)
    opt = problem.analytic_optimum()
    trace = run_algorithm(problem, cfg, opt)
    assert len(pass_calls) < T * 3 / 4  # the replay fired: under a quarter of the T*R rounds ran
    assert trace_bits(trace) == trace_bits(eager_run(problem, cfg, opt))
    with np.errstate(all="raise"):
        assert trace_bits(run_algorithm(problem, cfg, opt)) == trace_bits(trace)


def test_homogeneous_run_from_its_optimum_cycles_from_meta_epoch_zero(pass_calls):
    # every gradient at x0 = 0 = x* is exactly 0, so meta-epoch 1 starts where meta-epoch 0 did
    problem = quadratic_problem(6, 4, 5, client_spread=0.0, sample_spread=0.0)
    cfg = plateau_cfg(T=50)
    opt = problem.analytic_optimum()
    trace = run_algorithm(problem, cfg, opt)
    assert len(pass_calls) == problem.M // cfg.C
    assert [p.grad_evals for p in trace.points] == [t * problem.M * problem.N for t in range(cfg.T + 1)]
    assert trace_bits(trace) == trace_bits(eager_run(problem, cfg, opt))


RESHUFFLED_DATA = ShuffleMode(ClientMode.SHUFFLE_ONCE, DataMode.RESHUFFLING)
RESHUFFLED_CLIENTS = ShuffleMode(ClientMode.RESHUFFLING, DataMode.SHUFFLE_ONCE)


@pytest.mark.parametrize(
    "kw",
    [
        dict(shuffle=RESHUFFLED_DATA),
        dict(shuffle=RESHUFFLED_CLIENTS),
        dict(shuffle=ShuffleMode(ClientMode.DETERMINISTIC_FIXED, DataMode.RESHUFFLING, FIXED_PLAN)),
        dict(algorithm="rrcli-wr"),
        dict(algorithm="nastya"),
        dict(decay=True),
    ],
)
def test_no_replay_where_meta_epochs_differ(pass_calls, kw):
    # the homogeneous run from its optimum would replay from meta-epoch 1 if any of these cycled
    problem = quadratic_problem(6, 4, 5, client_spread=0.0, sample_spread=0.0)
    cfg = plateau_cfg(T=20, **kw)
    trace = run_algorithm(problem, cfg, problem.analytic_optimum())
    assert len(pass_calls) == cfg.T * problem.M // cfg.C
    assert len(trace.points) == cfg.T + 1


def test_no_replay_before_the_iterate_repeats(pass_calls):
    problem, cfg = plateau_quadratic(), plateau_cfg(T=30)  # its start iterates first repeat past meta-epoch 60
    opt = problem.analytic_optimum()
    trace = run_algorithm(problem, cfg, opt)
    assert len(pass_calls) == cfg.T * problem.M // cfg.C
    assert trace_bits(trace) == trace_bits(eager_run(problem, cfg, opt))


THREE_EPOCH_PLAN = FIXED_PLAN + (((0, 3), (1, 2), (4, 5)),)


@pytest.mark.parametrize("data_mode", list(DataMode))
@pytest.mark.parametrize("client_mode", list(ClientMode))
@pytest.mark.parametrize("algorithm", ["rrcli", "rrcli-wr", "nastya"])
@pytest.mark.parametrize("schedule", [FIXED_PLAN, THREE_EPOCH_PLAN])
def test_plan_period_is_the_period_of_the_round_plan(algorithm, client_mode, data_mode, schedule):
    problem = hetero_quadratic()
    shuffle = ShuffleMode(client_mode, data_mode, schedule if client_mode is ClientMode.DETERMINISTIC_FIXED else None)
    cfg = make_cfg(problem, algorithm, C=2, T=3 * len(schedule), gamma=0.004, shuffle=shuffle)
    period = plan_period(cfg)
    if algorithm != "rrcli" or data_mode is DataMode.RESHUFFLING or client_mode is ClientMode.RESHUFFLING:
        assert period == 0
    else:
        assert period == (len(schedule) if client_mode is ClientMode.DETERMINISTIC_FIXED else 1)
    R = problem.M // 2
    rounds = [(rnd.clients, rnd.rows.tobytes(), rnd.bounds) for rnd in round_plan(problem, cfg)]
    epochs = [rounds[t * R : (t + 1) * R] for t in range(cfg.T)]
    if period:  # over at least three periods
        assert all(epochs[t] == epochs[t + period] for t in range(cfg.T - period))
    else:  # nor a period of 1, 2 or 3, on this seed
        assert all(epochs[t] != epochs[t + p] for p in (1, 2, 3) for t in range(cfg.T - p))
