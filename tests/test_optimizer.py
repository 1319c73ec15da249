import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eager_reference import eager_run
from fedrr.optimizer import (
    ALGORITHMS,
    AlgoConfig,
    DivergenceError,
    StepSizes,
    _batch_bounds,
    apply_decay,
    local_pass,
    run_algorithm,
    run_fedavg,
    run_nastya,
    run_rrcli,
)
from fedrr.problem import QuadraticProblem, quadratic_problem
from fedrr.shuffling import ClientMode, DataMode, ShuffleMode, build_cohort_schedule


def unit_quadratic(M=1, N=2, d=1):
    """Components are all (1/2)x^2: identity Hessians, centers at 0."""
    H = np.ones((M, N, d, d)) * np.eye(d)
    centers = np.zeros((M, N, d))
    return QuadraticProblem(H, centers, mu=1.0, L=1.0)


def hetero_quadratic(seed=0, M=6, C=2, N=4, d=5):
    return quadratic_problem(M, N, d, mu=1.0, L=10.0, client_spread=1.0, sample_spread=0.5, seed=seed)


def test_local_pass_hand_example():
    # f = x^2/2, x0 = 1, gamma = 0.1, N = 2: 1 -> 0.9 -> 0.81
    problem = unit_quadratic()
    x_end, g = local_pass(problem, 0, np.array([1.0]), 0.1, np.array([0, 1]))
    assert x_end[0] == pytest.approx(0.81, abs=1e-15)
    assert g[0] == pytest.approx((1.0 - 0.81) / 0.2, abs=1e-15)


def test_local_pass_single_step_is_component_gradient():
    problem = hetero_quadratic(N=1)
    x0 = np.ones(problem.d)
    _, g = local_pass(problem, 2, x0, 0.05, np.array([0]))
    assert np.allclose(g, problem.component_gradient(2, 0, x0), atol=1e-12)


def test_local_pass_zero_gradients_fixed_point():
    problem = unit_quadratic(M=2, N=3, d=2)
    x_star = np.zeros(2)
    x_end, g = local_pass(problem, 1, x_star, 0.3, np.arange(3))
    assert np.array_equal(x_end, x_star)
    assert np.allclose(g, 0.0)


def test_local_pass_batched_normalization():
    # with S batches the pseudo-gradient divides by gamma*S
    problem = hetero_quadratic()
    x0 = np.ones(problem.d)
    x_end, g = local_pass(problem, 0, x0, 0.01, np.arange(problem.N), local_steps=2)
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
    trace = run_rrcli(problem, cfg, opt)
    x = np.zeros(problem.d)
    for _ in range(3):
        x = x - gamma * problem.full_gradient(x)
    assert trace.points[-1].dist_sq == pytest.approx(float((x - opt.x_star) @ (x - opt.x_star)), rel=1e-12)


def test_server_collapse_identity_checked_internally():
    # the eta = gamma*S identity is asserted inside run_rrcli on every round
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    cfg = make_cfg(problem, "rrcli", C=2, T=4, gamma=0.005)
    run_rrcli(problem, cfg, opt)  # raises AssertionError on violation


def test_global_collapse_is_exact():
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    cfg = make_cfg(problem, "rrcli", C=2, T=2, gamma=0.005)
    # replay the rounds manually and compare bit for bit
    trace = run_rrcli(problem, cfg, opt)
    x = np.zeros(problem.d)
    from fedrr.optimizer import _aggregate_cohort
    from fedrr.shuffling import draw_data_permutations

    for t in range(2):
        perms = draw_data_permutations(problem.M, problem.N, cfg.shuffle, t, cfg.seed)
        sched = build_cohort_schedule(problem.M, 2, cfg.shuffle, t, cfg.seed)
        for cohort in sched.cohorts:
            g, _ = _aggregate_cohort(problem, cohort, x, cfg.steps.gamma, perms, None)
            x = x - cfg.steps.eta * g
        delta = x - opt.x_star
        assert trace.points[t + 1].dist_sq == float(delta @ delta)


def test_rrcli_reshuffling_visits_every_client():
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    mode = ShuffleMode(client_mode=ClientMode.RESHUFFLING, data_mode=DataMode.RESHUFFLING)
    for t in range(4):
        sched = build_cohort_schedule(problem.M, 2, mode, t, seed=5)
        flat = sorted(m for c in sched.cohorts for m in c)
        assert flat == list(range(problem.M))
    cfg = make_cfg(problem, "rrcli", C=2, T=4, gamma=0.005, shuffle=mode, seed=5)
    trace = run_rrcli(problem, cfg, opt)
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


def test_nastya_coupling_with_rrcli():
    # forcing nastya's cohorts equal to rrcli's makes the traces identical
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    mode = ShuffleMode(client_mode=ClientMode.SHUFFLE_ONCE, data_mode=DataMode.SHUFFLE_ONCE)
    T = 3
    rr_cfg = make_cfg(problem, "rrcli", C=2, T=T, gamma=0.005, shuffle=mode, seed=4)
    rr = run_rrcli(problem, rr_cfg, opt)
    cohorts = []
    for t in range(T):
        cohorts.extend(build_cohort_schedule(problem.M, 2, mode, t, seed=4).cohorts)
    na_cfg = make_cfg(problem, "nastya", C=2, T=T, gamma=0.005, shuffle=mode, seed=4)
    na = run_nastya(problem, na_cfg, opt, cohort_sequence=cohorts)
    assert [p.dist_sq for p in na.points] == [p.dist_sq for p in rr.points]


def test_nastya_full_participation_equals_rrcli():
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    rr = run_rrcli(problem, make_cfg(problem, "rrcli", C=problem.M, T=3, gamma=0.005, seed=1), opt)
    na = run_nastya(problem, make_cfg(problem, "nastya", C=problem.M, T=3, gamma=0.005, seed=1), opt)
    assert [p.dist_sq for p in na.points] == [p.dist_sq for p in rr.points]


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
    trace = run_fedavg(problem, cfg, opt)
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
    trace = run_fedavg(problem, cfg, opt)
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
        run_rrcli(problem, cfg, opt)


def test_epoch_accounting_equal_cost():
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    rr = run_rrcli(problem, make_cfg(problem, "rrcli", C=2, T=3, gamma=0.005), opt)
    na = run_nastya(problem, make_cfg(problem, "nastya", C=2, T=3, gamma=0.005), opt)
    assert [p.epoch for p in rr.points] == [0, 1, 2, 3]
    assert [p.epoch for p in na.points] == [0, 1, 2, 3]
    assert rr.points[-1].grad_evals == na.points[-1].grad_evals == 3 * problem.M * problem.N


def test_step_sizes_must_be_positive():
    with pytest.raises(ValueError):
        StepSizes(gamma=0.0, eta=1.0, theta=1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        AlgoConfig(algorithm="sgd", C=1, T=1, steps=StepSizes(1, 1, 1))
    with pytest.raises(ValueError):
        AlgoConfig(algorithm="fedavg", C=1, T=1, steps=StepSizes(1, 1, 1), batch_fraction=0.0)


def trace_values(trace):
    return [(p.epoch, p.meta_epoch, p.dist_sq, p.func_gap, p.grad_evals) for p in trace.points]


FIXED_PLAN = (((0, 1), (2, 3), (4, 5)), ((5, 2), (1, 4), (3, 0)))


@pytest.mark.parametrize("decay", [False, True])
@pytest.mark.parametrize("data_mode", list(DataMode))
@pytest.mark.parametrize("client_mode", list(ClientMode))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_trace_matches_eager_replay(algorithm, client_mode, data_mode, decay):
    # lazy, memoised permutations and precomputed batch slices change no bit
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
        run_fedavg(problem, cfg, opt)
    assert (info.value.meta_epoch, info.value.round_index) == (12, 12)
    assert "meta-epoch 12, round 12" in str(info.value)


def test_fedavg_non_finite_client_iterate_carries_position():
    problem = unit_quadratic(M=2, N=5, d=1)
    opt = problem.analytic_optimum()
    cfg = AlgoConfig(
        algorithm="fedavg", C=2, T=3, steps=StepSizes(gamma=1e200, eta=2e200, theta=2e200),
        local_steps=2, batch_fraction=1.0, x0=np.ones(1),
    )
    with pytest.raises(DivergenceError, match="non-finite iterate on client") as info, np.errstate(over="ignore"):
        run_fedavg(problem, cfg, opt)
    assert (info.value.meta_epoch, info.value.round_index) == (0, 0)


def test_nastya_cohort_size_must_divide():
    problem = hetero_quadratic()
    opt = problem.analytic_optimum()
    cfg = make_cfg(problem, "nastya", C=4, T=2, gamma=0.005)
    with pytest.raises(ValueError, match="does not divide"):
        run_nastya(problem, cfg, opt)


def test_local_steps_must_be_positive():
    with pytest.raises(ValueError):
        AlgoConfig(algorithm="rrcli", C=1, T=1, steps=StepSizes(1, 1, 1), local_steps=0)
