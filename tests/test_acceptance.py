"""Acceptance gate: the ten headline checks, one printed verdict line each.

Verdict lines are written with output capture suspended so they stay visible
under pytest's default capture mode.
"""

import time

import numpy as np
import pytest

from fedrr import harness
from fedrr.dataset import partition, synthetic_libsvm_like
from fedrr.harness import ExperimentConfig, run_experiment
from fedrr.optimizer import (
    AlgoConfig,
    StepSizes,
    _batch_bounds,
    _cohort_update,
    run_algorithm,
)
from fedrr.problem import logistic_problem, quadratic_problem
from fedrr.rng import stream
from fedrr.shuffling import (
    ClientMode,
    DataMode,
    ShuffleMode,
    build_cohort_schedule,
    data_permutations,
)
from fedrr.theory import THM1, RegimeParams, bound_rhs, sigma_ds_upper
from fedrr.variance_lab import (
    VarianceInputs,
    brute_force_all,
    closed_form_minibatch_variance,
    closed_form_variance,
    star_sequence_deviation,
    star_variances,
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def verdict(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def geometries(max_size=8):
    for M in range(1, max_size + 1):
        for N in range(1, max_size + 1):
            if M * N > max_size:
                continue
            yield M, N, [c for c in range(1, M + 1) if M % c == 0]


@pytest.fixture(scope="module")
def fig2(tmp_path_factory):
    """The fig2 grid, run once: test 07 reads its runs, and test 08 the optimum it solved on a cold cache
    and the seconds each optimum solve took."""
    solve = harness.solve_optimum
    solve_s = []

    def timed_solve(*args, **kwargs):
        t = time.perf_counter()
        try:
            return solve(*args, **kwargs)
        finally:
            solve_s.append(time.perf_counter() - t)

    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        dataset={"synthetic": {}}, M=12, C=3, T=100, alpha=5e-4,
        algorithms=["rrcli", "nastya", "fedavg"], regime=THM1,
        multipliers=[1.0], local_steps=10, seeds=[0, 1, 2, 3, 4],
        out_dir=str(tmp_path_factory.mktemp("fig2")),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "solve_optimum", timed_solve)
        summary = run_experiment(cfg)
    return summary, time.perf_counter() - t0, solve_s


def test_01_closed_form_matches_enumeration():
    t0 = time.perf_counter()
    rng = stream(2024, "acceptance_1")
    worst = 0.0
    for M, N, divisors in geometries():
        for _ in range(50):
            inp = VarianceInputs(rng.normal(size=(M, N, 2)))
            for C in divisors:
                brute = brute_force_all(inp, C)
                R = M // C
                for k in range(1, N * R + 1):
                    cf = closed_form_minibatch_variance(k, M, N, C, inp.sigma2, inp.sigma_tilde2)
                    bf = float(brute[k - 1])
                    err = abs(cf - bf) / max(abs(bf), 1e-30) if abs(bf) > 1e-12 else abs(cf - bf)
                    worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        "variance closed forms vs enumeration",
        worst <= 1e-10 and elapsed <= 120,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_special_case_reductions():
    rng = stream(2024, "acceptance_2")
    ok = True
    worst = 0.0
    for M, N, _ in geometries():
        inp = VarianceInputs(rng.normal(size=(M, N, 2)))
        if M == 1 and N >= 2:
            for k in range(1, N + 1):
                want = inp.sigma2 * (N - k) / (k * (N - 1))
                got = closed_form_variance(k, 1, N, inp.sigma2, inp.sigma_tilde2)
                worst = max(worst, abs(got - want))
        if N >= 2 and M >= 2:
            # single-block display; under full participation (C=M) the same
            # expression gives every k < N, and the full row average at k = N
            # is deterministic
            for k in range(1, N):
                display = (N - k) / (k * (N - 1)) * inp.sigma2 + N / (N - 1) * (1 - 1 / k) * inp.sigma_tilde2
                got = closed_form_minibatch_variance(k, M, N, M, inp.sigma2, inp.sigma_tilde2)
                worst = max(worst, abs(got - display))
            worst = max(worst, abs(closed_form_minibatch_variance(N, M, N, M, inp.sigma2, inp.sigma_tilde2)))
    ok = worst <= 1e-12
    verdict(2, "variance special-case reductions", ok, f"max abs err {worst:.2e}")


def test_03_variance_bounds_dominate():
    rng = stream(2024, "acceptance_3")
    worst_k2 = 0.0
    for _ in range(100):
        M, N = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        inp = VarianceInputs(rng.normal(size=(M, N, 2)))
        bound = sigma_ds_upper(1.0, M, N, 1, inp.sigma_tilde2, inp.sigma2)
        for k in range(1, M * N + 1):
            lhs = k * k * closed_form_variance(k, M, N, inp.sigma2, inp.sigma_tilde2)
            worst_k2 = max(worst_k2, lhs - bound)
    worst3 = worst4 = -1.0
    for i in range(50):
        M = int(rng.choice([2, 3, 4, 6]))
        N = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        C = int(rng.choice([c for c in range(1, M + 1) if M % c == 0]))
        problem = quadratic_problem(M, N, d, mu=0.5, L=4.0, client_spread=1.0, sample_spread=0.5, seed=300 + i)
        opt = problem.analytic_optimum()
        s2, st2 = star_variances(problem, opt.x_star)
        gamma = 0.05
        stats = star_sequence_deviation(problem, opt.x_star, gamma, C, n_draws=100, seed=i)
        rhs3 = gamma**2 * sigma_ds_upper(1.0, M, N, C, st2, s2)
        rhs4 = sigma_ds_upper(problem.L, M, N, C, st2, s2)
        worst3 = max(worst3, stats.max_mean_sq_dev - rhs3)
        worst4 = max(worst4, stats.max_sigma_ds - rhs4)
    ok = worst_k2 <= 1e-12 and worst3 <= 1e-12 and worst4 <= 1e-12
    verdict(3, "variance upper bounds dominate", ok, f"slacks {worst_k2:.1e}/{worst3:.1e}/{worst4:.1e}")


def test_04_collapse_identities():
    problem = quadratic_problem(6, 4, 5, mu=1.0, L=10.0, client_spread=1.0, sample_spread=0.5, seed=7)
    opt = problem.analytic_optimum()
    gamma = 0.01
    steps = StepSizes(gamma=gamma, eta=gamma * 4, theta=gamma * 4 * 3)
    mode = ShuffleMode(client_mode=ClientMode.RESHUFFLING, data_mode=DataMode.RESHUFFLING)
    cfg = AlgoConfig(algorithm="rrcli", C=2, T=3, steps=steps, shuffle=mode, seed=5)
    trace = run_algorithm(problem, cfg, opt)  # internal eta = gamma*N check on every round

    # replay manually: server iterate vs cohort endpoint mean, and the exact
    # theta = eta*R global collapse
    worst = 0.0
    x = np.zeros(problem.d)
    for t in range(3):
        perms = data_permutations(4, mode, t, cfg.seed)
        sched = build_cohort_schedule(6, 2, mode, t, cfg.seed)
        for r, cohort in enumerate(sched.cohorts):
            g, mean_end = _cohort_update(problem, cohort, x, gamma, perms, _batch_bounds(4, 4), t, r)
            x = x - steps.eta * g
            worst = max(worst, float(np.abs(x - mean_end).max()))
        delta = x - opt.x_star
        bit_exact = trace.points[t + 1].dist_sq == float(delta @ delta)
        worst = worst if bit_exact else np.inf
    verdict(4, "step-size collapse identities", worst <= 1e-12, f"max dev {worst:.1e}")


def test_05_small_step_bound_dominance():
    t0 = time.perf_counter()
    problem = quadratic_problem(6, 4, 5, mu=1.0, L=10.0, client_spread=1.0, sample_spread=0.5, seed=11)
    opt = problem.analytic_optimum()
    s2, st2 = star_variances(problem, opt.x_star)
    gamma = 1.0 / (2 * problem.L)
    steps = StepSizes(gamma=gamma, eta=gamma * 4, theta=gamma * 4 * 3)
    rp = RegimeParams(
        regime=THM1, L=problem.L, mu=problem.mu, M=6, N=4, C=2,
        sigma_star2=s2, sigma_tilde_star2=st2,
        dist0_sq=float(opt.x_star @ opt.x_star),
    )
    mode = ShuffleMode(client_mode=ClientMode.RESHUFFLING, data_mode=DataMode.RESHUFFLING)
    traces = []
    for seed in range(24):
        cfg = AlgoConfig(algorithm="rrcli", C=2, T=50, steps=steps, shuffle=mode, seed=seed)
        traces.append(run_algorithm(problem, cfg, opt))
    means = np.mean([[p.dist_sq for p in tr.points] for tr in traces], axis=0)
    worst = max(means[T] / bound_rhs(rp, steps, T) for T in range(1, 51))
    elapsed = time.perf_counter() - t0
    verdict(5, "small-step regime bound dominates trajectories", worst <= 1.0 and elapsed <= 60, f"max ratio {worst:.2e}, {elapsed:.1f}s")


def plateau(problem, opt, algorithm, gamma, seed, T, tail=50):
    steps = StepSizes(gamma=gamma, eta=gamma * problem.N, theta=gamma * problem.N * 3)
    mode = ShuffleMode(client_mode=ClientMode.SHUFFLE_ONCE, data_mode=DataMode.SHUFFLE_ONCE)
    cfg = AlgoConfig(algorithm=algorithm, C=2, T=T, steps=steps, shuffle=mode, seed=seed)
    trace = run_algorithm(problem, cfg, opt)
    return float(np.mean([p.dist_sq for p in trace.points[-tail:]]))


def test_06_quadratic_statistical_scaling():
    problem = quadratic_problem(6, 4, 5, mu=1.0, L=10.0, client_spread=2.0, sample_spread=0.3, seed=11)
    opt = problem.analytic_optimum()
    g0 = 0.01
    rr, wr = [], []
    for seed in range(10):
        rr.append(plateau(problem, opt, "rrcli", g0, seed, 400) / plateau(problem, opt, "rrcli", g0 / 2, seed, 700))
        wr.append(plateau(problem, opt, "rrcli-wr", g0, seed, 400) / plateau(problem, opt, "rrcli-wr", g0 / 2, seed, 700))
    med_rr, med_wr = float(np.median(rr)), float(np.median(wr))
    ok = 3.0 <= med_rr <= 5.0 and 1.7 <= med_wr <= 2.5
    verdict(6, "plateau scales with step size squared", ok, f"shuffled {med_rr:.2f}, control {med_wr:.2f}")


def test_07_baseline_ordering(fig2):
    summary, elapsed, _ = fig2
    finals = {}
    for algorithm in ("rrcli", "nastya", "fedavg"):
        finals[algorithm] = float(np.mean([
            r.trace.final_dist_sq() for r in summary["results"] if r.algorithm == algorithm
        ]))
    ordered = finals["rrcli"] <= finals["nastya"] <= finals["fedavg"]
    gap = finals["nastya"] / max(finals["rrcli"], 1e-300)
    ok = ordered and gap >= 2.0 and summary["manifest"]["diverged_count"] == 0 and elapsed <= 600
    verdict(
        7,
        "baseline ordering at theoretical steps",
        ok,
        f"rrcli {finals['rrcli']:.2e} <= nastya {finals['nastya']:.2e} <= fedavg {finals['fedavg']:.2e}, {elapsed:.0f}s",
    )


def test_08_optimum_solver(fig2):
    summary, _, solve_s = fig2
    problem, optimum = summary["problem"], summary["optimum"]
    kappa = problem.L / problem.mu
    # the cache starts cold, so the grid solved exactly once
    ok = optimum.grad_norm <= 1e-12 and 5e3 <= kappa <= 5e4 and len(solve_s) == 1 and solve_s[0] <= 300
    verdict(8, "high-accuracy optimum solver", ok, f"grad {optimum.grad_norm:.1e}, kappa {kappa:.0f}")


def test_09_determinism(tmp_path):
    import hashlib

    cfg = ExperimentConfig(
        dataset={"quadratic": {"M": 6, "N": 4, "d": 5, "seed": 3}},
        M=6, C=2, T=5, algorithms=["rrcli", "nastya", "fedavg"],
        multipliers=[1.0, 2.0], seeds=[0, 1], local_steps=2,
        out_dir=str(tmp_path / "det"),
    )
    runs = []
    for tag in ("a", "b"):
        out = run_experiment(cfg, out_dir=tmp_path / tag)["out_dir"]
        files = sorted(p for p in out.iterdir() if p.suffix in (".csv", ".json") and p.name != "timings.csv")
        runs.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files})
    verdict(9, "byte-identical reruns", runs[0] == runs[1], f"{len(runs[0])} files compared")


def test_10_gradient_correctness():
    def finite_diff(f, x, h=1e-6):
        g = np.zeros_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            g[i] = (f(x + e) - f(x - e)) / (2 * h)
        return g

    X, labels = synthetic_libsvm_like(count=24, dim=6, seed=8, nnz_per_row=3)
    problems = [
        logistic_problem(partition(24, 3, 8), X, labels, 1e-2),
        quadratic_problem(3, 4, 3, mu=0.5, L=4.0, client_spread=1.0, sample_spread=0.5, seed=8),
    ]
    worst = 0.0
    rng = stream(2024, "acceptance_10")
    for problem in problems:
        for _ in range(100):
            m = int(rng.integers(problem.M))
            j = int(rng.integers(problem.N))
            x = rng.normal(size=problem.d)
            g = problem.component_gradient(m, j, x)
            g_fd = finite_diff(lambda y: problem.component_loss(m, j, y), x)
            worst = max(worst, float(np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g))))
    verdict(10, "gradients match finite differences", worst <= 1e-5, f"max rel err {worst:.1e}")
