"""Quadratic runs against their exact rational replays (``rational_reference.replay``), on any machine's kernels.

Every recorded dist_sq of ``run_algorithm`` must lie within the replay's rounding bound of the exact rational value,
for all four algorithms, both shuffle modes and a fixed schedule, with and without decay, under model averaging with
the identity global step and under server and global steps below them.
"""

from fractions import Fraction

import pytest

from fedrr.optimizer import ALGORITHMS, RRCLI, AlgoConfig, StepSizes, pass_length, run_algorithm
from fedrr.problem import quadratic_problem
from fedrr.shuffling import ClientMode, DataMode, ShuffleMode

from rational_reference import replay

# (problem, C, T) by M x N x d; L = 4, so gamma = 0.2 keeps gamma * L <= 1, as the replay's bound needs
PROBLEMS = {
    "2x2x1": (quadratic_problem(2, N=2, d=1, L=4.0, seed=3), 1, 5),
    "4x3x2": (quadratic_problem(4, N=3, d=2, L=4.0, seed=5), 2, 3),
}
MODES = {"shuffle-once": ShuffleMode(), "reshuffling": ShuffleMode(ClientMode.RESHUFFLING, DataMode.RESHUFFLING)}
PLAN = (((0, 1), (2, 3)), ((3, 1), (0, 2)), ((2, 0), (1, 3)))  # three epochs of the 4 clients in cohorts of 2


def step_sets(algorithm, problem, C):
    """Model averaging with the identity global step (eta = gamma*S, theta = eta*R), then eta and theta below them."""
    gamma, S, R = 0.2, pass_length(algorithm, problem.N, None), problem.M // C
    return StepSizes(gamma, gamma * S, gamma * S * R), StepSizes(gamma, 0.75 * gamma * S, 0.6 * 0.75 * gamma * S * R)


def check_replays(problem, algorithm, C, T, shuffle):
    optimum = problem.analytic_optimum()
    for steps in step_sets(algorithm, problem, C):
        for decay in (False, True):
            cfg = AlgoConfig(algorithm, C, T, steps, shuffle=shuffle, seed=1, decay=decay)
            trace = run_algorithm(problem, cfg, optimum)
            want = replay(problem, cfg, optimum.x_star)
            assert [p.grad_evals for p in trace.points] == [evals for evals, _, _ in want]
            for p, (_, dist, bound) in zip(trace.points, want):
                assert abs(Fraction(p.dist_sq) - dist) <= bound, (steps, decay, p)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("name", PROBLEMS)
def test_every_dist_sq_is_the_exact_replays_within_its_rounding_bound(name, algorithm, mode):
    problem, C, T = PROBLEMS[name]
    check_replays(problem, algorithm, C, T, MODES[mode])


def test_a_fixed_schedule_run_is_its_exact_replay_within_its_rounding_bound():
    # five meta-epochs of a three-epoch schedule: the schedule cycles
    problem, C, _ = PROBLEMS["4x3x2"]
    shuffle = ShuffleMode(ClientMode.DETERMINISTIC_FIXED, DataMode.RESHUFFLING, fixed_schedule=PLAN)
    check_replays(problem, RRCLI, C, 5, shuffle)
